// Crash-consistent resume, end to end: a run killed at an arbitrary round
// and resumed from its last run checkpoint finishes bit-identical to the
// uninterrupted run — metrics, history, comm/fault counters, the virtual
// clock, and the final model checkpoint bytes. Covered across every
// federated method, both base models, both schedules, with faults +
// admission + delta sync in the mix, plus the fingerprint guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/core/run_state.h"
#include "src/core/trainer.h"
#include "tests/core/equivalence_test_util.h"

namespace hetefedrec {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 2;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.eval_every = 1;  // the restored history must cover epoch-1 points
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  return cfg;
}

ExperimentResult RunWith(const ExperimentConfig& cfg, Method method) {
  auto runner = ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  return (*runner)->Run(method);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void RemoveRunFiles(const std::string& ckpt) {
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".run").c_str());
}

// Runs `cfg` three ways — uninterrupted, killed at `stop_after_rounds`,
// and resumed from the kill's last run checkpoint — and asserts the
// resumed run is indistinguishable from the uninterrupted one.
void ExpectKillResumeEquivalent(ExperimentConfig cfg, Method method,
                                uint64_t stop_after_rounds,
                                const std::string& tag) {
  SCOPED_TRACE(tag);
  const std::string full_ckpt = testing::TempDir() + "/resume_" + tag + "_a";
  const std::string kill_ckpt = testing::TempDir() + "/resume_" + tag + "_b";
  RemoveRunFiles(full_ckpt);
  RemoveRunFiles(kill_ckpt);

  ExperimentConfig full_cfg = cfg;
  full_cfg.checkpoint_path = full_ckpt;
  ExperimentResult full = RunWith(full_cfg, method);

  ExperimentConfig kill_cfg = cfg;
  kill_cfg.checkpoint_path = kill_ckpt;
  kill_cfg.checkpoint_every = 1;
  kill_cfg.debug_stop_after_rounds = stop_after_rounds;
  ExperimentResult killed = RunWith(kill_cfg, method);
  // The kill fired: no final eval ran, no final model checkpoint exists,
  // but the last run checkpoint survived.
  EXPECT_TRUE(killed.stopped);
  EXPECT_FALSE(full.stopped);
  EXPECT_EQ(killed.final_eval.overall.users, 0u);
  EXPECT_FALSE(std::ifstream(kill_ckpt).good());
  ASSERT_TRUE(std::ifstream(kill_ckpt + ".run").good())
      << "kill point left no run checkpoint";

  ExperimentConfig resume_cfg = kill_cfg;
  resume_cfg.debug_stop_after_rounds = 0;
  resume_cfg.resume_run = true;
  ExperimentResult resumed = RunWith(resume_cfg, method);

  ExpectSameEval(full.final_eval, resumed.final_eval);
  ASSERT_EQ(full.history.size(), resumed.history.size());
  for (size_t i = 0; i < full.history.size(); ++i) {
    EXPECT_EQ(full.history[i].epoch, resumed.history[i].epoch);
    ExpectSameEval(full.history[i].eval, resumed.history[i].eval);
    EXPECT_EQ(full.history[i].mean_train_loss,
              resumed.history[i].mean_train_loss);
    EXPECT_EQ(full.history[i].simulated_seconds,
              resumed.history[i].simulated_seconds);
  }
  EXPECT_EQ(full.comm.ExportCounters(), resumed.comm.ExportCounters());
  EXPECT_EQ(full.simulated_seconds, resumed.simulated_seconds);
  EXPECT_EQ(full.collapse_variance, resumed.collapse_variance);
  // The strongest form: the final model checkpoints are byte-identical.
  EXPECT_EQ(FileBytes(full_ckpt), FileBytes(kill_ckpt));
}

// Every federated method, both base models, killed three rounds into the
// synchronous schedule.
TEST(ResumeEquivalence, SyncKillResumeAllMethodsAndModels) {
  int i = 0;
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    for (Method method : kAllMethods) {
      if (method == Method::kStandalone) continue;
      ExperimentConfig cfg = SmallConfig();
      cfg.base_model = model;
      ExpectKillResumeEquivalent(cfg, method, 3,
                                 "sync_" + std::to_string(i++));
    }
  }
}

// A later kill point: the resume path must also work from an epoch
// boundary (mid_epoch = false in the sync schedule's final round write is
// never taken, so kill early in epoch 2 instead).
TEST(ResumeEquivalence, SyncKillResumeInSecondEpoch) {
  ExperimentConfig probe_cfg = SmallConfig();
  ExperimentConfig cfg = SmallConfig();
  // One participation per selected client per round: rounds so far track
  // merged rounds, so killing after "rounds in epoch 1 + 1" lands at the
  // start of epoch 2 whatever the round count per epoch is.
  probe_cfg.debug_stop_after_rounds = 0;
  auto runner = ExperimentRunner::Create(probe_cfg);
  ASSERT_TRUE(runner.ok());
  const size_t users = (*runner)->dataset().num_users();
  const uint64_t rounds_per_epoch =
      (users + cfg.clients_per_round - 1) / cfg.clients_per_round;
  ExpectKillResumeEquivalent(cfg, Method::kHeteFedRec, rounds_per_epoch + 1,
                             "sync_epoch2");
}

// Faults, admission control and backoff state all survive the kill: the
// injector draws are positional, the gate and admission windows are
// serialized, so the resumed run replays the identical fault schedule.
TEST(ResumeEquivalence, SyncKillResumeWithFaultsAndAdmission) {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault_upload_loss = 0.05;
  cfg.fault_download_loss = 0.03;
  cfg.fault_crash = 0.02;
  cfg.fault_corrupt = 0.05;
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;
  cfg.admit_outlier_z = 6.0;
  ExpectKillResumeEquivalent(cfg, Method::kHeteFedRec, 4, "sync_faulted");
}

// Capped delta-sync replicas (per-client row holdings + versions, LRU
// order) round-trip through the checkpoint too.
TEST(ResumeEquivalence, SyncKillResumeWithDeltaSyncReplicas) {
  ExperimentConfig cfg = SmallConfig();
  cfg.full_downloads = false;
  cfg.sync_replica_cap = 64;
  ExpectKillResumeEquivalent(cfg, Method::kHeteFedRec, 3, "sync_delta");
}

// Uncapped replicas (the default replica_cap = 0) keep no recency list;
// their held rows must still round-trip, so a resumed run does not re-ship
// rows its clients already hold.
TEST(ResumeEquivalence, SyncKillResumeWithUncappedDeltaSyncReplicas) {
  ExperimentConfig cfg = SmallConfig();
  cfg.full_downloads = false;
  cfg.sync_replica_cap = 0;
  ExpectKillResumeEquivalent(cfg, Method::kHeteFedRec, 3,
                             "sync_delta_uncapped");
}

TEST(ResumeEquivalence, UncappedReplicaRowsReachTheRunState) {
  ExperimentConfig cfg = SmallConfig();
  cfg.full_downloads = false;
  cfg.sync_replica_cap = 0;
  cfg.checkpoint_path = testing::TempDir() + "/resume_uncapped_rows";
  cfg.checkpoint_every = 1;
  cfg.debug_stop_after_rounds = 3;
  RemoveRunFiles(cfg.checkpoint_path);
  ASSERT_TRUE(RunWith(cfg, Method::kHeteFedRec).stopped);

  StatusOr<RunState> st = LoadRunState(cfg.checkpoint_path + ".run");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  size_t synced = 0;
  size_t rows = 0;
  for (const ReplicaSnapshot& r : st->replicas) {
    synced += r.slot_plus_one > 0;
    rows += r.rows.size();
    EXPECT_TRUE(std::is_sorted(r.rows.begin(), r.rows.end()));
    // A client that synced holds at least the rows it was shipped.
    if (r.slot_plus_one > 0) {
      EXPECT_FALSE(r.rows.empty());
    }
  }
  EXPECT_GT(synced, 0u);
  EXPECT_GT(rows, 0u);
}

// The asynchronous schedule checkpoints at epoch boundaries (the queue is
// drained there); a kill mid-epoch-2 resumes from the epoch-1 boundary and
// replays epoch 2 bit-identically. rounds under async = merged updates.
TEST(ResumeEquivalence, AsyncKillResume) {
  ExperimentConfig cfg = SmallConfig();
  cfg.async_mode = true;
  cfg.async_dispatch_batch = 4;

  // Find a kill point inside epoch 2: total merges minus a few.
  ExperimentResult probe = RunWith(cfg, Method::kHeteFedRec);
  size_t total_merges = 0;
  for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
    total_merges += probe.comm.Participations(g);
  }
  ASSERT_GT(total_merges, 8u);
  ExpectKillResumeEquivalent(cfg, Method::kHeteFedRec,
                             static_cast<uint64_t>(total_merges - 3),
                             "async");
}

TEST(ResumeEquivalence, AsyncKillResumeWithFaults) {
  ExperimentConfig cfg = SmallConfig();
  cfg.async_mode = true;
  cfg.fault_upload_loss = 0.05;
  cfg.fault_corrupt = 0.03;
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;

  ExperimentResult probe = RunWith(cfg, Method::kHeteFedRec);
  size_t total_merges = 0;
  for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
    total_merges += probe.comm.Participations(g);
  }
  ASSERT_GT(total_merges, 8u);
  ExpectKillResumeEquivalent(cfg, Method::kHeteFedRec,
                             static_cast<uint64_t>(total_merges - 3),
                             "async_faulted");
}

// Resuming under a different results-affecting config must refuse to run:
// the fingerprint guard aborts instead of silently mixing experiments.
TEST(ResumeEquivalenceDeathTest, FingerprintMismatchAborts) {
  const std::string ckpt = testing::TempDir() + "/resume_fpr_mismatch";
  RemoveRunFiles(ckpt);
  ExperimentConfig cfg = SmallConfig();
  cfg.checkpoint_path = ckpt;
  cfg.checkpoint_every = 1;
  cfg.debug_stop_after_rounds = 2;  // checkpoint after round 1 survives
  RunWith(cfg, Method::kHeteFedRec);
  ASSERT_TRUE(std::ifstream(ckpt + ".run").good());

  ExperimentConfig other = cfg;
  other.debug_stop_after_rounds = 0;
  other.resume_run = true;
  other.seed = 4242;  // results-affecting: different fingerprint
  EXPECT_DEATH(RunWith(other, Method::kHeteFedRec), "");
}

// Resuming with a missing run checkpoint is an error from Create — not a
// silent fresh start, and not an abort.
TEST(ResumeEquivalenceTest, MissingRunCheckpointFailsCreate) {
  ExperimentConfig cfg = SmallConfig();
  cfg.checkpoint_path = testing::TempDir() + "/resume_missing_ckpt";
  RemoveRunFiles(cfg.checkpoint_path);
  cfg.resume_run = true;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_FALSE(runner.ok());
  EXPECT_EQ(runner.status().code(), StatusCode::kIOError);
  EXPECT_NE(runner.status().message().find("resume_missing_ckpt.run"),
            std::string::npos)
      << runner.status().ToString();
}

}  // namespace
}  // namespace hetefedrec
