// Sharded parameter server, end to end: higher shard counts are
// bit-identical to one shard for every method and base model under both
// schedules, and seed- and thread-deterministic (the server keeps one round
// state and shards only partition its upload accounting, so the shard
// count never changes arithmetic — docs/SYNC.md "Sharding"); and a sharded
// run resumes from a kill bit-identical to an uninterrupted one (Snapshot
// has the same layout for every S).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

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

void ExpectSameRun(const ExperimentResult& a, const ExperimentResult& b) {
  ExpectSameEval(a.final_eval, b.final_eval);
  EXPECT_EQ(a.collapse_variance, b.collapse_variance);
  EXPECT_EQ(a.comm.TotalTransmitted(), b.comm.TotalTransmitted());
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
}

// The strongest form of the contract: S=4 vs one shard, every method, both
// base models, synchronous schedule — bit-identical metrics, comm totals
// and virtual clock.
TEST(ShardingEquivalence, ShardsMatchOneShardAllMethodsSync) {
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    for (Method method : kAllMethods) {
      ExperimentConfig one = SmallConfig();
      one.base_model = model;
      one.server_shards = 1;
      ExperimentConfig sharded = one;
      sharded.server_shards = 4;

      SCOPED_TRACE(BaseModelName(model) + " / " + MethodName(method));
      ExpectSameRun(RunWith(one, method), RunWith(sharded, method));
    }
  }
}

// The same bar under merge-on-arrival: async exercises ApplyUpdate (the
// per-arrival staleness-weighted path) and the async Distill cadence
// instead of the round barrier.
TEST(ShardingEquivalence, ShardsMatchOneShardAllMethodsAsync) {
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    for (Method method : kAllMethods) {
      if (method == Method::kStandalone) continue;  // no server to shard
      ExperimentConfig one = SmallConfig();
      one.base_model = model;
      one.async_mode = true;
      one.server_shards = 1;
      ExperimentConfig sharded = one;
      sharded.server_shards = 4;

      SCOPED_TRACE(BaseModelName(model) + " / " + MethodName(method));
      ExpectSameRun(RunWith(one, method), RunWith(sharded, method));
    }
  }
}

// Because per-row accumulation and application are row-independent and
// shards merge in ascending item-range order, ANY shard count reproduces
// the one-shard tables bit-for-bit. server_shards = 0 (the default) also
// means one shard.
TEST(ShardingEquivalence, OtherShardCountsMatchOneShard) {
  ExperimentConfig one = SmallConfig();
  one.server_shards = 1;
  const ExperimentResult reference = RunWith(one, Method::kHeteFedRec);
  for (size_t shards : {size_t{0}, size_t{2}, size_t{5}}) {
    ExperimentConfig sharded = one;
    sharded.server_shards = shards;

    SCOPED_TRACE("S=" + std::to_string(shards));
    ExpectSameRun(reference, RunWith(sharded, Method::kHeteFedRec));
  }
}

// Seed determinism at S in {2, 4}: two identical sharded runs agree
// bit-for-bit (the shard ranges and the apply order are pure functions of
// the config).
TEST(ShardingEquivalence, ShardedRunsReproduceBitForBit) {
  for (size_t shards : {size_t{2}, size_t{4}}) {
    ExperimentConfig cfg = SmallConfig();
    cfg.server_shards = shards;
    SCOPED_TRACE("S=" + std::to_string(shards));
    ExpectSameRun(RunWith(cfg, Method::kHeteFedRec),
                  RunWith(cfg, Method::kHeteFedRec));
  }
}

// Thread-count invariance with shards: round execution threads change
// only who trains when, never the merge order into the sharded tables.
TEST(ShardingEquivalence, ShardedRunsAreThreadCountInvariant) {
  ExperimentConfig cfg = SmallConfig();
  cfg.server_shards = 4;
  ExperimentConfig cfg4 = cfg;
  cfg4.num_threads = 4;
  ExpectSameRun(RunWith(cfg, Method::kHeteFedRec),
                RunWith(cfg4, Method::kHeteFedRec));
}

// Sharded runs get crash-consistent resume for free through
// ShardedServer::Snapshot: a run killed mid-epoch and resumed finishes
// bit-identical to the uninterrupted sharded run. The resumed leg
// restores into the same shard count it was written from.
TEST(ShardingEquivalence, ShardedKillResumeIsBitIdentical) {
  const std::string full_ckpt = testing::TempDir() + "/shard_resume_a";
  const std::string kill_ckpt = testing::TempDir() + "/shard_resume_b";
  for (const std::string& p : {full_ckpt, kill_ckpt}) {
    std::remove(p.c_str());
    std::remove((p + ".run").c_str());
  }

  ExperimentConfig cfg = SmallConfig();
  cfg.server_shards = 4;

  ExperimentConfig full_cfg = cfg;
  full_cfg.checkpoint_path = full_ckpt;
  ExperimentResult full = RunWith(full_cfg, Method::kHeteFedRec);

  ExperimentConfig kill_cfg = cfg;
  kill_cfg.checkpoint_path = kill_ckpt;
  kill_cfg.checkpoint_every = 1;
  kill_cfg.debug_stop_after_rounds = 3;
  ExperimentResult killed = RunWith(kill_cfg, Method::kHeteFedRec);
  EXPECT_EQ(killed.final_eval.overall.users, 0u);
  ASSERT_TRUE(std::ifstream(kill_ckpt + ".run").good())
      << "kill point left no run checkpoint";

  ExperimentConfig resume_cfg = kill_cfg;
  resume_cfg.debug_stop_after_rounds = 0;
  resume_cfg.resume_run = true;
  ExperimentResult resumed = RunWith(resume_cfg, Method::kHeteFedRec);

  ExpectSameRun(full, resumed);
  // Strongest form: the final model checkpoints are byte-identical.
  std::ifstream a(full_ckpt, std::ios::binary);
  std::ifstream b(kill_ckpt, std::ios::binary);
  ASSERT_TRUE(a.good());
  ASSERT_TRUE(b.good());
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

// The shard count participates in the resume fingerprint: a checkpoint
// written at S=4 must refuse to resume into an S=2 run (silently mixing
// layouts would be a correctness trap even though the tables happen to
// be portable).
TEST(ShardingEquivalenceDeathTest, ResumeFingerprintIncludesShardCount) {
  const std::string ckpt = testing::TempDir() + "/shard_fingerprint";
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".run").c_str());

  ExperimentConfig cfg = SmallConfig();
  cfg.server_shards = 4;
  cfg.checkpoint_path = ckpt;
  cfg.checkpoint_every = 1;
  cfg.debug_stop_after_rounds = 2;
  RunWith(cfg, Method::kHeteFedRec);
  ASSERT_TRUE(std::ifstream(ckpt + ".run").good());

  ExperimentConfig mismatched = cfg;
  mismatched.debug_stop_after_rounds = 0;
  mismatched.resume_run = true;
  mismatched.server_shards = 2;
  EXPECT_DEATH(RunWith(mismatched, Method::kHeteFedRec), "");
}

}  // namespace
}  // namespace hetefedrec
