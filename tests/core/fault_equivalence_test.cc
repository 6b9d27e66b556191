// Fault injection end to end: the knobs are inert when off (defaults stay
// bit-identical to the fault-free implementation), faults are a pure
// function of the seed (reproducible, thread-count invariant, sync and
// async), injected faults surface in the FaultStats counters, and the
// admission gates reject corrupted updates instead of merging them.
#include <gtest/gtest.h>

#include <cmath>
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

ExperimentConfig FaultyConfig() {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault_upload_loss = 0.05;
  cfg.fault_download_loss = 0.03;
  cfg.fault_crash = 0.02;
  cfg.fault_duplicate = 0.02;
  cfg.fault_corrupt = 0.03;
  return cfg;
}

ExperimentResult RunWith(const ExperimentConfig& cfg, Method method) {
  auto runner = ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  return (*runner)->Run(method);
}

bool AllFaultCountersZero(const FaultStats& f) {
  return f.TotalInjected() == 0 && f.TotalRejected() == 0 &&
         f.rows_clipped == 0 && f.quarantines == 0 && f.retries == 0 &&
         f.gave_up == 0 && f.nonfinite_grad_steps == 0;
}

void ExpectSameRun(const ExperimentResult& a, const ExperimentResult& b) {
  ExpectSameEval(a.final_eval, b.final_eval);
  EXPECT_EQ(a.comm.TotalTransmitted(), b.comm.TotalTransmitted());
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.comm.ExportCounters(), b.comm.ExportCounters());
}

// With every fault rate at zero, the retry/backoff knobs must be inert:
// the gate and injector are never constructed and the run is bit-identical
// to the pre-robustness implementation.
TEST(FaultEquivalence, KnobsAreInertWithoutFaultRates) {
  for (Method method : {Method::kHeteFedRec, Method::kClusteredFedRec}) {
    ExperimentConfig plain = SmallConfig();
    ExperimentConfig knobs = plain;
    knobs.fault_retry_max = 2;
    knobs.fault_retry_base = 0.1;
    knobs.fault_retry_cap = 10.0;
    knobs.fault_quarantine_base = 1.0;
    knobs.fault_quarantine_cap = 50.0;
    knobs.fault_jitter = 0.9;

    ExperimentResult a = RunWith(plain, method);
    ExperimentResult b = RunWith(knobs, method);
    SCOPED_TRACE(MethodName(method));
    ExpectSameRun(a, b);
    EXPECT_TRUE(AllFaultCountersZero(a.comm.faults()));
    EXPECT_TRUE(AllFaultCountersZero(b.comm.faults()));
  }
}

// Same seed, same faults: a faulted run reproduces bit-for-bit, and the
// injected-fault counters land in FaultStats.
TEST(FaultEquivalence, FaultedRunsReproduceBitForBit) {
  ExperimentConfig cfg = FaultyConfig();
  ExperimentResult a = RunWith(cfg, Method::kHeteFedRec);
  ExperimentResult b = RunWith(cfg, Method::kHeteFedRec);
  ExpectSameRun(a, b);

  const FaultStats& f = a.comm.faults();
  EXPECT_GT(f.TotalInjected(), 0u);
  EXPECT_GT(f.upload_lost + f.download_lost + f.crashed, 0u);
  EXPECT_GT(f.retries + f.gave_up, 0u);  // failures hit the backoff path
}

// The determinism bar: fault draws are keyed by (seed, client, round/seq),
// never by execution order, so 1 thread vs 4 threads is bit-identical —
// under both schedules.
TEST(FaultEquivalence, FaultsAreThreadCountInvariant) {
  for (bool async : {false, true}) {
    ExperimentConfig cfg = FaultyConfig();
    cfg.async_mode = async;
    cfg.admission_control = true;
    cfg.admit_max_row_norm = 1.0;
    if (async) cfg.async_dispatch_batch = 8;
    ExperimentConfig cfg4 = cfg;
    cfg4.num_threads = 4;

    ExperimentResult serial = RunWith(cfg, Method::kHeteFedRec);
    ExperimentResult parallel = RunWith(cfg4, Method::kHeteFedRec);
    SCOPED_TRACE(async ? "async" : "sync");
    ExpectSameRun(serial, parallel);
    EXPECT_GT(serial.comm.faults().TotalInjected(), 0u);
  }
}

// A different seed draws different faults (the injector is not keyed off
// some global counter that would make every seed collide).
TEST(FaultEquivalence, SeedChangesTheFaultSchedule) {
  ExperimentConfig a_cfg = FaultyConfig();
  ExperimentConfig b_cfg = FaultyConfig();
  b_cfg.seed = 42;
  const FaultStats a = RunWith(a_cfg, Method::kHeteFedRec).comm.faults();
  const FaultStats b = RunWith(b_cfg, Method::kHeteFedRec).comm.faults();
  EXPECT_TRUE(a.download_lost != b.download_lost ||
              a.upload_lost != b.upload_lost || a.crashed != b.crashed ||
              a.duplicates != b.duplicates || a.corrupted != b.corrupted);
}

// Every federated method survives the full fault cocktail under both
// schedules and still merges uploads.
TEST(FaultEquivalence, AllFederatedMethodsRunFaulted) {
  for (bool async : {false, true}) {
    for (Method method : kAllMethods) {
      if (method == Method::kStandalone) continue;
      ExperimentConfig cfg = FaultyConfig();
      cfg.async_mode = async;
      ExperimentResult r = RunWith(cfg, method);
      SCOPED_TRACE(MethodName(method) + (async ? " async" : " sync"));
      size_t uploads = 0;
      for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
        uploads += r.comm.Participations(g);
      }
      EXPECT_GT(uploads, 0u);
      EXPECT_GT(r.comm.faults().TotalInjected(), 0u);
    }
  }
}

// Admission control catches the corruption the injector produces: NaN/Inf
// poisoning trips the finite scan, large-norm scaling trips the z-gate.
// Without admission the corrupted bytes merge silently (counters only).
TEST(FaultEquivalence, AdmissionRejectsCorruptedUpdates) {
  ExperimentConfig cfg = SmallConfig();
  cfg.fault_corrupt = 0.1;
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;
  cfg.admit_outlier_z = 6.0;

  ExperimentResult r = RunWith(cfg, Method::kHeteFedRec);
  const FaultStats& f = r.comm.faults();
  EXPECT_GT(f.corrupted, 0u);
  EXPECT_GT(f.TotalRejected(), 0u);
  EXPECT_EQ(f.TotalRejected(), f.rejected_nonfinite + f.rejected_outlier);
  // Every rejection quarantined its client.
  EXPECT_EQ(f.quarantines, f.TotalRejected());
  // Rejected updates never merge, so no NaN can reach the tables: the
  // final metrics are finite and the run reproduces.
  EXPECT_TRUE(std::isfinite(r.final_eval.overall.ndcg));
  ExpectSameRun(r, RunWith(cfg, Method::kHeteFedRec));
}

// The graceful-degradation criterion at test scale: 5% upload loss + 1%
// corruption behind admission control keeps NDCG in the same band as the
// fault-free run (the bench sweeps this properly; here we pin "does not
// collapse").
TEST(FaultEquivalence, ModerateFaultsDegradeGracefully) {
  ExperimentConfig clean = SmallConfig();
  ExperimentConfig faulty = SmallConfig();
  faulty.fault_upload_loss = 0.05;
  faulty.fault_corrupt = 0.01;
  faulty.admission_control = true;
  faulty.admit_max_row_norm = 1.0;
  faulty.admit_outlier_z = 6.0;

  ExperimentResult clean_res = RunWith(clean, Method::kHeteFedRec);
  ExperimentResult faulty_res = RunWith(faulty, Method::kHeteFedRec);
  EXPECT_GT(clean_res.final_eval.overall.ndcg, 0.0);
  EXPECT_GT(faulty_res.final_eval.overall.ndcg,
            0.5 * clean_res.final_eval.overall.ndcg);
}

// A sync round that merges nothing while the backoff gate holds selected
// clients lasts until the earliest of them may retry. Without that wait the
// virtual clock stands still, the backoff never expires, and every later
// round of the epoch runs empty until the round budget (10 x the nominal
// rounds + 10) drops the waiting clients. The CI fault cocktail with
// admission control, with and without over-selection, must drain every
// epoch's queue inside its budget.
TEST(FaultEquivalence, GatedClientsDoNotExhaustTheRoundBudget) {
  for (size_t slack : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("straggler_slack=" + std::to_string(slack));
    ExperimentConfig cfg = SmallConfig();
    cfg.fault_upload_loss = 0.05;
    cfg.fault_download_loss = 0.03;
    cfg.fault_crash = 0.02;
    cfg.fault_duplicate = 0.02;
    cfg.fault_corrupt = 0.05;
    cfg.admission_control = true;
    cfg.admit_max_row_norm = 1.0;
    cfg.admit_outlier_z = 6.0;
    cfg.straggler_slack = slack;
    if (slack > 0) cfg.net_bandwidth_sigma = 1.0;
    cfg.track_round_comm = true;
    auto runner = ExperimentRunner::Create(cfg);
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    const size_t users = (*runner)->dataset().num_users();
    const size_t nominal_rounds =
        (users + cfg.clients_per_round - 1) / cfg.clients_per_round;
    const size_t budget = cfg.global_epochs * (10 * nominal_rounds + 10);

    testing::internal::CaptureStderr();
    const ExperimentResult r = (*runner)->Run(Method::kHeteFedRec);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_LT(r.round_comm.size(), budget);
    EXPECT_EQ(log.find("round budget exhausted"), std::string::npos) << log;
    EXPECT_GT(r.comm.faults().quarantines, 0u);
  }
}

// Over-selection leaves clients queued too: on the golden `overselect`
// network with every client online, the clients that miss the round
// deadline every round are still queued when the budget runs out, so the
// warning names the over-selection settings beside availability.
TEST(FaultEquivalence, RoundBudgetWarningNamesOverSelection) {
  ExperimentConfig cfg = SmallConfig();
  cfg.straggler_slack = 4;
  cfg.round_deadline = 0.9;
  cfg.availability = 1.0;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  testing::internal::CaptureStderr();
  (*runner)->Run(Method::kHeteFedRec);
  const std::string log = testing::internal::GetCapturedStderr();
  const size_t at = log.find("round budget exhausted");
  ASSERT_NE(at, std::string::npos) << log;
  const std::string warning = log.substr(at, log.find('\n', at) - at);
  EXPECT_NE(warning.find("availability=1, straggler_slack=4, "
                         "round_deadline=0.9"),
            std::string::npos)
      << warning;
}

// The async schedule's counterpart: a client the backoff gate holds costs
// no dispatch budget, and with nothing in flight the dispatch instant moves
// to the earliest retry. Without that, held clients were popped again at
// one virtual instant until the epoch's budget (10 x users + 10 x
// in-flight) ran out, the in-flight merges drained and the epoch ended with
// them still queued. The fault cocktail with admission control must drain
// every epoch, with every client online and with 20% offline.
TEST(FaultEquivalence, GatedClientsDrainTheAsyncEpoch) {
  for (double availability : {1.0, 0.8}) {
    SCOPED_TRACE("availability=" + std::to_string(availability));
    ExperimentConfig cfg = SmallConfig();
    cfg.fault_upload_loss = 0.05;
    cfg.fault_download_loss = 0.03;
    cfg.fault_crash = 0.02;
    cfg.fault_duplicate = 0.02;
    cfg.fault_corrupt = 0.05;
    cfg.admission_control = true;
    cfg.admit_max_row_norm = 1.0;
    cfg.admit_outlier_z = 6.0;
    cfg.async_mode = true;
    cfg.async_dispatch_batch = 8;
    cfg.availability = availability;
    testing::internal::CaptureStderr();
    const ExperimentResult r = RunWith(cfg, Method::kHeteFedRec);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(log.find("dispatch budget exhausted"), std::string::npos) << log;
    EXPECT_GT(r.comm.faults().quarantines, 0u);
  }
}

// Standalone training has no network, no server, no rounds: every
// robustness knob must be a no-op there.
// Every client a round trains counts its skipped optimizer steps once,
// whether its upload merges or not. Over-selecting 12 clients to merge 8
// trains the same 12 clients on the same tables as a plain round of 12,
// so the one-round counts must agree.
TEST(FaultEquivalence, StragglersCountSkippedOptimizerSteps) {
  ExperimentConfig plain = SmallConfig();
  plain.lr = 1e300;  // the first Adam step makes later gradients non-finite
  plain.debug_stop_after_rounds = 1;
  plain.clients_per_round = 12;
  ExperimentConfig over = plain;
  over.clients_per_round = 8;
  over.straggler_slack = 4;
  over.net_bandwidth_sigma = 1.0;

  const size_t plain_steps = RunWith(plain, Method::kHeteFedRec)
                                 .comm.faults()
                                 .nonfinite_grad_steps;
  const size_t over_steps = RunWith(over, Method::kHeteFedRec)
                                .comm.faults()
                                .nonfinite_grad_steps;
  EXPECT_GT(plain_steps, 0u);
  EXPECT_EQ(over_steps, plain_steps);
}

TEST(FaultEquivalence, StandaloneIgnoresRobustnessKnobs) {
  ExperimentConfig plain = SmallConfig();
  ExperimentConfig knobs = FaultyConfig();
  knobs.admission_control = true;
  knobs.admit_max_row_norm = 1.0;
  ExperimentResult a = RunWith(plain, Method::kStandalone);
  ExperimentResult b = RunWith(knobs, Method::kStandalone);
  ExpectSameEval(a.final_eval, b.final_eval);
  EXPECT_TRUE(AllFaultCountersZero(b.comm.faults()));
}

}  // namespace
}  // namespace hetefedrec
