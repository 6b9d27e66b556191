// Backend tolerance harness: the fp32 compute backend trades the fp64
// path's bit-identity for speed, so its guarantee is a *bounded metric
// drift* instead — for every method × base model, sync and async, the
// final Recall@20/NDCG@20 of an fp32 run must stay within kMetricTol of
// the fp64 reference run. Alongside the tolerance bound, one exact
// guarantee IS pinned bit-for-bit: selecting fp64 after an fp32 run
// reproduces the untouched fp64 bits — an fp32 run leaves no residue in
// server state, RNG streams or kernels. (The CPU picks the fp32 kernel
// set, and the scalar set matches the AVX2 one bit for bit:
// Fp32DispatchTest in tests/math/kernels_test.cc.)
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/trainer.h"
#include "src/math/backend.h"
#include "tests/core/equivalence_test_util.h"

namespace hetefedrec {
namespace {

// |fp32 − fp64| bound on the final overall Recall@20 / NDCG@20. Metrics
// are rank-based, so fp32's ~1e-7-relative parameter drift only moves
// them when a near-tie flips; this envelope holds across all methods,
// models and schedules at the test scale (and is the contract quoted in
// docs/PERFORMANCE.md "Numeric backends").
constexpr double kMetricTol = 1e-3;
// Per-group metrics average over ~12-30 users here, so one flipped
// near-tie moves them further; bounded loosely as a sanity rail.
constexpr double kGroupTol = 1e-2;

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 2;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 57;
  return cfg;
}

ExperimentResult RunWith(ExperimentConfig cfg, ComputeBackend backend,
                         Method method) {
  cfg.compute_backend = backend;
  auto runner = ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  return (*runner)->Run(method);
}

void ExpectWithinTolerance(const GroupedEval& fp64_eval,
                           const GroupedEval& fp32_eval) {
  EXPECT_EQ(fp64_eval.overall.users, fp32_eval.overall.users);
  EXPECT_LE(std::fabs(fp64_eval.overall.recall - fp32_eval.overall.recall),
            kMetricTol);
  EXPECT_LE(std::fabs(fp64_eval.overall.ndcg - fp32_eval.overall.ndcg),
            kMetricTol);
  for (int g = 0; g < kNumGroups; ++g) {
    EXPECT_LE(
        std::fabs(fp64_eval.per_group[g].recall - fp32_eval.per_group[g].recall),
        kGroupTol)
        << "group " << g;
    EXPECT_LE(
        std::fabs(fp64_eval.per_group[g].ndcg - fp32_eval.per_group[g].ndcg),
        kGroupTol)
        << "group " << g;
  }
}

class BackendToleranceEndToEnd : public ::testing::TestWithParam<BaseModel> {};

TEST_P(BackendToleranceEndToEnd, AllMethodsWithinToleranceSync) {
  for (Method method : kAllMethods) {
    ExperimentConfig cfg = SmallConfig();
    cfg.base_model = GetParam();
    ExperimentResult fp64_res = RunWith(cfg, ComputeBackend::kFp64, method);
    ExperimentResult fp32_res = RunWith(cfg, ComputeBackend::kFp32Simd, method);
    SCOPED_TRACE(MethodName(method));
    ExpectWithinTolerance(fp64_res.final_eval, fp32_res.final_eval);
  }
}

TEST_P(BackendToleranceEndToEnd, AllMethodsWithinToleranceAsync) {
  for (Method method : kAllMethods) {
    // Standalone training has no server schedule; async doesn't apply.
    if (method == Method::kStandalone) continue;
    ExperimentConfig cfg = SmallConfig();
    cfg.base_model = GetParam();
    cfg.async_mode = true;
    // The backend must not change the simulated schedule: the async merge
    // order depends on transfer times, so both runs keep the same
    // wire_scalar_bytes (the config default) — this isolates numeric
    // drift from the fp32 wire-width accounting the CLI's "auto" applies.
    ExperimentResult fp64_res = RunWith(cfg, ComputeBackend::kFp64, method);
    ExperimentResult fp32_res = RunWith(cfg, ComputeBackend::kFp32Simd, method);
    SCOPED_TRACE(MethodName(method));
    ExpectWithinTolerance(fp64_res.final_eval, fp32_res.final_eval);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, BackendToleranceEndToEnd,
                         ::testing::Values(BaseModel::kNcf,
                                           BaseModel::kLightGcn));

TEST(BackendEquivalence, Fp64IsUntouchedAfterFp32Runs) {
  // The default backend's bit-identity guarantee survives an fp32 run in
  // the same process: no process-global backend state remains, so
  // fp64 → fp32 → fp64 must reproduce the first fp64 run exactly.
  ExperimentConfig cfg = SmallConfig();
  ExperimentResult before =
      RunWith(cfg, ComputeBackend::kFp64, Method::kHeteFedRec);
  RunWith(cfg, ComputeBackend::kFp32Simd, Method::kHeteFedRec);
  ExperimentResult after =
      RunWith(cfg, ComputeBackend::kFp64, Method::kHeteFedRec);
  ExpectSameEval(before.final_eval, after.final_eval);
  EXPECT_EQ(before.collapse_variance, after.collapse_variance);
  EXPECT_EQ(before.collapse_cv, after.collapse_cv);
}

TEST(BackendEquivalence, AsyncFp32WithinToleranceUnderFaultsAndAdmission) {
  // The drift bound must hold through the robustness stack too: faults,
  // retry backoff and admission control all draw from hash streams that
  // see only fp64 uploads (deltas are upcast before the wire), so the
  // injected fault sequence is backend-independent and the metric drift
  // stays numeric.
  ExperimentConfig cfg = SmallConfig();
  cfg.async_mode = true;
  cfg.fault_upload_loss = 0.03;
  cfg.fault_corrupt = 0.03;
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;
  ExperimentResult fp64_res =
      RunWith(cfg, ComputeBackend::kFp64, Method::kHeteFedRec);
  ExperimentResult fp32_res =
      RunWith(cfg, ComputeBackend::kFp32Simd, Method::kHeteFedRec);
  ExpectWithinTolerance(fp64_res.final_eval, fp32_res.final_eval);
}

}  // namespace
}  // namespace hetefedrec
