// Top-K equivalence: `use_batched_topk` (on by default) ranks with the
// bounded heap of src/eval/topk.h, off with the session's partial_sort
// reference mode, and the two must be *bit-identical* across the full
// pipeline for all seven methods and both base models — in full-catalogue
// mode (the paper's protocol, block-streamed through the trainer and
// Standalone) and in candidate-sliced mode. Top-K selection only reads
// model parameters, so this pins the evaluation path itself: every
// per-epoch history point and the final grouped metrics. The suite also
// pins the block streamer on candidate slices longer than one stream block
// and the profile contract: one `score` and one `topk` scope per evaluated
// user.
//
// Registered under ctest as core_topk_equivalence_test — the CI smoke for
// the use_batched_topk toggle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/util/telemetry/profiler.h"
#include "tests/core/equivalence_test_util.h"

namespace hetefedrec {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 2;
  cfg.eval_every = 1;  // compare every epoch's evaluation, not just the last
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 91;
  return cfg;
}

class TopKEquivalenceEndToEnd : public ::testing::TestWithParam<BaseModel> {};

TEST_P(TopKEquivalenceEndToEnd, AllMethodsMatchPartialSortReference) {
  for (Method method : kAllMethods) {
    ExperimentConfig ref_cfg = SmallConfig();
    ref_cfg.base_model = GetParam();
    ref_cfg.use_batched_topk = false;
    ExperimentConfig batched_cfg = SmallConfig();
    batched_cfg.base_model = GetParam();
    batched_cfg.use_batched_topk = true;

    auto ref_runner = ExperimentRunner::Create(ref_cfg);
    auto batched_runner = ExperimentRunner::Create(batched_cfg);
    ASSERT_TRUE(ref_runner.ok());
    ASSERT_TRUE(batched_runner.ok());
    ExperimentResult ref_res = (*ref_runner)->Run(method);
    ExperimentResult batched_res = (*batched_runner)->Run(method);

    SCOPED_TRACE(MethodName(method));
    ExpectSameEval(ref_res.final_eval, batched_res.final_eval);
    ASSERT_EQ(ref_res.history.size(), batched_res.history.size());
    for (size_t i = 0; i < ref_res.history.size(); ++i) {
      ExpectSameEval(ref_res.history[i].eval, batched_res.history[i].eval);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, TopKEquivalenceEndToEnd,
                         ::testing::Values(BaseModel::kNcf,
                                           BaseModel::kLightGcn));

TEST(TopKEquivalence, CandidateModeSelectorMatchesReference) {
  // Candidate-sliced evaluation pushes each slice as an id list.
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    ExperimentConfig ref_cfg = SmallConfig();
    ref_cfg.base_model = model;
    ref_cfg.eval_candidate_sample = 256;
    ref_cfg.use_batched_topk = false;
    ExperimentConfig batched_cfg = ref_cfg;
    batched_cfg.use_batched_topk = true;

    auto ref_runner = ExperimentRunner::Create(ref_cfg);
    auto batched_runner = ExperimentRunner::Create(batched_cfg);
    ASSERT_TRUE(ref_runner.ok());
    ASSERT_TRUE(batched_runner.ok());
    SCOPED_TRACE(BaseModelName(model));
    ExpectSameEval((*ref_runner)->Run(Method::kHeteFedRec).final_eval,
                   (*batched_runner)->Run(Method::kHeteFedRec).final_eval);
  }
}

TEST(TopKEquivalence, ScalarScoringCombinesWithBatchedTopK) {
  // The two toggles are independent: per-sample reference scoring feeding
  // the streaming selector must still match the all-reference run.
  ExperimentConfig ref_cfg = SmallConfig();
  ref_cfg.use_batched_scoring = false;
  ref_cfg.use_batched_topk = false;
  ExperimentConfig mixed_cfg = SmallConfig();
  mixed_cfg.use_batched_scoring = false;
  mixed_cfg.use_batched_topk = true;

  auto ref_runner = ExperimentRunner::Create(ref_cfg);
  auto mixed_runner = ExperimentRunner::Create(mixed_cfg);
  ASSERT_TRUE(ref_runner.ok());
  ASSERT_TRUE(mixed_runner.ok());
  ExpectSameEval((*ref_runner)->Run(Method::kHeteFedRec).final_eval,
                 (*mixed_runner)->Run(Method::kHeteFedRec).final_eval);
}

TEST(TopKEquivalence, CandidateSlicesLongerThanOneStreamBlock) {
  // 1,500 candidates on a ~1,850-item catalogue: every slice spans two
  // 1,024-id stream blocks, so ScoreBatch (batched scoring) and per-item
  // Score (scalar) both score it in two calls per user and push two blocks.
  // The two scorings must agree bit for bit, under both top-K modes.
  ExperimentConfig cfg = SmallConfig();
  cfg.dataset = "douban";
  cfg.data_scale = 0.1;
  cfg.global_epochs = 1;
  cfg.eval_every = 0;
  cfg.eval_candidate_sample = 1500;
  auto probe = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(probe.ok());
  const Evaluator evaluator =
      MakeEvaluator(cfg, (*probe)->dataset(), (*probe)->groups());
  size_t longest = 0;
  for (UserId u : evaluator.eval_users()) {
    longest = std::max(longest, evaluator.CandidateItems(u).size());
  }
  ASSERT_GT(longest, 1024u);

  for (bool batched_topk : {true, false}) {
    SCOPED_TRACE(batched_topk ? "heap" : "reference");
    ExperimentConfig batched_cfg = cfg;
    batched_cfg.use_batched_topk = batched_topk;
    batched_cfg.use_batched_scoring = true;
    ExperimentConfig scalar_cfg = batched_cfg;
    scalar_cfg.use_batched_scoring = false;
    auto batched_runner = ExperimentRunner::Create(batched_cfg);
    auto scalar_runner = ExperimentRunner::Create(scalar_cfg);
    ASSERT_TRUE(batched_runner.ok());
    ASSERT_TRUE(scalar_runner.ok());
    const GroupedEval batched =
        (*batched_runner)->Run(Method::kAllSmall).final_eval;
    EXPECT_GT(batched.overall.users, 0u);
    ExpectSameEval(batched,
                   (*scalar_runner)->Run(Method::kAllSmall).final_eval);
  }
}

/// Calls recorded under profile scopes whose last path component is `name`.
uint64_t ScopeCalls(const std::vector<Profiler::PhaseStat>& stats,
                    const std::string& name) {
  uint64_t calls = 0;
  for (const Profiler::PhaseStat& s : stats) {
    const size_t slash = s.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? s.path : s.path.substr(slash + 1);
    if (leaf == name) calls += s.calls;
  }
  return calls;
}

TEST(TopKEquivalence, ScoreScopeEnteredOncePerEvaluatedUser) {
  // The profile contract the end-to-end benchmark reads eval.users from:
  // each evaluated user enters `score` exactly once (around the scoring
  // callback) and `topk` exactly once (around Finish), in all four modes —
  // full catalogue or candidate slice, heap or reference — for a federated
  // method and for Standalone.
  for (size_t candidates : {size_t{0}, size_t{50}}) {
    for (bool batched_topk : {true, false}) {
      for (Method method : {Method::kAllSmall, Method::kStandalone}) {
        SCOPED_TRACE(testing::Message()
                     << "candidates " << candidates << " batched_topk "
                     << batched_topk << " " << MethodName(method));
        ExperimentConfig cfg = SmallConfig();
        cfg.eval_candidate_sample = candidates;
        cfg.use_batched_topk = batched_topk;
        auto runner = ExperimentRunner::Create(cfg);
        ASSERT_TRUE(runner.ok());
        Profiler::Get().Reset();
        Profiler::Get().Enable(true);
        const ExperimentResult result = (*runner)->Run(method);
        const std::vector<Profiler::PhaseStat> stats =
            Profiler::Get().Collect();
        Profiler::Get().Enable(false);

        // One evaluation per epoch (eval_every = 1) for federated runs;
        // Standalone evaluates once, at the end.
        uint64_t evaluated = 0;
        if (method == Method::kStandalone) {
          evaluated = result.final_eval.overall.users;
        } else {
          for (const EpochPoint& p : result.history) {
            evaluated += p.eval.overall.users;
          }
        }
        EXPECT_GT(evaluated, 0u);
        EXPECT_EQ(ScopeCalls(stats, "score"), evaluated);
        EXPECT_EQ(ScopeCalls(stats, "topk"), evaluated);
        if (method == Method::kStandalone) {
          // Standalone trains each user inside the scoring callback, under
          // its own `train` scope, so `score`'s self time is the scoring.
          uint64_t nested_train = 0;
          for (const Profiler::PhaseStat& s : stats) {
            if (s.path == "score/train") nested_train += s.calls;
          }
          EXPECT_EQ(nested_train, evaluated);
          EXPECT_EQ(ScopeCalls(stats, "train"), evaluated);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hetefedrec
