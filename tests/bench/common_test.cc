#include "bench/common.h"

#include <gtest/gtest.h>

#include <vector>

namespace hetefedrec::bench {
namespace {

class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args) : args_(std::move(args)) {
    for (auto& a : args_) argv_.push_back(a.data());
  }
  int argc() { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

CommandLine ParsedCli(std::vector<std::string> args) {
  CommandLine cli;
  AddCommonFlags(&cli);
  args.insert(args.begin(), "prog");
  ArgvBuilder argv(args);
  EXPECT_TRUE(cli.Parse(argv.argc(), argv.argv()).ok());
  return cli;
}

TEST(BenchCommonTest, BenchPresetDefaults) {
  auto cfg = ConfigFromFlags(ParsedCli({}));
  ASSERT_TRUE(cfg.ok());
  EXPECT_DOUBLE_EQ(cfg->data_scale, 0.06);
  EXPECT_EQ(cfg->global_epochs, 18);
  EXPECT_EQ(cfg->clients_per_round, 64u);
  EXPECT_EQ(cfg->aggregation, AggregationMode::kMean);
}

TEST(BenchCommonTest, PaperPresetMatchesPaperProtocol) {
  auto cfg = ConfigFromFlags(ParsedCli({"--scale=paper"}));
  ASSERT_TRUE(cfg.ok());
  EXPECT_DOUBLE_EQ(cfg->data_scale, 1.0);
  EXPECT_EQ(cfg->global_epochs, 20);       // §V-F / Fig. 7
  EXPECT_EQ(cfg->clients_per_round, 256u); // §V-D
  EXPECT_EQ(cfg->eval_user_sample, 0u);    // evaluate everyone
}

TEST(BenchCommonTest, EpochOverrideApplies) {
  auto cfg = ConfigFromFlags(ParsedCli({"--epochs=5"}));
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->global_epochs, 5);
}

TEST(BenchCommonTest, AggregationFlagParsing) {
  EXPECT_EQ(ConfigFromFlags(ParsedCli({"--agg=sum"}))->aggregation,
            AggregationMode::kSum);
  EXPECT_EQ(ConfigFromFlags(ParsedCli({"--agg=weighted"}))->aggregation,
            AggregationMode::kDataWeighted);
  EXPECT_FALSE(ConfigFromFlags(ParsedCli({"--agg=median"})).ok());
}

TEST(BenchCommonTest, UnknownScaleRejected) {
  EXPECT_FALSE(ConfigFromFlags(ParsedCli({"--scale=huge"})).ok());
}

TEST(BenchCommonTest, GridCoversSixCells) {
  auto grid = EvaluationGrid(ParsedCli({}));
  EXPECT_EQ(grid.size(), 6u);
}

TEST(BenchCommonTest, GridFilters) {
  auto only_ncf = EvaluationGrid(ParsedCli({"--model=ncf"}));
  EXPECT_EQ(only_ncf.size(), 3u);
  for (const auto& cell : only_ncf) EXPECT_EQ(cell.model, BaseModel::kNcf);

  auto only_ml = EvaluationGrid(ParsedCli({"--dataset=ml"}));
  EXPECT_EQ(only_ml.size(), 2u);
  for (const auto& cell : only_ml) EXPECT_EQ(cell.dataset, "ml");

  auto one_cell =
      EvaluationGrid(ParsedCli({"--dataset=douban", "--model=lightgcn"}));
  ASSERT_EQ(one_cell.size(), 1u);
  EXPECT_EQ(one_cell[0].model, BaseModel::kLightGcn);
}

TEST(BenchCommonTest, PaperDimsPerDataset) {
  ExperimentConfig cfg;
  cfg.dataset = "douban";
  ApplyPaperDims(&cfg);
  EXPECT_EQ(cfg.dims, (std::array<size_t, 3>{32, 64, 128}));
  cfg.dataset = "ml";
  ApplyPaperDims(&cfg);
  EXPECT_EQ(cfg.dims, (std::array<size_t, 3>{8, 16, 32}));
}

TEST(BenchCommonTest, CsvPathJoinsOutDir) {
  EXPECT_EQ(CsvPath(ParsedCli({"--out_dir=/tmp/x"}), "t1"), "/tmp/x/t1.csv");
}

TEST(BenchCommonTest, ReferenceRowsRankTheMethodsUsers) {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.eval_user_sample = 60;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  const ReferenceRows rows = EvaluateReferenceRows(**runner);

  // Both rows rank every sampled user with a test item, as the methods do.
  const Evaluator evaluator =
      MakeEvaluator(cfg, (*runner)->dataset(), (*runner)->groups());
  size_t with_test = 0;
  for (UserId u : evaluator.eval_users()) {
    with_test += !(*runner)->dataset().TestItems(u).empty();
  }
  EXPECT_GT(with_test, 0u);
  EXPECT_EQ(rows.most_pop.overall.users, with_test);
  EXPECT_EQ(rows.random.overall.users, with_test);
  // Different scorers, different rankings.
  EXPECT_NE(rows.most_pop.overall.ndcg, rows.random.overall.ndcg);
}

}  // namespace
}  // namespace hetefedrec::bench
