#include "bench/common.h"

#include <cstdio>
#include <sstream>

#include "src/util/rng.h"

namespace hetefedrec::bench {

namespace {
// Salts the Random row's root seed away from the run's own streams.
constexpr uint64_t kRandomRowSalt = 0x52414e44;
}  // namespace

void AddCommonFlags(CommandLine* cli) {
  // Bench-suite flags; everything an experiment run understands (execution
  // toggles, sync, network, async, faults, sharding, telemetry) comes from
  // the shared registry so the bench suite and tools/hetefedrec_run can
  // never drift apart again.
  cli->AddFlag("scale", "bench", "scale preset: smoke | bench | paper");
  cli->AddFlag("dataset", "", "restrict to one dataset (ml|anime|douban)");
  cli->AddFlag("model", "", "restrict to one base model (ncf|lightgcn)");
  cli->AddFlag("epochs", "0", "override global epochs (0 = preset default)");
  cli->AddFlag("out_dir", ".", "directory for CSV output");
  RegisterExperimentFlags(cli);
}

StatusOr<ExperimentConfig> ConfigFromFlags(const CommandLine& cli) {
  ExperimentConfig cfg;

  // clients_per_round scales with the population: the paper selects 256 of
  // 6,040+ users per round (~4%), giving hundreds of aggregation rounds per
  // run. A shrunken population with round size 256 would collapse to a
  // couple of rounds per epoch and under-aggregate every method.
  const std::string scale = cli.GetString("scale");
  if (scale == "smoke") {
    cfg.data_scale = 0.02;
    cfg.global_epochs = 4;
    cfg.eval_user_sample = 150;
    cfg.ddr_sample_rows = 128;
    cfg.clients_per_round = 32;
  } else if (scale == "bench") {
    cfg.data_scale = 0.06;
    cfg.global_epochs = 18;
    cfg.eval_user_sample = 300;
    cfg.ddr_sample_rows = 256;
    cfg.clients_per_round = 64;
  } else if (scale == "paper") {
    cfg.data_scale = 1.0;
    cfg.global_epochs = 20;
    cfg.eval_user_sample = 0;
    cfg.ddr_sample_rows = 1024;
    cfg.clients_per_round = 256;
  } else {
    return Status::InvalidArgument("unknown --scale '" + scale + "'");
  }

  Status applied = ApplyExperimentFlags(cli, &cfg);
  if (!applied.ok()) return applied;

  int epochs = cli.GetInt("epochs");
  if (epochs > 0) cfg.global_epochs = epochs;
  return cfg;
}

void ApplyPaperDims(ExperimentConfig* config) {
  if (config->dataset == "douban") {
    config->dims = {32, 64, 128};
  } else {
    config->dims = {8, 16, 32};
  }
}

std::string CsvPath(const CommandLine& cli, const std::string& name) {
  return cli.GetString("out_dir") + "/" + name + ".csv";
}

std::vector<GridCase> EvaluationGrid(const CommandLine& cli) {
  const std::string only_model = cli.GetString("model");
  const std::string only_dataset = cli.GetString("dataset");
  std::vector<GridCase> grid;
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    if (!only_model.empty() &&
        !(only_model == "ncf" && model == BaseModel::kNcf) &&
        !(only_model == "lightgcn" && model == BaseModel::kLightGcn)) {
      continue;
    }
    for (const char* dataset : {"ml", "anime", "douban"}) {
      if (!only_dataset.empty() && only_dataset != dataset) continue;
      grid.push_back(GridCase{model, dataset});
    }
  }
  return grid;
}

int FailWith(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

ReferenceRows EvaluateReferenceRows(const ExperimentRunner& runner) {
  const Dataset& ds = runner.dataset();
  const Evaluator evaluator =
      MakeEvaluator(runner.config(), ds, runner.groups());
  // Training items only: Dataset::ItemPopularity also counts the held-out
  // test interactions, which would leak them into the ranking.
  std::vector<double> popularity(ds.num_items(), 0.0);
  for (UserId u = 0; u < static_cast<UserId>(ds.num_users()); ++u) {
    for (ItemId i : ds.TrainItems(u)) popularity[i] += 1.0;
  }
  ReferenceRows rows;
  rows.most_pop = evaluator.Evaluate(
      Evaluator::BatchScoreFn([&](UserId, size_t,
                                  const std::vector<ItemId>& ids, double* out) {
        for (size_t i = 0; i < ids.size(); ++i) out[i] = popularity[ids[i]];
      }),
      /*pool=*/nullptr);
  const Rng random_root(runner.config().seed ^ kRandomRowSalt);
  rows.random = evaluator.Evaluate(
      Evaluator::BatchScoreFn([&](UserId u, size_t,
                                  const std::vector<ItemId>& ids, double* out) {
        Rng rng = random_root.Fork(u);
        for (size_t i = 0; i < ids.size(); ++i) out[i] = rng.Uniform();
      }),
      /*pool=*/nullptr);
  return rows;
}

}  // namespace hetefedrec::bench
