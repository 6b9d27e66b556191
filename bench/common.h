// Shared plumbing for the experiment bench binaries: the scale presets,
// common flags, and paper-reference constants for side-by-side reporting.
#ifndef HETEFEDREC_BENCH_COMMON_H_
#define HETEFEDREC_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer.h"
#include "src/util/cli.h"

namespace hetefedrec::bench {

/// Registers the flags every experiment bench shares.
void AddCommonFlags(CommandLine* cli);

/// Builds an ExperimentConfig from parsed common flags. The `--scale`
/// presets trade fidelity for runtime:
///   smoke: seconds (CI sanity),
///   bench: minutes on one core (default; shapes comparable to the paper),
///   paper: Table I dataset sizes and the paper's epoch counts.
StatusOr<ExperimentConfig> ConfigFromFlags(const CommandLine& cli);

/// Applies the per-dataset paper dimensions: {8,16,32} for ml/anime,
/// {32,64,128} for douban (§V-D). No bench takes a --dims flag; a bench
/// that sweeps widths (Table VII) sets cfg.dims after this call.
void ApplyPaperDims(ExperimentConfig* config);

/// Output path helper: "<out_dir>/<name>.csv" (out_dir from flags).
std::string CsvPath(const CommandLine& cli, const std::string& name);

/// One (base model, dataset) cell of the paper's evaluation grid.
struct GridCase {
  BaseModel model;
  std::string dataset;
};

/// The six (model × dataset) cells of Table II, filtered by the --model and
/// --dataset flags when set.
std::vector<GridCase> EvaluationGrid(const CommandLine& cli);

/// Non-personalised reference rows, scored through the evaluator the
/// methods use (MakeEvaluator), so they rank the same users with the same
/// masking. MostPop ranks items by how many users hold them among their
/// training items; Random scores each item with a uniform draw from a
/// per-user fork of one seeded Rng, so a user's draws do not depend on
/// which users are ranked before it. Both rows are scored serially.
struct ReferenceRows {
  GroupedEval most_pop;
  GroupedEval random;
};
ReferenceRows EvaluateReferenceRows(const ExperimentRunner& runner);

/// Parses a CLI status into an exit code, printing the error.
int FailWith(const Status& status);

}  // namespace hetefedrec::bench

#endif  // HETEFEDREC_BENCH_COMMON_H_
