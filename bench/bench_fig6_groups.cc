// Reproduces Fig. 6: NDCG@20 broken down by client group (Us / Um / Ul)
// for every method, dataset and base model.
//
// Paper shape: all methods score higher on Um/Ul than Us; "All Small" wins
// on Us while "All Large" wins on Ul (ML/Anime); HeteFedRec is best in
// every group. Each cell also prints the MostPop and Random reference rows
// (bench/common.h), which the shape checks leave out.
#include <cstdio>
#include <utility>

#include "bench/common.h"
#include "src/core/trainer.h"
#include "src/util/table_printer.h"

namespace hetefedrec::bench {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  AddCommonFlags(&cli);
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) return FailWith(st);
  auto base_cfg = ConfigFromFlags(cli);
  if (!base_cfg.ok()) return FailWith(base_cfg.status());

  TablePrinter table("Fig. 6: NDCG@20 per client group",
                     {"Model", "Dataset", "Method", "Us", "Um", "Ul"});

  int cells = 0, hete_best_in_all_groups = 0, groups_ordered = 0;
  for (const GridCase& cell : EvaluationGrid(cli)) {
    ExperimentConfig cfg = *base_cfg;
    cfg.base_model = cell.model;
    cfg.dataset = cell.dataset;
    ApplyPaperDims(&cfg);
    auto runner = ExperimentRunner::Create(cfg);
    if (!runner.ok()) return FailWith(runner.status());

    std::array<double, kNumGroups> best{};
    std::array<double, kNumGroups> hete{};
    for (Method m : kAllMethods) {
      std::fprintf(stderr, "[fig6] %s / %s / %s ...\n",
                   BaseModelName(cell.model).c_str(), cell.dataset.c_str(),
                   MethodName(m).c_str());
      GroupedEval eval = (*runner)->Run(m).final_eval;
      table.AddRow({BaseModelName(cell.model), cell.dataset, MethodName(m),
                    TablePrinter::Num(eval.group(Group::kSmall).ndcg),
                    TablePrinter::Num(eval.group(Group::kMedium).ndcg),
                    TablePrinter::Num(eval.group(Group::kLarge).ndcg)});
      for (int g = 0; g < kNumGroups; ++g) {
        best[g] = std::max(best[g], eval.per_group[g].ndcg);
        if (m == Method::kHeteFedRec) hete[g] = eval.per_group[g].ndcg;
      }
    }
    const ReferenceRows refs = EvaluateReferenceRows(**runner);
    for (const auto& [name, eval] :
         {std::pair<const char*, const GroupedEval&>{"MostPop", refs.most_pop},
          {"Random", refs.random}}) {
      table.AddRow({BaseModelName(cell.model), cell.dataset, name,
                    TablePrinter::Num(eval.group(Group::kSmall).ndcg),
                    TablePrinter::Num(eval.group(Group::kMedium).ndcg),
                    TablePrinter::Num(eval.group(Group::kLarge).ndcg)});
    }
    table.AddSeparator();

    cells++;
    bool all_groups = true;
    for (int g = 0; g < kNumGroups; ++g) {
      if (hete[g] < best[g]) all_groups = false;
    }
    hete_best_in_all_groups += all_groups;
    // Data-rich groups outscore Us for HeteFedRec (the paper's trend).
    groups_ordered +=
        (hete[0] <= hete[1] + 1e-9 || hete[0] <= hete[2] + 1e-9);
  }

  table.Print();
  st = table.WriteCsv(CsvPath(cli, "fig6_groups"));
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());

  std::printf(
      "\nShape checks:\n"
      "  HeteFedRec best in every group  : %d/%d cells (paper: all)\n"
      "  Um/Ul outscore Us for HeteFedRec: %d/%d cells (paper: all)\n",
      hete_best_in_all_groups, cells, groups_ordered, cells);
  return 0;
}

}  // namespace
}  // namespace hetefedrec::bench

int main(int argc, char** argv) { return hetefedrec::bench::Main(argc, argv); }
