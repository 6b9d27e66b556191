// Reproduces Table II: overall Recall@20 / NDCG@20 of HeteFedRec against
// the six baselines, on three datasets with both base models.
//
// Absolute values differ from the paper (synthetic data, reduced scale);
// the reproduction target is the *shape*: heterogeneous baselines fail,
// homogeneous baselines are mid-pack, HeteFedRec wins (see the shape-check
// summary printed at the end). Each cell also prints two non-personalised
// reference rows, MostPop and Random, ranked by the methods' evaluator.
#include <cstdio>
#include <map>
#include <utility>

#include "bench/common.h"
#include "src/core/trainer.h"
#include "src/util/table_printer.h"

namespace hetefedrec::bench {
namespace {

// Paper Table II reference values: {recall, ndcg} indexed by
// [model][dataset][method].
struct PaperCell {
  double recall, ndcg;
};
const std::map<std::string, PaperCell> kPaperTable2 = {
    {"ncf/ml/All Small", {0.02203, 0.04328}},
    {"ncf/ml/All Large", {0.02558, 0.04028}},
    {"ncf/ml/All Large/Exclusive", {0.00956, 0.01753}},
    {"ncf/ml/Standalone", {0.00615, 0.01108}},
    {"ncf/ml/Clustered FedRec", {0.01712, 0.02235}},
    {"ncf/ml/Directly Aggregate", {0.01177, 0.02207}},
    {"ncf/ml/HeteFedRec(Ours)", {0.02662, 0.04781}},
    {"ncf/anime/All Small", {0.04301, 0.04962}},
    {"ncf/anime/All Large", {0.02727, 0.04442}},
    {"ncf/anime/All Large/Exclusive", {0.01199, 0.02458}},
    {"ncf/anime/Standalone", {0.00279, 0.00411}},
    {"ncf/anime/Clustered FedRec", {0.01508, 0.01581}},
    {"ncf/anime/Directly Aggregate", {0.01903, 0.03151}},
    {"ncf/anime/HeteFedRec(Ours)", {0.05855, 0.05655}},
    {"ncf/douban/All Small", {0.00759, 0.01087}},
    {"ncf/douban/All Large", {0.00726, 0.00878}},
    {"ncf/douban/All Large/Exclusive", {0.00702, 0.00856}},
    {"ncf/douban/Standalone", {0.00209, 0.00295}},
    {"ncf/douban/Clustered FedRec", {0.00248, 0.00501}},
    {"ncf/douban/Directly Aggregate", {0.00247, 0.00502}},
    {"ncf/douban/HeteFedRec(Ours)", {0.01101, 0.01290}},
    {"lightgcn/ml/All Small", {0.02251, 0.04232}},
    {"lightgcn/ml/All Large", {0.02301, 0.04197}},
    {"lightgcn/ml/All Large/Exclusive", {0.00924, 0.01891}},
    {"lightgcn/ml/Standalone", {0.00605, 0.01085}},
    {"lightgcn/ml/Clustered FedRec", {0.01483, 0.02633}},
    {"lightgcn/ml/Directly Aggregate", {0.01454, 0.02657}},
    {"lightgcn/ml/HeteFedRec(Ours)", {0.02434, 0.04313}},
    {"lightgcn/anime/All Small", {0.02924, 0.04824}},
    {"lightgcn/anime/All Large", {0.02825, 0.04788}},
    {"lightgcn/anime/All Large/Exclusive", {0.01702, 0.01467}},
    {"lightgcn/anime/Standalone", {0.00278, 0.00411}},
    {"lightgcn/anime/Clustered FedRec", {0.01443, 0.01379}},
    {"lightgcn/anime/Directly Aggregate", {0.01450, 0.01437}},
    {"lightgcn/anime/HeteFedRec(Ours)", {0.03306, 0.05177}},
    {"lightgcn/douban/All Small", {0.00350, 0.00530}},
    {"lightgcn/douban/All Large", {0.00234, 0.00378}},
    {"lightgcn/douban/All Large/Exclusive", {0.00215, 0.00363}},
    {"lightgcn/douban/Standalone", {0.00190, 0.00263}},
    {"lightgcn/douban/Clustered FedRec", {0.00259, 0.00480}},
    {"lightgcn/douban/Directly Aggregate", {0.00257, 0.00479}},
    {"lightgcn/douban/HeteFedRec(Ours)", {0.00393, 0.00639}},
};

std::string ModelKey(BaseModel m) {
  return m == BaseModel::kNcf ? "ncf" : "lightgcn";
}

int Main(int argc, char** argv) {
  CommandLine cli;
  AddCommonFlags(&cli);
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) return FailWith(st);
  auto base_cfg = ConfigFromFlags(cli);
  if (!base_cfg.ok()) return FailWith(base_cfg.status());

  TablePrinter table(
      "Table II: overall performance (measured | paper reference)",
      {"Model", "Dataset", "Type", "Method", "Recall", "NDCG",
       "Recall(paper)", "NDCG(paper)"});

  // Shape checks accumulated across the grid.
  int hete_best_overall = 0, cells = 0;
  int hete_beats_homo = 0, standalone_worst = 0, hete_beats_most_pop = 0;

  for (const GridCase& cell : EvaluationGrid(cli)) {
    ExperimentConfig cfg = *base_cfg;
    cfg.base_model = cell.model;
    cfg.dataset = cell.dataset;
    ApplyPaperDims(&cfg);
    auto runner = ExperimentRunner::Create(cfg);
    if (!runner.ok()) return FailWith(runner.status());

    std::map<Method, GroupedEval> results;
    for (Method m : kAllMethods) {
      std::fprintf(stderr, "[table2] %s / %s / %s ...\n",
                   ModelKey(cell.model).c_str(), cell.dataset.c_str(),
                   MethodName(m).c_str());
      results[m] = (*runner)->Run(m).final_eval;
    }
    const ReferenceRows refs = EvaluateReferenceRows(**runner);

    for (Method m : kAllMethods) {
      std::string key =
          ModelKey(cell.model) + "/" + cell.dataset + "/" + MethodName(m);
      auto paper = kPaperTable2.find(key);
      table.AddRow({BaseModelName(cell.model), cell.dataset,
                    IsHeterogeneous(m) ? "Hetero" : "Homo", MethodName(m),
                    TablePrinter::Num(results[m].overall.recall),
                    TablePrinter::Num(results[m].overall.ndcg),
                    paper == kPaperTable2.end()
                        ? "-"
                        : TablePrinter::Num(paper->second.recall),
                    paper == kPaperTable2.end()
                        ? "-"
                        : TablePrinter::Num(paper->second.ndcg)});
    }
    for (const auto& [name, eval] :
         {std::pair<const char*, const GroupedEval&>{"MostPop", refs.most_pop},
          {"Random", refs.random}}) {
      table.AddRow({BaseModelName(cell.model), cell.dataset, "Ref", name,
                    TablePrinter::Num(eval.overall.recall),
                    TablePrinter::Num(eval.overall.ndcg), "-", "-"});
    }
    table.AddSeparator();

    // Shape checks for this cell.
    cells++;
    double hete = results[Method::kHeteFedRec].overall.ndcg;
    bool best = true;
    for (Method m : kAllMethods) {
      if (m != Method::kHeteFedRec && results[m].overall.ndcg >= hete) {
        best = false;
      }
    }
    hete_best_overall += best;
    hete_beats_homo +=
        (hete > results[Method::kAllSmall].overall.ndcg &&
         hete > results[Method::kAllLarge].overall.ndcg);
    double standalone = results[Method::kStandalone].overall.ndcg;
    bool worst_hetero =
        standalone <= results[Method::kClusteredFedRec].overall.ndcg &&
        standalone <= results[Method::kDirectlyAggregate].overall.ndcg;
    standalone_worst += worst_hetero;
    hete_beats_most_pop += hete > refs.most_pop.overall.ndcg;
  }

  table.Print();
  st = table.WriteCsv(CsvPath(cli, "table2_overall"));
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());

  std::printf(
      "\nShape checks (paper expectation in parentheses):\n"
      "  HeteFedRec best of all 7 methods : %d/%d cells (7/7 in paper)\n"
      "  HeteFedRec beats both homogeneous: %d/%d cells (6/6 in paper)\n"
      "  Standalone worst heterogeneous   : %d/%d cells (6/6 in paper)\n"
      "  HeteFedRec beats MostPop: %d/%d cells\n",
      hete_best_overall, cells, hete_beats_homo, cells, standalone_worst,
      cells, hete_beats_most_pop, cells);
  return 0;
}

}  // namespace
}  // namespace hetefedrec::bench

int main(int argc, char** argv) { return hetefedrec::bench::Main(argc, argv); }
