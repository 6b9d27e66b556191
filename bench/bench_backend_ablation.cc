// fp32-vs-fp64 backend ablation: for every grid cell (base model ×
// dataset), runs HeteFedRec once per compute backend and tabulates the
// final metrics, the metric drift against the fp64 reference, and the
// wall-clock speedup. Expected shape: |ΔNDCG| and |ΔRecall| within the
// 1e-3 tolerance contract (tests/core/backend_equivalence_test.cc pins
// this at test scale), and fp32_simd faster than fp64 on AVX2+FMA
// hardware.
#include <cmath>
#include <cstdio>

#include "bench/common.h"
#include "src/core/trainer.h"
#include "src/math/backend.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

namespace hetefedrec::bench {
namespace {

constexpr ComputeBackend kBackends[] = {ComputeBackend::kFp64,
                                        ComputeBackend::kFp32Simd};

int Main(int argc, char** argv) {
  CommandLine cli;
  AddCommonFlags(&cli);
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) return FailWith(st);
  auto base_cfg = ConfigFromFlags(cli);
  if (!base_cfg.ok()) return FailWith(base_cfg.status());

  TablePrinter table("Backend ablation: fp32/SIMD vs the fp64 reference",
                     {"Model", "Dataset", "Backend", "Recall", "NDCG",
                      "dNDCG", "Seconds", "Speedup"});

  int cells = 0, within_tol = 0, simd_faster = 0;
  double max_drift = 0.0;
  for (const GridCase& cell : EvaluationGrid(cli)) {
    double fp64_ndcg = 0.0, fp64_recall = 0.0, fp64_seconds = 0.0;
    double simd_ndcg = 0.0, simd_seconds = 0.0;
    for (ComputeBackend backend : kBackends) {
      ExperimentConfig cfg = *base_cfg;
      cfg.base_model = cell.model;
      cfg.dataset = cell.dataset;
      ApplyPaperDims(&cfg);
      cfg.compute_backend = backend;
      auto runner = ExperimentRunner::Create(cfg);
      if (!runner.ok()) return FailWith(runner.status());
      std::fprintf(stderr, "[backend] %s / %s / %s ...\n",
                   BaseModelName(cell.model).c_str(), cell.dataset.c_str(),
                   ComputeBackendName(backend).c_str());
      const Timer timer;
      GroupedEval eval = (*runner)->Run(Method::kHeteFedRec).final_eval;
      const double seconds = timer.Seconds();
      const bool is_ref = backend == ComputeBackend::kFp64;
      if (is_ref) {
        fp64_ndcg = eval.overall.ndcg;
        fp64_recall = eval.overall.recall;
        fp64_seconds = seconds;
      } else {
        simd_ndcg = eval.overall.ndcg;
        simd_seconds = seconds;
      }
      const double drift = eval.overall.ndcg - fp64_ndcg;
      max_drift = std::max(
          max_drift, std::max(std::fabs(drift),
                              std::fabs(eval.overall.recall - fp64_recall)));
      table.AddRow({BaseModelName(cell.model), cell.dataset,
                    ComputeBackendName(backend),
                    TablePrinter::Num(eval.overall.recall),
                    TablePrinter::Num(eval.overall.ndcg),
                    is_ref ? "-" : TablePrinter::Num(drift),
                    TablePrinter::Num(seconds),
                    is_ref ? "1.00x"
                           : TablePrinter::Num(fp64_seconds / seconds) + "x"});
    }
    table.AddSeparator();

    cells++;
    within_tol += (std::fabs(simd_ndcg - fp64_ndcg) <= 1e-3);
    simd_faster += (simd_seconds <= fp64_seconds);
  }

  table.Print();
  st = table.WriteCsv(CsvPath(cli, "backend_ablation"));
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());

  std::printf(
      "\nShape checks:\n"
      "  fp32_simd within 1e-3 NDCG of fp64:  %d/%d cells (contract: all)\n"
      "  fp32_simd faster than fp64:         %d/%d cells (AVX2+FMA: all)\n"
      "  max |metric drift|:                  %.6f\n",
      within_tol, cells, simd_faster, cells, max_drift);
  return 0;
}

}  // namespace
}  // namespace hetefedrec::bench

int main(int argc, char** argv) { return hetefedrec::bench::Main(argc, argv); }
