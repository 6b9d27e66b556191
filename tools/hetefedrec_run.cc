// hetefedrec_run — run any single experiment from the command line.
//
//   ./build/tools/hetefedrec_run --method=hetefedrec --dataset=anime
//       --model=lightgcn --data_scale=0.06 --epochs=18 --alpha=1.0
//       --eval_every=2 --checkpoint=out.ckpt      (one line in the shell)
//
// Prints overall + per-group metrics, the convergence curve when
// --eval_every is set, communication totals, and the collapse diagnostic.
// A run cut by --stop_after_rounds prints a "stopped:" line in place of
// the final metrics and the collapse diagnostic, which it never computed.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/trainer.h"
#include "src/util/cli.h"
#include "src/util/table_printer.h"

namespace hetefedrec {
namespace {

// Splits "a,b,c" into exactly three comma-separated fields.
bool SplitTriple(const std::string& s, std::string fields[3]) {
  size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    const size_t comma = s.find(',', pos);
    if ((comma == std::string::npos) != (i == 2)) return false;
    fields[i] = s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma + 1;
  }
  return true;
}

// A width: decimal digits only (no sign, fraction or trailing junk).
bool ParseWidth(const std::string& field, size_t* out) {
  if (field.empty() || field.find_first_not_of("0123456789") != field.npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(field.c_str(), nullptr, 10);
  *out = static_cast<size_t>(v);
  return errno != ERANGE;
}

// A finite number that spans the whole field.
bool ParseNumber(const std::string& field, double* out) {
  if (field.empty() || std::isspace(static_cast<unsigned char>(field[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(field.c_str(), &end);
  return end == field.c_str() + field.size() && errno != ERANGE &&
         std::isfinite(*out);
}

int Main(int argc, char** argv) {
  CommandLine cli;
  cli.AddFlag("method", "hetefedrec",
              "all_small|all_large|all_large_exclusive|standalone|clustered|"
              "direct|hetefedrec");
  cli.AddFlag("dataset", "ml", "ml | anime | douban");
  cli.AddFlag("model", "ncf", "ncf | lightgcn");
  cli.AddFlag("data_scale", "0.06", "synthetic dataset scale in (0,1]");
  cli.AddFlag("dims", "8,16,32", "Ns,Nm,Nl embedding widths");
  cli.AddFlag("fractions", "5,3,2", "Us:Um:Ul division ratio");
  cli.AddFlag("epochs", "18", "global epochs");
  cli.AddFlag("local_epochs", "2", "local epochs per round");
  cli.AddFlag("clients_per_round", "64", "round size");
  cli.AddFlag("lr", "0.001", "Adam learning rate");
  cli.AddFlag("alpha", "1.0", "DDR weight");
  cli.AddFlag("udl", "true", "unified dual-task learning");
  cli.AddFlag("ddr", "true", "decorrelation regularization");
  cli.AddFlag("reskd", "true", "relation-based ensemble distillation");
  cli.AddFlag("validation", "0", "local validation fraction (paper: 0.1)");
  cli.AddFlag("eval_every", "0", "evaluate every n epochs (0 = final only)");
  cli.AddFlag("eval_users", "300", "evaluation user sample (0 = all)");
  cli.AddFlag("checkpoint", "", "write final server parameters here");
  // Everything an experiment run shares with the bench suite — execution
  // toggles, sync, network, async, faults, sharding, telemetry — comes from
  // the shared registry (src/util/cli.h) so the two flag sets cannot drift.
  RegisterExperimentFlags(&cli);

  Status st = cli.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 cli.Usage(argv[0]).c_str());
    return 1;
  }

  ExperimentConfig cfg;
  cfg.dataset = cli.GetString("dataset");
  cfg.data_scale = cli.GetDouble("data_scale");
  cfg.global_epochs = cli.GetInt("epochs");
  cfg.local_epochs = cli.GetInt("local_epochs");
  cfg.clients_per_round = static_cast<size_t>(cli.GetInt("clients_per_round"));
  cfg.lr = cli.GetDouble("lr");
  cfg.alpha = cli.GetDouble("alpha");
  cfg.unified_dual_task = cli.GetBool("udl");
  cfg.decorrelation = cli.GetBool("ddr");
  cfg.ensemble_distillation = cli.GetBool("reskd");
  cfg.local_validation_fraction = cli.GetDouble("validation");
  cfg.eval_every = cli.GetInt("eval_every");
  cfg.eval_user_sample = static_cast<size_t>(cli.GetInt("eval_users"));
  cfg.checkpoint_path = cli.GetString("checkpoint");
  st = ApplyExperimentFlags(cli, &cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  std::string fields[3];
  const std::string dims = cli.GetString("dims");
  if (!SplitTriple(dims, fields) || !ParseWidth(fields[0], &cfg.dims[0]) ||
      !ParseWidth(fields[1], &cfg.dims[1]) ||
      !ParseWidth(fields[2], &cfg.dims[2])) {
    std::fprintf(stderr,
                 "bad --dims=%s (expected Ns,Nm,Nl: three integer widths)\n",
                 dims.c_str());
    return 1;
  }
  const std::string fractions = cli.GetString("fractions");
  if (!SplitTriple(fractions, fields) ||
      !ParseNumber(fields[0], &cfg.group_fractions[0]) ||
      !ParseNumber(fields[1], &cfg.group_fractions[1]) ||
      !ParseNumber(fields[2], &cfg.group_fractions[2])) {
    std::fprintf(stderr,
                 "bad --fractions=%s (expected fs,fm,fl: three numbers)\n",
                 fractions.c_str());
    return 1;
  }

  auto model = BaseModelByName(cli.GetString("model"));
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  cfg.base_model = *model;
  auto method = MethodByName(cli.GetString("method"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 1;
  }

  auto runner = ExperimentRunner::Create(cfg);
  if (!runner.ok()) {
    std::fprintf(stderr, "%s\n", runner.status().ToString().c_str());
    return 1;
  }
  std::printf("%s | %s on %s: %zu users, %zu items, %zu interactions\n",
              MethodName(*method).c_str(), BaseModelName(*model).c_str(),
              cfg.dataset.c_str(), (*runner)->dataset().num_users(),
              (*runner)->dataset().num_items(),
              (*runner)->dataset().TotalInteractions());

  ExperimentResult r = (*runner)->Run(*method);
  for (const EpochPoint& p : r.history) {
    std::printf("epoch %3d  ndcg=%.5f recall=%.5f loss=%.4f simsec=%.1f\n",
                p.epoch, p.eval.overall.ndcg, p.eval.overall.recall,
                p.mean_train_loss, p.simulated_seconds);
  }
  if (r.stopped) {
    std::printf("\nstopped: --stop_after_rounds cut the run before its final "
                "evaluation\n");
  } else {
    std::printf(
        "\nfinal: Recall@20=%.5f NDCG@20=%.5f (Us %.5f | Um %.5f | Ul %.5f) "
        "over %zu users\n",
        r.final_eval.overall.recall, r.final_eval.overall.ndcg,
        r.final_eval.group(Group::kSmall).ndcg,
        r.final_eval.group(Group::kMedium).ndcg,
        r.final_eval.group(Group::kLarge).ndcg, r.final_eval.overall.users);
  }
  std::printf("comm: %s scalars transmitted total (%s MB on the wire)\n",
              TablePrinter::Count(
                  static_cast<long long>(r.comm.TotalTransmitted()))
                  .c_str(),
              TablePrinter::Num(
                  static_cast<double>(r.comm.TotalBytes()) / (1024.0 * 1024.0),
                  1)
                  .c_str());
  std::printf("comm per participation (down | up scalars): Us %.0f|%.0f  "
              "Um %.0f|%.0f  Ul %.0f|%.0f\n",
              r.comm.AvgDownload(Group::kSmall), r.comm.AvgUpload(Group::kSmall),
              r.comm.AvgDownload(Group::kMedium),
              r.comm.AvgUpload(Group::kMedium),
              r.comm.AvgDownload(Group::kLarge), r.comm.AvgUpload(Group::kLarge));
  if (!r.stopped) {
    std::printf("collapse: var=%.6f normalized=%.4f\n", r.collapse_variance,
                r.collapse_cv);
  }
  const FaultStats& fs = r.comm.faults();
  if (fs.TotalInjected() + fs.TotalRejected() + fs.rows_clipped +
          fs.quarantines + fs.retries + fs.gave_up + fs.nonfinite_grad_steps >
      0) {
    std::printf(
        "faults: down_lost=%zu up_lost=%zu crashed=%zu dup=%zu corrupt=%zu "
        "rej_nonfinite=%zu rej_outlier=%zu clipped=%zu quarantined=%zu "
        "retries=%zu gave_up=%zu nan_steps=%zu\n",
        fs.download_lost, fs.upload_lost, fs.crashed, fs.duplicates,
        fs.corrupted, fs.rejected_nonfinite, fs.rejected_outlier,
        fs.rows_clipped, fs.quarantines, fs.retries, fs.gave_up,
        fs.nonfinite_grad_steps);
  }
  const size_t dropped = r.comm.TotalDropped();
  std::printf("simulated time: %.1fs%s", r.simulated_seconds,
              dropped > 0 ? "" : "\n");
  if (dropped > 0) {
    std::printf("  (%zu over-stale arrivals dropped)\n", dropped);
  }
  std::printf("wall time: %.1fs\n", r.train_seconds);
  return 0;
}

}  // namespace
}  // namespace hetefedrec

int main(int argc, char** argv) { return hetefedrec::Main(argc, argv); }
