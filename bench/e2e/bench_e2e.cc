// bench_e2e: runs one named workload (bench/e2e/workloads.h) for one seed
// and prints two JSON lines on stdout: the full report (reference setup,
// samples, profile, checks), then the result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every metric as {"value": v, "unit": u}. Exits 1 when a check fails.
//
//   bench_e2e --workload=hfr-ml-ncf --seed=7 --seconds=10          # measured
//   bench_e2e --workload=hfr-ml-ncf --seed=7 --trace               # traced
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/e2e/measure.h"
#include "src/util/cli.h"
#include "src/util/telemetry/json.h"

namespace {

using hetefedrec::CommandLine;
using hetefedrec::JsonObj;
using hetefedrec::bench::e2e::AllWorkloads;
using hetefedrec::bench::e2e::Measure;
using hetefedrec::bench::e2e::Measurement;
using hetefedrec::bench::e2e::MeasureOptions;
using hetefedrec::bench::e2e::Metric;
using hetefedrec::bench::e2e::Workload;

int Usage(const std::string& error, const CommandLine& cli) {
  std::fprintf(stderr, "bench_e2e: %s\n%s", error.c_str(),
               cli.Usage("bench_e2e").c_str());
  std::fprintf(stderr, "workloads:");
  for (const Workload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli;
  cli.AddFlag("workload", "", "workload name");
  cli.AddFlag("seed", "7", "experiment seed (ExperimentConfig::seed)");
  cli.AddFlag("seconds", "10",
              "measured mode: repeat set-up and Run for this many seconds");
  cli.AddFlag("trace", "false",
              "traced mode: one thread, profiled, per-layer metrics");
  const hetefedrec::Status parsed = cli.Parse(argc, argv);
  if (!parsed.ok()) return Usage(parsed.ToString(), cli);

  const std::string name = cli.GetString("workload");
  const Workload* workload = nullptr;
  const std::vector<Workload> workloads = AllWorkloads();
  for (const Workload& w : workloads) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload '" + name + "'", cli);

  MeasureOptions options;
  const std::string seed = cli.GetString("seed");
  const std::string seconds = cli.GetString("seconds");
  char* end = nullptr;
  errno = 0;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0' || errno != 0 || seed[0] == '-') {
    return Usage("--seed must be a non-negative integer", cli);
  }
  options.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(options.seconds >= 0.0)) {
    return Usage("--seconds must be a non-negative number", cli);
  }
  options.trace = cli.GetBool("trace");

  const Measurement m = Measure(*workload, options);
  JsonObj metrics;
  for (const Metric& metric : m.metrics) {
    JsonObj value;
    value.Num("value", metric.value).Str("unit", metric.unit);
    metrics.Raw(metric.name.c_str(), value.Build());
  }
  JsonObj result;
  result.Bool("correct", m.correct())
      .U64("attempted", m.attempted)
      .U64("failed", m.failed)
      .Raw("metrics", metrics.Build());
  std::printf("%s\n%s\n", m.report.c_str(), result.Build().c_str());
  for (const std::string& failure : m.check_failures) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", failure.c_str());
  }
  return m.correct() ? 0 : 1;
}
