// bench_e2e's measurement: one workload, one seed, one mode per call.
//
// Measured mode times ExperimentRunner::Create and ExperimentRunner::Run
// from outside with util/Timer, untraced, at the workload's thread count,
// and reports the end-to-end metrics. Traced mode runs the workload at one
// thread, first untraced and then under the Profiler inside the bench's own
// "setup" and "run" scopes, times DDR in isolation, and reports the
// per-layer metrics; it also checks the result against a two-thread run.
// Both modes check their own outputs; README.md has the metric catalogue.
#ifndef HETEFEDREC_BENCH_E2E_MEASURE_H_
#define HETEFEDREC_BENCH_E2E_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/workloads.h"

namespace hetefedrec::bench::e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct MeasureOptions {
  /// Replaces ExperimentConfig::seed, so the seed picks the split, the
  /// initialisation and the client schedule.
  uint64_t seed = 7;
  /// Measured mode repeats set-up and Run (at least 3 times, after one
  /// warm-up) while the next repeat would end within this many seconds.
  double seconds = 10.0;
  bool trace = false;
};

struct Measurement {
  /// End-to-end metrics in measured mode, per-layer metrics in traced mode.
  std::vector<Metric> metrics;
  /// Client updates dispatched (Σ downloads) and those that never merged.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed check; empty when the run is correct.
  std::vector<std::string> check_failures;
  /// One-line JSON object: workload, reference setup, every metric, the
  /// phase profile (traced mode) and the checks.
  std::string report;

  bool correct() const { return check_failures.empty(); }
};

Measurement Measure(const Workload& workload, const MeasureOptions& options);

}  // namespace hetefedrec::bench::e2e

#endif  // HETEFEDREC_BENCH_E2E_MEASURE_H_
