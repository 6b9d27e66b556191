// Telemetry bundle: the owner of a run's two output files, the JSONL
// metrics stream and the virtual-clock trace recorder.
//
// The federated executor owns one Telemetry when any of --metrics_out,
// --trace_out or --profile is set (and none otherwise — the null pointer is
// the telemetry-off fast path). All writes happen on the deterministic
// round/merge thread; see docs/OBSERVABILITY.md for the full determinism
// contract and the stream schema (meta / round / eval / summary / profile
// row types).
#ifndef HETEFEDREC_UTIL_TELEMETRY_TELEMETRY_H_
#define HETEFEDREC_UTIL_TELEMETRY_TELEMETRY_H_

#include <cstdio>
#include <memory>
#include <string>

#include "src/util/status.h"
#include "src/util/telemetry/json.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/trace.h"

namespace hetefedrec {

struct TelemetryOptions {
  std::string metrics_path;  // per-round JSONL stream ("" = off)
  std::string trace_path;    // Chrome trace JSON ("" = off)
  bool profile = false;      // RAII phase profiling
};

class Telemetry {
 public:
  /// Opens the metrics stream eagerly so a bad path fails at startup, not
  /// after a long run.
  static StatusOr<std::unique_ptr<Telemetry>> Create(
      const TelemetryOptions& options);

  ~Telemetry();

  bool metrics_on() const { return metrics_file_ != nullptr; }
  bool trace_on() const { return trace_ != nullptr; }

  /// Null when --trace_out is unset.
  TraceRecorder* trace() { return trace_.get(); }

  /// Writes one metrics row (a rendered JSON object) plus newline.
  /// No-op when the metrics stream is off.
  void WriteRow(const std::string& json);

  /// Flushes the metrics stream and writes the trace file. Safe to call
  /// more than once; the destructor calls it as a backstop.
  Status Flush();

 private:
  explicit Telemetry(const TelemetryOptions& options);

  TelemetryOptions options_;
  std::FILE* metrics_file_ = nullptr;
  bool trace_written_ = false;
  std::unique_ptr<TraceRecorder> trace_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_UTIL_TELEMETRY_TELEMETRY_H_
