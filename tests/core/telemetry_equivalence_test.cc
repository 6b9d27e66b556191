// Telemetry end to end: the observation layer must never perturb a run
// (telemetry-on is bit-identical to telemetry-off), its metrics stream and
// trace file must be a pure function of the config (seed- and thread-count
// deterministic, byte for byte), and the virtual-clock trace must be
// monotone in simulated time with the async drop/merge events present.
//
// Two shapes also pin the stream bytes against recorded FNV-1a-64 digests
// in tests/golden/telemetry.txt, which is only ever rewritten on request:
//
//   HFR_UPDATE_GOLDEN=1 ./build/core_telemetry_equivalence_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/trainer.h"
#include "tests/core/equivalence_test_util.h"

namespace hetefedrec {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 2;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  return cfg;
}

/// Straggler-heavy async shape: many clients in flight over a noisy
/// network with a tight staleness cap, so merges interleave with drops.
ExperimentConfig StragglerAsyncConfig() {
  ExperimentConfig cfg = SmallConfig();
  cfg.async_mode = true;
  cfg.clients_per_round = 8;
  cfg.async_inflight = 64;
  cfg.async_max_staleness = 4;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  return cfg;
}

ExperimentResult RunWith(const ExperimentConfig& cfg, Method method) {
  auto runner = ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  return (*runner)->Run(method);
}

void ExpectSameRun(const ExperimentResult& a, const ExperimentResult& b) {
  ExpectSameEval(a.final_eval, b.final_eval);
  EXPECT_EQ(a.comm.TotalTransmitted(), b.comm.TotalTransmitted());
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.comm.ExportCounters(), b.comm.ExportCounters());
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (!f) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Extracts the numeric value of `"key":<number>` from a JSON line, or
/// false when the key is absent.
bool FindNumber(const std::string& line, const std::string& key,
                double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

// The compiled-in hooks must be invisible when no flag is set AND when all
// of them are set: telemetry writes files but never touches an RNG stream,
// the virtual clock or any trained value.
TEST(TelemetryEquivalence, TelemetryOnIsBitIdenticalToOff) {
  for (bool async : {false, true}) {
    ExperimentConfig off = SmallConfig();
    off.async_mode = async;
    ExperimentConfig on = off;
    on.metrics_out = TempPath(async ? "tel_on_a.jsonl" : "tel_on_s.jsonl");
    on.trace_out = TempPath(async ? "tel_on_a.json" : "tel_on_s.json");
    on.profile = true;
    on.track_round_comm = true;

    ExperimentResult a = RunWith(off, Method::kHeteFedRec);
    ExperimentResult b = RunWith(on, Method::kHeteFedRec);
    SCOPED_TRACE(async ? "async" : "sync");
    ExpectSameRun(a, b);
    EXPECT_TRUE(a.round_comm.empty());
    EXPECT_FALSE(b.round_comm.empty());
    std::remove(on.metrics_out.c_str());
    std::remove(on.trace_out.c_str());
  }
}

// The streams themselves are deterministic: same config + seed => byte-equal
// files at 1 thread vs 4 threads, sync and async. (--profile is excluded:
// wall-clock profile rows are the one intentionally nondeterministic output.)
TEST(TelemetryEquivalence, StreamsAreThreadCountByteIdentical) {
  for (bool async : {false, true}) {
    ExperimentConfig cfg1 = SmallConfig();
    cfg1.async_mode = async;
    if (async) cfg1.async_dispatch_batch = 8;
    cfg1.metrics_out = TempPath("tel_t1.jsonl");
    cfg1.trace_out = TempPath("tel_t1.json");
    ExperimentConfig cfg4 = cfg1;
    cfg4.num_threads = 4;
    cfg4.metrics_out = TempPath("tel_t4.jsonl");
    cfg4.trace_out = TempPath("tel_t4.json");

    RunWith(cfg1, Method::kHeteFedRec);
    RunWith(cfg4, Method::kHeteFedRec);
    const std::string metrics1 = ReadFile(cfg1.metrics_out);
    const std::string metrics4 = ReadFile(cfg4.metrics_out);
    const std::string trace1 = ReadFile(cfg1.trace_out);
    const std::string trace4 = ReadFile(cfg4.trace_out);
    SCOPED_TRACE(async ? "async" : "sync");
    EXPECT_FALSE(metrics1.empty());
    EXPECT_FALSE(trace1.empty());
    EXPECT_EQ(metrics1, metrics4);
    EXPECT_EQ(trace1, trace4);

    // And seed-deterministic: a re-run reproduces the exact bytes.
    RunWith(cfg1, Method::kHeteFedRec);
    EXPECT_EQ(ReadFile(cfg1.metrics_out), metrics1);
    EXPECT_EQ(ReadFile(cfg1.trace_out), trace1);
    for (const std::string& p : {cfg1.metrics_out, cfg1.trace_out,
                                 cfg4.metrics_out, cfg4.trace_out}) {
      std::remove(p.c_str());
    }
  }
}

// The metrics stream has the documented JSONL shape: a meta header, then
// round rows with non-decreasing round index and virtual clock, then a
// summary whose totals match the run's own accounting.
TEST(TelemetryEquivalence, MetricsStreamShapeAndMonotonicity) {
  ExperimentConfig cfg = SmallConfig();
  cfg.eval_every = 1;
  cfg.metrics_out = TempPath("tel_shape.jsonl");
  const ExperimentResult r = RunWith(cfg, Method::kHeteFedRec);
  const std::vector<std::string> lines = Lines(ReadFile(cfg.metrics_out));
  ASSERT_GT(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"version\":1"), std::string::npos);

  double prev_round = 0.0, prev_clock = 0.0;
  size_t rounds = 0, evals = 0, summaries = 0;
  for (const std::string& line : lines) {
    double v = 0.0;
    if (line.find("\"type\":\"round\"") != std::string::npos) {
      ++rounds;
      ASSERT_TRUE(FindNumber(line, "round", &v));
      EXPECT_GT(v, prev_round);
      prev_round = v;
      ASSERT_TRUE(FindNumber(line, "clock", &v));
      EXPECT_GE(v, prev_clock);
      prev_clock = v;
    } else if (line.find("\"type\":\"eval\"") != std::string::npos) {
      ++evals;
    } else if (line.find("\"type\":\"summary\"") != std::string::npos) {
      ++summaries;
      ASSERT_TRUE(FindNumber(line, "total_scalars", &v));
      EXPECT_EQ(v, static_cast<double>(r.comm.TotalTransmitted()));
      ASSERT_TRUE(FindNumber(line, "clock", &v));
      EXPECT_EQ(v, r.simulated_seconds);
    }
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(evals, static_cast<size_t>(cfg.global_epochs));
  EXPECT_EQ(summaries, 1u);
  EXPECT_EQ(lines.back().find("\"type\":\"summary\""), 1u);
  std::remove(cfg.metrics_out.c_str());
}

// The straggler-heavy async trace: virtual-time monotone event stream with
// transfer, merge AND drop events (the staleness cap must actually bite).
TEST(TelemetryEquivalence, AsyncTraceIsMonotoneWithMergeAndDropEvents) {
  ExperimentConfig cfg = StragglerAsyncConfig();
  cfg.trace_out = TempPath("tel_straggler.json");
  const ExperimentResult r = RunWith(cfg, Method::kHeteFedRec);
  EXPECT_GT(r.comm.TotalDropped(), 0u);  // the cap bites at this shape

  const std::vector<std::string> lines = Lines(ReadFile(cfg.trace_out));
  ASSERT_GT(lines.size(), 2u);
  EXPECT_NE(lines.front().find("{\"traceEvents\":["), std::string::npos);

  double prev_ts = 0.0;
  size_t merges = 0, drops = 0, transfers = 0;
  for (const std::string& line : lines) {
    if (line.find("\"ph\":\"M\"") != std::string::npos) continue;
    double ts = 0.0;
    if (!FindNumber(line, "ts", &ts)) continue;
    EXPECT_GE(ts, prev_ts) << line;  // file order == virtual-time order
    prev_ts = ts;
    if (line.find("\"name\":\"merge\"") != std::string::npos) ++merges;
    if (line.find("\"name\":\"drop\"") != std::string::npos) ++drops;
    if (line.find("\"name\":\"transfer\"") != std::string::npos) ++transfers;
  }
  EXPECT_GT(merges, 0u);
  EXPECT_GT(transfers, 0u);
  EXPECT_EQ(drops, r.comm.TotalDropped());
  std::remove(cfg.trace_out.c_str());
}

// Sync traces are monotone too, and per-round comm tracking reconciles
// with the cumulative totals.
TEST(TelemetryEquivalence, SyncTraceMonotoneAndRoundCommReconciles) {
  ExperimentConfig cfg = SmallConfig();
  cfg.trace_out = TempPath("tel_sync.json");
  cfg.track_round_comm = true;
  cfg.net_bandwidth_sigma = 1.0;  // unequal client finish times
  const ExperimentResult r = RunWith(cfg, Method::kHeteFedRec);

  double prev_ts = 0.0;
  size_t round_events = 0;
  for (const std::string& line : Lines(ReadFile(cfg.trace_out))) {
    if (line.find("\"ph\":\"M\"") != std::string::npos) continue;
    double ts = 0.0;
    if (!FindNumber(line, "ts", &ts)) continue;
    EXPECT_GE(ts, prev_ts) << line;
    prev_ts = ts;
    if (line.find("\"name\":\"round\"") != std::string::npos) ++round_events;
  }
  EXPECT_GT(round_events, 0u);
  EXPECT_EQ(round_events, r.round_comm.size());

  size_t down_params = 0, up_params = 0, uploads = 0;
  for (const CommRound& round : r.round_comm) {
    down_params += round.DownParams();
    up_params += round.UpParams();
    uploads += round.Uploads();
  }
  EXPECT_EQ(down_params + up_params, r.comm.TotalTransmitted());
  size_t total_uploads = 0;
  for (Group g : {Group::kSmall, Group::kMedium, Group::kLarge}) {
    total_uploads += r.comm.Participations(g);
  }
  EXPECT_EQ(uploads, total_uploads);
  std::remove(cfg.trace_out.c_str());
}

// 64-bit FNV-1a over the bytes of `text`, as 16 hex digits.
std::string Fnv1aHex(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// The recorded shapes. Sync: the CI fault cocktail with admission over
/// delta downloads, evaluated every epoch, so the fault, admission, sync.*
/// and eval fields all move. Async: the straggler shape over delta
/// downloads, so drops, the staleness histogram and the replica hit rate
/// move. Neither runs the async schedule behind a backoff gate.
std::vector<std::pair<std::string, ExperimentConfig>> RecordedShapes() {
  ExperimentConfig sync = SmallConfig();
  sync.fault_upload_loss = 0.05;
  sync.fault_download_loss = 0.03;
  sync.fault_crash = 0.02;
  sync.fault_duplicate = 0.02;
  sync.fault_corrupt = 0.05;
  sync.admission_control = true;
  sync.admit_max_row_norm = 1.0;
  sync.admit_outlier_z = 6.0;
  sync.full_downloads = false;
  sync.eval_every = 1;
  ExperimentConfig async = StragglerAsyncConfig();
  async.full_downloads = false;
  return {{"sync_faults_admission_delta", sync},
          {"async_straggler_delta", async}};
}

std::string TelemetryGoldenPath() {
  std::string here = __FILE__;
  here = here.substr(0, here.find_last_of('/'));
  return here + "/../golden/telemetry.txt";
}

TEST(TelemetryEquivalence, StreamsMatchRecordedDigests) {
  std::vector<std::string> lines;
  for (auto& [name, cfg] : RecordedShapes()) {
    cfg.metrics_out = TempPath("tel_golden.jsonl");
    cfg.trace_out = TempPath("tel_golden.json");
    RunWith(cfg, Method::kHeteFedRec);
    lines.push_back("[" + name + "] metrics=" +
                    Fnv1aHex(ReadFile(cfg.metrics_out)) +
                    " trace=" + Fnv1aHex(ReadFile(cfg.trace_out)));
    std::remove(cfg.metrics_out.c_str());
    std::remove(cfg.trace_out.c_str());
  }
  const char* update = std::getenv("HFR_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(TelemetryGoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << TelemetryGoldenPath();
    for (const std::string& line : lines) out << line << "\n";
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "rewrote " << TelemetryGoldenPath();
  }
  const std::vector<std::string> golden =
      Lines(ReadFile(TelemetryGoldenPath()));
  EXPECT_EQ(lines, golden)
      << "stream bytes moved; regenerate with HFR_UPDATE_GOLDEN=1 only if "
         "the change is meant to alter the metrics or trace stream";
}

}  // namespace
}  // namespace hetefedrec
