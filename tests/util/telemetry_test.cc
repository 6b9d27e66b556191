#include "src/util/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/util/telemetry/json.h"
#include "src/util/telemetry/metrics.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/trace.h"

namespace hetefedrec {
namespace {

TEST(JsonTest, EscapesStrings) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonTest, IntegralDoublesPrintAsIntegers) {
  std::string out;
  AppendJsonNumber(&out, 42.0);
  EXPECT_EQ(out, "42");
  out.clear();
  AppendJsonNumber(&out, -3.0);
  EXPECT_EQ(out, "-3");
}

TEST(JsonTest, FractionalDoublesRoundTrip) {
  std::string out;
  AppendJsonNumber(&out, 0.5);
  EXPECT_EQ(std::stod(out), 0.5);
  out.clear();
  AppendJsonNumber(&out, 1.0 / 3.0);
  EXPECT_EQ(std::stod(out), 1.0 / 3.0);  // %.17g is round-trip exact
}

TEST(JsonTest, NonFiniteBecomesNull) {
  std::string out;
  AppendJsonNumber(&out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null");
  out.clear();
  AppendJsonNumber(&out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
}

TEST(JsonTest, ObjKeysStayInCallOrder) {
  JsonObj obj;
  const std::string json = obj.Str("b", "x").U64("a", 1).Bool("c", true)
                               .Raw("d", "[1,2]")
                               .Build();
  EXPECT_EQ(json, "{\"b\":\"x\",\"a\":1,\"c\":true,\"d\":[1,2]}");
}

TEST(HistogramTest, BucketsAndStats) {
  Histogram h({1.0, 5.0, 10.0});
  h.Observe(0.5);   // <= 1
  h.Observe(1.0);   // <= 1 (inclusive upper bound)
  h.Observe(3.0);   // (1, 5]
  h.Observe(100.0); // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.ToJson(),
            "{\"count\":4,\"sum\":104.5,\"min\":0.5,\"max\":100,"
            "\"buckets\":[2,1,0,1]}");
}

TEST(HistogramTest, EmptyRendersZeroStats) {
  EXPECT_EQ(Histogram({0.0, 1.0}).ToJson(),
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,"
            "\"buckets\":[0,0,0]}");
}

TEST(TraceRecorderTest, EmitsChromeTraceEvents) {
  TraceRecorder trace;
  trace.SetTrackName(0, "server");
  trace.Instant("merge", "server", 1.5, 0);
  JsonObj args;
  args.U64("user", 9);
  trace.Complete("transfer", "net", 1.0, 0.25, 1, args.Build());
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Simulated seconds scale to microseconds.
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"user\":9}"), std::string::npos);
  EXPECT_EQ(trace.size(), 2u);
}

TEST(TraceRecorderTest, WriteJsonFailsOnBadPath) {
  TraceRecorder trace;
  const Status st = trace.WriteJson("/nonexistent_dir_xyz/trace.json");
  EXPECT_FALSE(st.ok());
}

TEST(ProfilerTest, DisabledScopesRecordNothing) {
  Profiler::Get().Enable(false);
  Profiler::Get().Reset();
  { HFR_PROFILE("idle"); }
  EXPECT_TRUE(Profiler::Get().Collect().empty());
}

TEST(ProfilerTest, NestedScopesBuildAPathTree) {
  Profiler::Get().Reset();
  Profiler::Get().Enable(true);
  for (int i = 0; i < 3; ++i) {
    HFR_PROFILE("outer");
    {
      HFR_PROFILE("inner");
      // hfr-lint: allow(R4): test-only sleep so the profiler accumulates nonzero wall time; no result depends on it
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  Profiler::Get().Enable(false);
  const std::vector<Profiler::PhaseStat> stats = Profiler::Get().Collect();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].path, "outer");
  EXPECT_EQ(stats[0].depth, 0);
  EXPECT_EQ(stats[0].calls, 3u);
  EXPECT_EQ(stats[1].path, "outer/inner");
  EXPECT_EQ(stats[1].depth, 1);
  EXPECT_EQ(stats[1].calls, 3u);
  EXPECT_GE(stats[0].total_seconds, stats[1].total_seconds);
  EXPECT_GT(stats[1].total_seconds, 0.0);
  // Self time excludes the child scope.
  EXPECT_LE(stats[0].self_seconds, stats[0].total_seconds);
  const std::string table = Profiler::Render(stats);
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("inner"), std::string::npos);
  Profiler::Get().Reset();
}

TEST(ProfilerTest, MergesAcrossThreadsByPath) {
  Profiler::Get().Reset();
  Profiler::Get().Enable(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] { HFR_PROFILE("work"); });
  }
  for (auto& t : threads) t.join();
  Profiler::Get().Enable(false);
  const std::vector<Profiler::PhaseStat> stats = Profiler::Get().Collect();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].path, "work");
  EXPECT_EQ(stats[0].calls, 4u);
  Profiler::Get().Reset();
}

TEST(TelemetryTest, CreateFailsOnBadMetricsPath) {
  TelemetryOptions opt;
  opt.metrics_path = "/nonexistent_dir_xyz/metrics.jsonl";
  EXPECT_FALSE(Telemetry::Create(opt).ok());
}

TEST(TelemetryTest, WritesRowsAndTrace) {
  const std::string dir = ::testing::TempDir();
  TelemetryOptions opt;
  opt.metrics_path = dir + "/telemetry_test_metrics.jsonl";
  opt.trace_path = dir + "/telemetry_test_trace.json";
  auto tel = Telemetry::Create(opt);
  ASSERT_TRUE(tel.ok());
  EXPECT_TRUE((*tel)->metrics_on());
  ASSERT_TRUE((*tel)->trace_on());
  (*tel)->WriteRow("{\"type\":\"meta\"}");
  (*tel)->trace()->Instant("merge", "server", 1.0, 0);
  ASSERT_TRUE((*tel)->Flush().ok());

  std::FILE* f = std::fopen(opt.metrics_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  std::fclose(f);
  EXPECT_EQ(std::string(buf), "{\"type\":\"meta\"}\n");

  f = std::fopen(opt.trace_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string trace;
  char chunk[256];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    trace.append(chunk, n);
  }
  std::fclose(f);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"merge\""), std::string::npos);
  std::remove(opt.metrics_path.c_str());
  std::remove(opt.trace_path.c_str());
}

}  // namespace
}  // namespace hetefedrec
