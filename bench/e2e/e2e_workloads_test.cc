// Self-test of the bench_e2e package: the workload table keeps its
// defining properties, BENCHMARK.json names what the code emits, and a
// tiny-epoch run of each mode emits every metric, finite and checked.
//
//   cmake --build .bench_build/bench_e2e && ctest --test-dir .bench_build/bench_e2e
#include <array>
#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/e2e/measure.h"
#include "bench/e2e/workloads.h"

namespace hetefedrec::bench::e2e {
namespace {

const Workload& Find(const std::vector<Workload>& all,
                     const std::string& name) {
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  ADD_FAILURE() << "no workload " << name;
  return all.front();
}

/// The "name" values of one top-level array of BENCHMARK.json, in order.
std::vector<std::string> BenchmarkJsonNames(const std::string& key) {
  std::ifstream in(HFR_E2E_BENCHMARK_JSON);
  EXPECT_TRUE(in.good()) << HFR_E2E_BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const size_t begin = text.find("\"" + key + "\"");
  EXPECT_NE(begin, std::string::npos) << key;
  if (begin == std::string::npos) return {};
  const std::string section =
      text.substr(begin, text.find(']', begin) - begin);
  static const std::regex kName("\"name\"\\s*:\\s*\"([^\"]+)\"");
  std::vector<std::string> names;
  for (std::sregex_iterator it(section.begin(), section.end(), kName), end;
       it != end; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

std::set<std::string> MetricNames(const Measurement& m) {
  std::set<std::string> names;
  for (const Metric& metric : m.metrics) names.insert(metric.name);
  return names;
}

/// A few-second version of a workload: same method and knobs, less data.
Workload Tiny(Workload w) {
  w.config.data_scale = 0.02;
  w.config.global_epochs = 1;
  w.config.clients_per_round = 16;
  return w;
}

TEST(E2eWorkloads, EveryWorkloadValidates) {
  for (const Workload& w : AllWorkloads()) {
    EXPECT_TRUE(w.config.Validate().ok()) << w.name;
  }
}

TEST(E2eWorkloads, NamesAreUniqueAndPlain) {
  static const std::regex kPlain("[A-Za-z0-9_.-]+");
  std::set<std::string> seen;
  for (const Workload& w : AllWorkloads()) {
    EXPECT_TRUE(std::regex_match(w.name, kPlain)) << w.name;
    EXPECT_TRUE(seen.insert(w.name).second) << "duplicate " << w.name;
  }
}

TEST(E2eWorkloads, EachKeepsItsDefiningProperty) {
  const std::vector<Workload> all = AllWorkloads();
  const Workload& all_small = Find(all, "allsmall-anime-curve");
  // All Small trains one homogeneous slot: no DDR and nothing to distil.
  EXPECT_EQ(all_small.method, Method::kAllSmall);
  EXPECT_EQ(all_small.config.eval_user_sample, 0u);
  EXPECT_EQ(all_small.config.eval_every, 1);

  const Workload& async_delta = Find(all, "hfr-anime-async-delta");
  EXPECT_EQ(async_delta.method, Method::kHeteFedRec);
  EXPECT_TRUE(async_delta.config.async_mode);
  EXPECT_FALSE(async_delta.config.full_downloads);
  EXPECT_EQ(async_delta.config.compute_backend, ComputeBackend::kFp32Simd);

  const Workload& douban = Find(all, "hfr-douban-wide");
  EXPECT_EQ(douban.method, Method::kHeteFedRec);
  EXPECT_EQ(douban.config.dataset, "douban");
  EXPECT_EQ(douban.config.dims, (std::array<size_t, 3>{32, 64, 128}));
  EXPECT_TRUE(douban.config.decorrelation);

  const Workload& ml = Find(all, "hfr-ml-ncf");
  EXPECT_EQ(ml.method, Method::kHeteFedRec);
  EXPECT_FALSE(ml.config.async_mode);
  EXPECT_TRUE(ml.config.full_downloads);
  EXPECT_EQ(ml.config.compute_backend, ComputeBackend::kFp64);

  for (const Workload& w : all) {
    EXPECT_EQ(w.config.num_threads, 1u) << w.name;
    EXPECT_TRUE(w.config.track_round_comm) << w.name;
    EXPECT_FALSE(w.config.profile) << w.name;
  }
}

TEST(E2eWorkloads, BenchmarkJsonListsTheWorkloadsInOrder) {
  std::vector<std::string> names;
  for (const Workload& w : AllWorkloads()) names.push_back(w.name);
  EXPECT_EQ(BenchmarkJsonNames("workloads"), names);
}

TEST(E2eWorkloads, TinyRunsEmitEveryMetricFiniteAndChecked) {
  const std::vector<std::string> end_to_end = BenchmarkJsonNames("end_to_end");
  const std::vector<std::string> per_layer = BenchmarkJsonNames("per_layer");
  ASSERT_FALSE(end_to_end.empty());
  ASSERT_FALSE(per_layer.empty());
  for (const Workload& full : AllWorkloads()) {
    const Workload w = Tiny(full);
    MeasureOptions options;
    options.seconds = 0.0;

    const Measurement measured = Measure(w, options);
    EXPECT_TRUE(measured.correct()) << w.name << " " << measured.report;
    EXPECT_GT(measured.attempted, 0u) << w.name;
    EXPECT_EQ(measured.failed, 0u) << w.name;
    const std::set<std::string> measured_names = MetricNames(measured);
    for (const std::string& name : end_to_end) {
      EXPECT_EQ(measured_names.count(name), 1u) << w.name << " " << name;
    }
    for (const Metric& metric : measured.metrics) {
      EXPECT_TRUE(std::isfinite(metric.value)) << w.name << " " << metric.name;
      EXPECT_GT(metric.value, 0.0) << w.name << " " << metric.name;
    }

    // Traced mode itself checks 1 vs 2 threads and traced vs untraced.
    options.trace = true;
    const Measurement traced = Measure(w, options);
    EXPECT_TRUE(traced.correct()) << w.name << " " << traced.report;
    const std::set<std::string> emitted = MetricNames(traced);
    for (const std::string& name : per_layer) {
      EXPECT_EQ(emitted.count(name), 1u) << w.name << " " << name;
    }
    for (const Metric& metric : traced.metrics) {
      EXPECT_TRUE(std::isfinite(metric.value)) << w.name << " " << metric.name;
    }
  }
}

TEST(E2eWorkloads, QualityMetricsMatchAtOneAndTwoThreads) {
  const Workload one = Tiny(HfrMlNcf());
  Workload two = one;
  two.config.num_threads = 2;
  MeasureOptions options;
  options.seconds = 0.0;
  const Measurement a = Measure(one, options);
  const Measurement b = Measure(two, options);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    const std::string& name = a.metrics[i].name;
    if (name == "ndcg_at_20" || name == "recall_at_20" ||
        name == "collapse_cv" || name == "wire_mb" || name == "sim_s") {
      EXPECT_EQ(a.metrics[i].value, b.metrics[i].value) << name;
    }
  }
}

}  // namespace
}  // namespace hetefedrec::bench::e2e
