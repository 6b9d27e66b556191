#include "src/core/config.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/cli.h"

namespace hetefedrec {
namespace {

TEST(ConfigTest, DefaultsValid) {
  ExperimentConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ShardCountValidation) {
  ExperimentConfig cfg;
  cfg.server_shards = 1;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.server_shards = 8;
  EXPECT_TRUE(cfg.Validate().ok());
  // A negative CLI value cast through size_t must be caught.
  cfg.server_shards = static_cast<size_t>(-2);
  EXPECT_FALSE(cfg.Validate().ok());
}

// The shared flag registry and its config application agree: parsing the
// registered flags and applying them sets exactly the shared fields, and
// the all-defaults application leaves a default config unchanged in every
// results-affecting way.
TEST(ConfigTest, ApplyExperimentFlagsMatchesRegistry) {
  CommandLine cli;
  RegisterExperimentFlags(&cli);
  std::vector<std::string> raw = {
      "prog",        "--server_shards=4", "--async",
      "--seed=99",   "--agg=sum",         "--threads=3",
      "--delta_downloads", "--fault_crash=0.05", "--admission",
      "--admit_outlier_z=3.5", "--wire_format=fp16",
      "--stop_after_rounds=12"};
  std::vector<char*> argv;
  for (auto& a : raw) argv.push_back(a.data());
  ASSERT_TRUE(cli.Parse(static_cast<int>(argv.size()), argv.data()).ok());

  ExperimentConfig cfg;
  ASSERT_TRUE(ApplyExperimentFlags(cli, &cfg).ok());
  EXPECT_EQ(cfg.server_shards, 4u);
  EXPECT_TRUE(cfg.async_mode);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.aggregation, AggregationMode::kSum);
  EXPECT_EQ(cfg.num_threads, 3u);
  EXPECT_FALSE(cfg.full_downloads);
  EXPECT_DOUBLE_EQ(cfg.fault_crash, 0.05);
  EXPECT_TRUE(cfg.admission_control);
  EXPECT_DOUBLE_EQ(cfg.admit_outlier_z, 3.5);
  EXPECT_EQ(cfg.wire_scalar_bytes, 2u);
  EXPECT_EQ(cfg.debug_stop_after_rounds, 12u);
  // Fields outside the registry are untouched.
  EXPECT_EQ(cfg.dataset, "ml");
  EXPECT_EQ(cfg.global_epochs, 20);
}

TEST(ConfigTest, ApplyExperimentFlagsDefaultsAreNeutral) {
  CommandLine cli;
  RegisterExperimentFlags(&cli);
  std::vector<std::string> raw = {"prog"};
  std::vector<char*> argv;
  for (auto& a : raw) argv.push_back(a.data());
  ASSERT_TRUE(cli.Parse(static_cast<int>(argv.size()), argv.data()).ok());

  ExperimentConfig cfg;
  ASSERT_TRUE(ApplyExperimentFlags(cli, &cfg).ok());
  const ExperimentConfig def;
  EXPECT_EQ(cfg.server_shards, def.server_shards);
  EXPECT_EQ(cfg.async_mode, def.async_mode);
  EXPECT_EQ(cfg.aggregation, def.aggregation);
  EXPECT_EQ(cfg.compute_backend, def.compute_backend);
  EXPECT_EQ(cfg.wire_scalar_bytes, def.wire_scalar_bytes);
  EXPECT_EQ(cfg.full_downloads, def.full_downloads);
  EXPECT_EQ(cfg.net_bandwidth, def.net_bandwidth);
  EXPECT_EQ(cfg.net_latency, def.net_latency);
  EXPECT_EQ(cfg.fault_retry_max, def.fault_retry_max);
  EXPECT_EQ(cfg.fault_quarantine_cap, def.fault_quarantine_cap);
  EXPECT_EQ(cfg.availability, def.availability);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, ApplyExperimentFlagsRejectsBadEnums) {
  for (const std::string& bad :
       {std::string("--agg=median"), std::string("--compute_backend=fp8"),
        std::string("--compute_backend=fp32"),
        std::string("--wire_format=fp8")}) {
    CommandLine cli;
    RegisterExperimentFlags(&cli);
    std::vector<std::string> raw = {"prog", bad};
    std::vector<char*> argv;
    for (auto& a : raw) argv.push_back(a.data());
    ASSERT_TRUE(cli.Parse(static_cast<int>(argv.size()), argv.data()).ok());
    ExperimentConfig cfg;
    EXPECT_FALSE(ApplyExperimentFlags(cli, &cfg).ok()) << bad;
  }
}

TEST(ConfigTest, DimOrderingEnforced) {
  ExperimentConfig cfg;
  cfg.dims = {16, 8, 32};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.dims = {0, 8, 16};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.dims = {8, 8, 8};  // equal widths leave multi-width methods no slots
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.dims = {8, 8, 32};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.dims = {8, 16, 16};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.dims = {8, 16, 32};
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, RangeChecks) {
  ExperimentConfig cfg;
  cfg.data_scale = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.global_epochs = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.lr = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.alpha = -1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.top_k = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.group_fractions = {0, 0, 0};
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.kd_items = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.ensemble_distillation = false;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, FaultRateChecks) {
  ExperimentConfig cfg;
  cfg.fault_upload_loss = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_corrupt = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  // Individually valid rates whose sum exceeds 1 must be rejected: they
  // partition a single uniform draw.
  cfg.fault_upload_loss = 0.4;
  cfg.fault_download_loss = 0.4;
  cfg.fault_crash = 0.4;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_upload_loss = 0.05;
  cfg.fault_corrupt = 0.01;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, BackoffChecks) {
  ExperimentConfig cfg;
  cfg.fault_retry_max = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_retry_base = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_retry_cap = 0.5;  // below the 1.0 base
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_quarantine_cap = 1.0;  // below the 5.0 base
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_jitter = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.fault_jitter = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, AdmissionChecks) {
  ExperimentConfig cfg;
  // admit_* thresholds are dead knobs without the controller — reject so a
  // typo'd run doesn't silently skip the gates it asked for.
  cfg.admit_max_row_norm = 1.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.admit_outlier_z = 3.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = {};
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;
  cfg.admit_outlier_z = 3.5;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.admit_outlier_z = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ConfigTest, CheckpointAndResumeChecks) {
  ExperimentConfig cfg;
  cfg.checkpoint_every = 5;
  EXPECT_FALSE(cfg.Validate().ok());  // needs checkpoint_path
  cfg.checkpoint_path = "/tmp/run.ckpt";
  EXPECT_TRUE(cfg.Validate().ok());
  cfg = {};
  cfg.resume_run = true;
  EXPECT_FALSE(cfg.Validate().ok());  // needs checkpoint_path
  cfg.checkpoint_path = "/tmp/run.ckpt";
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.sync_verify_replicas = true;
  EXPECT_FALSE(cfg.Validate().ok());  // verify cache is not serialized
}

TEST(ConfigTest, MethodNamesMatchTableTwo) {
  EXPECT_EQ(MethodName(Method::kAllSmall), "All Small");
  EXPECT_EQ(MethodName(Method::kAllLargeExclusive), "All Large/Exclusive");
  EXPECT_EQ(MethodName(Method::kHeteFedRec), "HeteFedRec(Ours)");
}

TEST(ConfigTest, MethodByNameRoundTrip) {
  EXPECT_EQ(MethodByName("all_small").value(), Method::kAllSmall);
  EXPECT_EQ(MethodByName("all_large").value(), Method::kAllLarge);
  EXPECT_EQ(MethodByName("all_large_exclusive").value(),
            Method::kAllLargeExclusive);
  EXPECT_EQ(MethodByName("standalone").value(), Method::kStandalone);
  EXPECT_EQ(MethodByName("clustered").value(), Method::kClusteredFedRec);
  EXPECT_EQ(MethodByName("direct").value(), Method::kDirectlyAggregate);
  EXPECT_EQ(MethodByName("hetefedrec").value(), Method::kHeteFedRec);
  EXPECT_FALSE(MethodByName("fedavg").ok());
}

TEST(ConfigTest, HeterogeneityClassification) {
  EXPECT_FALSE(IsHeterogeneous(Method::kAllSmall));
  EXPECT_FALSE(IsHeterogeneous(Method::kAllLarge));
  EXPECT_FALSE(IsHeterogeneous(Method::kAllLargeExclusive));
  EXPECT_TRUE(IsHeterogeneous(Method::kStandalone));
  EXPECT_TRUE(IsHeterogeneous(Method::kClusteredFedRec));
  EXPECT_TRUE(IsHeterogeneous(Method::kDirectlyAggregate));
  EXPECT_TRUE(IsHeterogeneous(Method::kHeteFedRec));
}

TEST(ConfigTest, AllMethodsListComplete) {
  EXPECT_EQ(kAllMethods.size(), 7u);
  EXPECT_EQ(kAllMethods.front(), Method::kAllSmall);
  EXPECT_EQ(kAllMethods.back(), Method::kHeteFedRec);
}

}  // namespace
}  // namespace hetefedrec
