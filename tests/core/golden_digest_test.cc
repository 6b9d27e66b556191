// Golden result digests: absolute, checked-in results for the paper's
// method grid, so refactors of the server or trainer are pinned against
// recorded numbers rather than against another implementation.
//
// Grid: the seven methods x Fed-NCF/Fed-LightGCN x sync/async on the fp64
// backend (Standalone has no server, so it runs sync only), plus four
// HeteFedRec fp32_simd cells. An fp64 cell records %.17g final overall and
// per-group NDCG/Recall, collapse variance, total transmitted scalars,
// simulated seconds and a 64-bit FNV-1a digest over the bit patterns of
// every table and Θ in the final server checkpoint; it must match the
// golden file exactly. An fp32_simd cell records metrics only and must
// stay within 1e-3 of the golden values (the fp32 backend contract).
//
// Scenario cells pin the branches the grid never takes: over-selection,
// faults with and without admission, async faults over delta downloads,
// fp32 evaluation variants, and Standalone on fp32 or the reference
// top-K. Their lines also record the 27 CommStats::ExportCounters()
// values (exact on every backend) and, with eval_every set, each history
// point's NDCG and mean train loss. Each runs at 1 and 2 threads against
// the same line.
//
// The golden file is tests/golden/results.txt. It is only ever rewritten
// on request:
//
//   HFR_UPDATE_GOLDEN=1 ./build/core_golden_digest_test
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/trainer.h"

namespace hetefedrec {
namespace {

struct Cell {
  BaseModel model;
  Method method;
  bool async;
  ComputeBackend backend;
  // Scenario cells only: a key suffix and the config changes it names.
  const char* scenario = nullptr;
  void (*tweak)(ExperimentConfig*) = nullptr;
};

std::vector<Cell> Grid() {
  std::vector<Cell> cells;
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    for (bool async : {false, true}) {
      for (Method method : kAllMethods) {
        if (async && method == Method::kStandalone) continue;
        cells.push_back({model, method, async, ComputeBackend::kFp64});
      }
    }
  }
  for (BaseModel model : {BaseModel::kNcf, BaseModel::kLightGcn}) {
    for (bool async : {false, true}) {
      cells.push_back(
          {model, Method::kHeteFedRec, async, ComputeBackend::kFp32Simd});
    }
  }
  return cells;
}

// Same shape as the sharding/async equivalence suites.
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

// Cell 2's fault mix plus admission; cell 4 reuses it on the async path.
void FaultsAndAdmission(ExperimentConfig* cfg) {
  cfg->fault_upload_loss = 0.05;
  cfg->fault_download_loss = 0.03;
  cfg->fault_crash = 0.02;
  cfg->fault_duplicate = 0.02;
  cfg->fault_corrupt = 0.05;
  cfg->admission_control = true;
  cfg->admit_max_row_norm = 1.0;
  cfg->admit_outlier_z = 6.0;
}

std::vector<Cell> Scenarios() {
  constexpr BaseModel kNcf = BaseModel::kNcf;
  constexpr Method kOurs = Method::kHeteFedRec;
  constexpr ComputeBackend kFp64 = ComputeBackend::kFp64;
  constexpr ComputeBackend kSimd = ComputeBackend::kFp32Simd;
  return {
      {kNcf, kOurs, false, kFp64, "overselect",
       [](ExperimentConfig* cfg) {
         cfg->straggler_slack = 4;
         cfg->round_deadline = 0.9;
         cfg->availability = 0.8;
         cfg->net_bandwidth_sigma = 1.0;
         cfg->net_latency_sigma = 0.3;
       }},
      {kNcf, kOurs, false, kFp64, "faults_admission", FaultsAndAdmission},
      {kNcf, kOurs, false, kFp64, "overselect_faults",
       [](ExperimentConfig* cfg) {
         cfg->fault_upload_loss = 0.05;
         cfg->fault_crash = 0.05;
         cfg->fault_duplicate = 0.05;
         cfg->fault_corrupt = 0.05;
         cfg->straggler_slack = 4;
         cfg->net_bandwidth_sigma = 1.0;
       }},
      {kNcf, kOurs, true, kFp64, "faults_admission_delta",
       [](ExperimentConfig* cfg) {
         FaultsAndAdmission(cfg);
         cfg->async_max_staleness = 16;
         cfg->full_downloads = false;
         cfg->availability = 0.8;
         cfg->net_bandwidth_sigma = 1.0;
         cfg->async_dispatch_batch = 8;
       }},
      {kNcf, kOurs, false, kSimd, "eval_every",
       [](ExperimentConfig* cfg) { cfg->eval_every = 1; }},
      {kNcf, Method::kClusteredFedRec, false, kSimd, "candidates",
       [](ExperimentConfig* cfg) { cfg->eval_candidate_sample = 50; }},
      {kNcf, Method::kStandalone, false, kSimd, "standalone",
       [](ExperimentConfig*) {}},
      {kNcf, Method::kStandalone, false, kFp64, "scalar_topk",
       [](ExperimentConfig* cfg) { cfg->use_batched_topk = false; }},
      {kNcf, kOurs, false, kSimd, "scalar_scoring",
       [](ExperimentConfig* cfg) { cfg->use_batched_scoring = false; }},
  };
}

std::string CellKey(const Cell& c) {
  return "[" + BaseModelName(c.model) + "|" + MethodName(c.method) + "|" +
         (c.async ? "async" : "sync") + "|" + ComputeBackendName(c.backend) +
         (c.scenario != nullptr ? std::string("|") + c.scenario : "") + "]";
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// 64-bit FNV-1a over the little-endian bytes of every double's bit pattern.
// Every NaN hashes as one canonical quiet NaN: which NaN's sign and payload
// an operation propagates depends on operand order, which the optimizer
// may change, so only a NaN's position is build-independent.
class Fnv1a {
 public:
  void Add(const Matrix& m) {
    for (double v : m.data()) {
      if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 8; ++b) {
        hash_ ^= (bits >> (8 * b)) & 0xffu;
        hash_ *= 0x100000001b3ULL;
      }
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Digest of every table and Θ in the checkpoint at `path`, or "none" when
// the run wrote no server checkpoint (Standalone).
std::string CheckpointDigest(const std::string& path) {
  if (!std::ifstream(path).good()) return "none";
  auto ckpt = LoadServerCheckpoint(path);
  EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  if (!ckpt.ok()) return "unreadable";
  Fnv1a h;
  for (size_t s = 0; s < ckpt->tables.size(); ++s) {
    h.Add(ckpt->tables[s]);
    const FeedForwardNet& theta = ckpt->thetas[s];
    for (size_t l = 0; l < theta.num_layers(); ++l) {
      h.Add(theta.weight(l));
      h.Add(theta.bias(l));
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.value()));
  return buf;
}

// Runs one cell and renders its golden line: the key, then space-separated
// name=value fields.
std::string RunCell(const Cell& c, size_t threads = 1) {
  const std::string ckpt = testing::TempDir() + "/golden_digest.ckpt";
  std::remove(ckpt.c_str());

  ExperimentConfig cfg = SmallConfig();
  cfg.base_model = c.model;
  cfg.async_mode = c.async;
  cfg.compute_backend = c.backend;
  cfg.num_threads = threads;
  if (c.tweak != nullptr) c.tweak(&cfg);
  const bool exact = c.backend == ComputeBackend::kFp64;
  if (exact) cfg.checkpoint_path = ckpt;
  auto runner = ExperimentRunner::Create(cfg);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  if (!runner.ok()) return CellKey(c) + " create_failed";
  const ExperimentResult r = (*runner)->Run(c.method);

  std::ostringstream os;
  os << CellKey(c) << " users=" << r.final_eval.overall.users
     << " ndcg=" << Fmt(r.final_eval.overall.ndcg)
     << " recall=" << Fmt(r.final_eval.overall.recall);
  for (int g = 0; g < kNumGroups; ++g) {
    os << " ndcg_g" << g << "=" << Fmt(r.final_eval.per_group[g].ndcg)
       << " recall_g" << g << "=" << Fmt(r.final_eval.per_group[g].recall);
  }
  if (exact) {
    os << " collapse_variance=" << Fmt(r.collapse_variance)
       << " transmitted=" << r.comm.TotalTransmitted()
       << " sim_s=" << Fmt(r.simulated_seconds)
       << " digest=" << CheckpointDigest(ckpt);
  }
  for (const EpochPoint& p : r.history) {
    os << " ndcg_e" << p.epoch << "=" << Fmt(p.eval.overall.ndcg)
       << " loss_e" << p.epoch << "=" << Fmt(p.mean_train_loss);
  }
  if (c.scenario != nullptr) {
    os << " comm=";
    const std::vector<uint64_t> counters = r.comm.ExportCounters();
    for (size_t i = 0; i < counters.size(); ++i) {
      os << (i ? "," : "") << counters[i];
    }
  }
  std::remove(ckpt.c_str());
  return os.str();
}

// Splits a golden line into its key and name -> value fields.
std::string LineKey(const std::string& line) {
  return line.substr(0, line.find(']') + 1);
}

std::map<std::string, std::string> LineFields(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::istringstream is(line.substr(line.find(']') + 1));
  std::string tok;
  while (is >> tok) {
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) fields[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return fields;
}

std::string GoldenPath() {
  std::string here = __FILE__;
  here = here.substr(0, here.find_last_of('/'));
  return here + "/../golden/results.txt";
}

bool UpdateRequested() {
  const char* update = std::getenv("HFR_UPDATE_GOLDEN");
  return update != nullptr && std::string(update) == "1";
}

std::map<std::string, std::string> LoadGolden() {
  std::ifstream in(GoldenPath());
  EXPECT_TRUE(in.good()) << "missing " << GoldenPath();
  std::map<std::string, std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden[LineKey(line)] = line;
  }
  EXPECT_EQ(golden.size(), Grid().size() + Scenarios().size())
      << "golden file and cells disagree; regenerate with HFR_UPDATE_GOLDEN=1";
  return golden;
}

// fp64 lines must match exactly. fp32 lines match field by field: the
// counters exactly, every metric within 1e-3.
void ExpectMatches(const Cell& c, const std::string& got,
                   const std::string& want_line) {
  if (c.backend == ComputeBackend::kFp64) {
    EXPECT_EQ(got, want_line);
    return;
  }
  const auto want = LineFields(want_line);
  const auto have = LineFields(got);
  ASSERT_EQ(want.size(), have.size());
  for (const auto& [name, value] : want) {
    ASSERT_EQ(have.count(name), 1u) << name;
    if (name == "comm") {
      EXPECT_EQ(have.at(name), value) << name;
      continue;
    }
    EXPECT_NEAR(std::strtod(have.at(name).c_str(), nullptr),
                std::strtod(value.c_str(), nullptr), 1e-3)
        << name;
  }
}

TEST(GoldenDigest, MethodGridMatchesRecordedResults) {
  const std::vector<Cell> cells = Grid();
  if (UpdateRequested()) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const Cell& c : cells) out << RunCell(c) << "\n";
    for (const Cell& c : Scenarios()) out << RunCell(c) << "\n";
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "rewrote " << GoldenPath();
  }

  const std::map<std::string, std::string> golden = LoadGolden();
  for (const Cell& c : cells) {
    const std::string key = CellKey(c);
    SCOPED_TRACE(key);
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden line";
    ExpectMatches(c, RunCell(c), it->second);
  }
}

TEST(GoldenDigest, ScenarioCellsMatchAtOneAndTwoThreads) {
  if (UpdateRequested()) {
    GTEST_SKIP() << "rewritten by MethodGridMatchesRecordedResults";
  }
  const std::map<std::string, std::string> golden = LoadGolden();
  for (const Cell& c : Scenarios()) {
    auto it = golden.find(CellKey(c));
    ASSERT_NE(it, golden.end()) << "no golden line for " << CellKey(c);
    for (size_t threads : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE(CellKey(c) + " threads=" + std::to_string(threads));
      ExpectMatches(c, RunCell(c, threads), it->second);
    }
  }
}

}  // namespace
}  // namespace hetefedrec
