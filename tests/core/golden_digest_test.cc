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

std::string CellKey(const Cell& c) {
  return "[" + BaseModelName(c.model) + "|" + MethodName(c.method) + "|" +
         (c.async ? "async" : "sync") + "|" + ComputeBackendName(c.backend) +
         "]";
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// 64-bit FNV-1a over the little-endian bytes of every double's bit pattern.
class Fnv1a {
 public:
  void Add(const Matrix& m) {
    for (double v : m.data()) {
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
std::string RunCell(const Cell& c) {
  const std::string ckpt = testing::TempDir() + "/golden_digest.ckpt";
  std::remove(ckpt.c_str());

  ExperimentConfig cfg = SmallConfig();
  cfg.base_model = c.model;
  cfg.async_mode = c.async;
  cfg.compute_backend = c.backend;
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

TEST(GoldenDigest, MethodGridMatchesRecordedResults) {
  const std::vector<Cell> cells = Grid();
  const char* update = std::getenv("HFR_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const Cell& c : cells) out << RunCell(c) << "\n";
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "rewrote " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath();
  std::map<std::string, std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden[LineKey(line)] = line;
  }
  ASSERT_EQ(golden.size(), cells.size())
      << "golden file and grid disagree; regenerate with HFR_UPDATE_GOLDEN=1";

  for (const Cell& c : cells) {
    const std::string key = CellKey(c);
    SCOPED_TRACE(key);
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden line";
    const std::string got = RunCell(c);
    if (c.backend == ComputeBackend::kFp64) {
      EXPECT_EQ(got, it->second);
      continue;
    }
    const auto want = LineFields(it->second);
    const auto have = LineFields(got);
    ASSERT_EQ(want.size(), have.size());
    for (const auto& [name, value] : want) {
      ASSERT_EQ(have.count(name), 1u) << name;
      EXPECT_NEAR(std::strtod(have.at(name).c_str(), nullptr),
                  std::strtod(value.c_str(), nullptr), 1e-3)
          << name;
    }
  }
}

}  // namespace
}  // namespace hetefedrec
