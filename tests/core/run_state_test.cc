#include "src/core/run_state.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/math/init.h"

namespace hetefedrec {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  InitNormal(&m, 1.0, &rng);
  return m;
}

RngState AdvancedRng(uint64_t seed, int draws) {
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) rng.Uniform();
  return rng.SaveState();
}

void ExpectSameRng(const RngState& a, const RngState& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
  EXPECT_EQ(a.origin_seed, b.origin_seed);
  EXPECT_EQ(a.cached_normal, b.cached_normal);
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
}

RunState MakeState() {
  RunState st;
  st.fingerprint = 0xabcdef0123456789ULL;
  st.method = "hetefedrec";
  st.base_model = "ncf";
  st.next_epoch = 3;
  st.mid_epoch = 1;
  st.round_budget = 17;
  st.rounds_done = 42;
  st.dispatch_seq = 99;
  st.loss_sum = 1.25;
  st.loss_count = 11;
  st.sim_clock = 321.5;
  st.sched_rng = AdvancedRng(7, 13);
  st.kd_rng = AdvancedRng(8, 5);
  st.client_rngs = {AdvancedRng(9, 1), AdvancedRng(10, 2)};
  st.client_embeddings = {RandomMatrix(1, 8, 1), RandomMatrix(1, 16, 2)};
  st.server.tables = {RandomMatrix(5, 8, 3), RandomMatrix(5, 16, 4)};
  Rng trng(5);
  for (size_t w : {8u, 16u}) {  // one Θ per slot, like the trainer
    FeedForwardNet theta(2 * w, {4, 4});
    theta.InitXavier(&trng);
    st.server.thetas.push_back(std::move(theta));
  }
  st.server.version_round = 6;
  st.server.versions = {{1, 2, 3, 4, 5}, {0, 0, 6, 6, 6}};
  st.queue_pending = {1, 0};  // client ids, below the 2 clients
  st.async_clock = 77.25;
  st.async_next_seq = 12;
  st.async_merged = 10;
  st.async_dropped = 2;
  st.gate_state = {0, 3, 0x3ff0000000000000ULL, 1, 0, 0};
  st.admission_history = {{0.5, 0.75}, {}};
  for (uint64_t c = 0; c < kCommCounterWords; ++c) {
    st.comm_counters.push_back(c + 1);
  }
  EpochPoint p;
  p.epoch = 2;
  p.eval.overall.ndcg = 0.125;
  p.eval.overall.recall = 0.25;
  p.eval.overall.users = 60;
  p.eval.per_group[1].ndcg = 0.0625;
  p.mean_train_loss = 0.5;
  p.simulated_seconds = 300.0;
  st.history.push_back(p);
  ReplicaSnapshot r0;
  r0.slot_plus_one = 2;
  r0.rows = {3, 0, 4};
  r0.versions = {1, 5, 5};
  st.replicas = {r0, ReplicaSnapshot{}};
  return st;
}

TEST(RunStateTest, RoundTripsEveryField) {
  const std::string path = TempPath("run_state_rt.run");
  const RunState st = MakeState();
  ASSERT_TRUE(SaveRunState(path, st).ok());
  auto loaded = LoadRunState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RunState& b = *loaded;

  EXPECT_EQ(b.fingerprint, st.fingerprint);
  EXPECT_EQ(b.method, st.method);
  EXPECT_EQ(b.base_model, st.base_model);
  EXPECT_EQ(b.next_epoch, st.next_epoch);
  EXPECT_EQ(b.mid_epoch, st.mid_epoch);
  EXPECT_EQ(b.round_budget, st.round_budget);
  EXPECT_EQ(b.rounds_done, st.rounds_done);
  EXPECT_EQ(b.dispatch_seq, st.dispatch_seq);
  EXPECT_EQ(b.loss_sum, st.loss_sum);
  EXPECT_EQ(b.loss_count, st.loss_count);
  EXPECT_EQ(b.sim_clock, st.sim_clock);
  ExpectSameRng(b.sched_rng, st.sched_rng);
  ExpectSameRng(b.kd_rng, st.kd_rng);
  ASSERT_EQ(b.client_rngs.size(), st.client_rngs.size());
  for (size_t i = 0; i < st.client_rngs.size(); ++i) {
    ExpectSameRng(b.client_rngs[i], st.client_rngs[i]);
  }
  ASSERT_EQ(b.client_embeddings.size(), st.client_embeddings.size());
  for (size_t i = 0; i < st.client_embeddings.size(); ++i) {
    ASSERT_TRUE(b.client_embeddings[i].SameShape(st.client_embeddings[i]));
    for (size_t k = 0; k < st.client_embeddings[i].size(); ++k) {
      EXPECT_EQ(b.client_embeddings[i].data()[k],
                st.client_embeddings[i].data()[k]);
    }
  }
  const ServerSnapshot& bs = b.server;
  const ServerSnapshot& ss = st.server;
  ASSERT_EQ(bs.tables.size(), ss.tables.size());
  for (size_t i = 0; i < ss.tables.size(); ++i) {
    for (size_t k = 0; k < ss.tables[i].size(); ++k) {
      EXPECT_EQ(bs.tables[i].data()[k], ss.tables[i].data()[k]);
    }
  }
  ASSERT_EQ(bs.thetas.size(), ss.thetas.size());
  for (size_t l = 0; l < ss.thetas[0].num_layers(); ++l) {
    for (size_t k = 0; k < ss.thetas[0].weight(l).size(); ++k) {
      EXPECT_EQ(bs.thetas[0].weight(l).data()[k],
                ss.thetas[0].weight(l).data()[k]);
    }
  }
  EXPECT_EQ(bs.version_round, ss.version_round);
  EXPECT_EQ(bs.versions, ss.versions);
  EXPECT_EQ(b.queue_pending, st.queue_pending);
  EXPECT_EQ(b.async_clock, st.async_clock);
  EXPECT_EQ(b.async_next_seq, st.async_next_seq);
  EXPECT_EQ(b.async_merged, st.async_merged);
  EXPECT_EQ(b.async_dropped, st.async_dropped);
  EXPECT_EQ(b.gate_state, st.gate_state);
  EXPECT_EQ(b.admission_history, st.admission_history);
  EXPECT_EQ(b.comm_counters, st.comm_counters);
  ASSERT_EQ(b.history.size(), 1u);
  EXPECT_EQ(b.history[0].epoch, st.history[0].epoch);
  EXPECT_EQ(b.history[0].eval.overall.ndcg, st.history[0].eval.overall.ndcg);
  EXPECT_EQ(b.history[0].eval.overall.recall,
            st.history[0].eval.overall.recall);
  EXPECT_EQ(b.history[0].eval.overall.users,
            st.history[0].eval.overall.users);
  EXPECT_EQ(b.history[0].eval.per_group[1].ndcg,
            st.history[0].eval.per_group[1].ndcg);
  EXPECT_EQ(b.history[0].mean_train_loss, st.history[0].mean_train_loss);
  EXPECT_EQ(b.history[0].simulated_seconds,
            st.history[0].simulated_seconds);
  ASSERT_EQ(b.replicas.size(), 2u);
  EXPECT_EQ(b.replicas[0].slot_plus_one, 2u);
  EXPECT_EQ(b.replicas[0].rows, st.replicas[0].rows);
  EXPECT_EQ(b.replicas[0].versions, st.replicas[0].versions);
  EXPECT_EQ(b.replicas[1].slot_plus_one, 0u);
}

TEST(RunStateTest, AtomicSaveLeavesNoTempFile) {
  const std::string path = TempPath("run_state_atomic.run");
  ASSERT_TRUE(SaveRunState(path, MakeState()).ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // Overwriting an existing checkpoint also succeeds (rename semantics).
  ASSERT_TRUE(SaveRunState(path, MakeState()).ok());
  EXPECT_TRUE(LoadRunState(path).ok());
}

TEST(RunStateTest, MissingFileIsAnError) {
  EXPECT_FALSE(LoadRunState(TempPath("does_not_exist.run")).ok());
}

// Every proper prefix of a saved run state — a cut inside a record or at a
// record boundary alike — loads as an error, never as a shorter state.
TEST(RunStateTest, TruncatedFileIsAnError) {
  const std::string path = TempPath("run_state_trunc.run");
  ASSERT_TRUE(SaveRunState(path, MakeState()).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(n));
    out.close();
    EXPECT_FALSE(LoadRunState(path).ok()) << "prefix of " << n << " bytes";
  }
}

// The layout's checks hold on the writing side too: a state whose indices
// or block lengths LoadRun could not use is refused and nothing is written.
TEST(RunStateTest, SaveRefusesStatesThatBreakTheLayout) {
  const std::string path = TempPath("run_state_refused.run");
  std::remove(path.c_str());
  const std::vector<std::pair<std::string, void (*)(RunState*)>> edits = {
      {"queue client id",
       [](RunState* s) { s->queue_pending = {4, 1, 3}; }},
      {"next_epoch", [](RunState* s) { s->next_epoch = 0; }},
      {"embedding count",
       [](RunState* s) { s->client_embeddings.pop_back(); }},
      {"version stamp count",
       [](RunState* s) { s->server.versions[1].pop_back(); }},
      {"comm counters", [](RunState* s) { s->comm_counters.pop_back(); }},
      {"gate block", [](RunState* s) { s->gate_state.pop_back(); }},
      {"admission block",
       [](RunState* s) { s->admission_history.pop_back(); }},
      {"replica count", [](RunState* s) { s->replicas.pop_back(); }},
      {"replica slot", [](RunState* s) { s->replicas[0].slot_plus_one = 3; }},
      {"replica row", [](RunState* s) { s->replicas[0].rows[1] = 5; }},
      {"replica versions",
       [](RunState* s) { s->replicas[0].versions.pop_back(); }},
  };
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    RunState st = MakeState();
    edit(&st);
    const Status saved = SaveRunState(path, st);
    ASSERT_FALSE(saved.ok());
    EXPECT_NE(saved.message().find(what), std::string::npos)
        << saved.ToString();
    EXPECT_FALSE(std::ifstream(path).good());
  }
}

// A file of an older format is refused by its format number, not as a
// checksum mismatch (v2 files carry no trailer).
TEST(RunStateTest, OlderFormatIsRefusedByName) {
  const std::string path = TempPath("run_state_v2.run");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(WriteCheckpointHeader(&out).ok());
    ASSERT_TRUE(WriteMeta(&out, "kind", "run_state").ok());
    ASSERT_TRUE(WriteMeta(&out, "format", "2").ok());
    ASSERT_TRUE(WriteMeta(&out, "method", "hetefedrec").ok());
    ASSERT_TRUE(WriteEnd(&out).ok());
  }
  auto loaded = LoadRunState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("format 2"), std::string::npos)
      << loaded.status().ToString();
}

TEST(RunStateTest, GarbageHeaderIsAnError) {
  const std::string path = TempPath("run_state_garbage.run");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "not a checkpoint at all";
  out.close();
  EXPECT_FALSE(LoadRunState(path).ok());
}

TEST(RunStateTest, FingerprintCoversResultsAffectingKnobsOnly) {
  ExperimentConfig a;
  const uint64_t base = ConfigFingerprint(a, "hetefedrec");
  EXPECT_EQ(base, ConfigFingerprint(a, "hetefedrec"));
  EXPECT_NE(base, ConfigFingerprint(a, "all_small"));

  // Results-affecting knobs change the fingerprint...
  ExperimentConfig b = a;
  b.seed = 1234;
  EXPECT_NE(base, ConfigFingerprint(b, "hetefedrec"));
  b = a;
  b.fault_corrupt = 0.01;
  EXPECT_NE(base, ConfigFingerprint(b, "hetefedrec"));
  b = a;
  b.admission_control = true;
  EXPECT_NE(base, ConfigFingerprint(b, "hetefedrec"));

  // ...while IO/perf plumbing does not: the same run can resume under a
  // different thread count or checkpoint cadence.
  b = a;
  b.num_threads = 8;
  b.checkpoint_path = "/tmp/elsewhere.ckpt";
  b.checkpoint_every = 3;
  b.resume_run = true;
  b.debug_stop_after_rounds = 5;
  EXPECT_EQ(base, ConfigFingerprint(b, "hetefedrec"));
}

}  // namespace
}  // namespace hetefedrec
