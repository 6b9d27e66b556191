// Crash-consistent run checkpoints (HFR1 run-state format v3).
//
// A `RunState` captures everything a federated run needs to continue
// bit-identically after a kill: server tables and Θ heads, version stamps,
// client replicas, the scheduler queue, every RNG stream position, both
// virtual clocks, the comm/fault counters and the metric history so far.
// `SaveRunState` writes it atomically with a checksum trailer
// (WriteCheckedFile), so a crash mid-write never clobbers the previous good
// checkpoint and a damaged file never loads.
//
// The config fingerprint guards against resuming under a different
// experiment: any results-affecting knob change invalidates the file.
// See docs/ROBUSTNESS.md ("Crash-consistent resume") for the format.
#ifndef HETEFEDREC_CORE_RUN_STATE_H_
#define HETEFEDREC_CORE_RUN_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer.h"
#include "src/fed/comm.h"
#include "src/fed/shard/sharded_server.h"
#include "src/math/matrix.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace hetefedrec {

/// Run-state format version. v3 added the checksum trailer and dropped the
/// per-slot version floors; older files are refused.
inline constexpr uint64_t kRunStateFormat = 3;

/// Per-client delta-sync replica snapshot: held rows in ClientReplica's
/// export order (coldest first when capped, so a restore replays the LRU
/// recency order exactly; ascending when uncapped).
struct ReplicaSnapshot {
  uint64_t slot_plus_one = 0;  ///< 0 = never synced (kNoSlot)
  std::vector<uint64_t> rows;      ///< row index, in export order
  std::vector<uint64_t> versions;  ///< aligned with `rows`
};

struct RunState {
  // --- identity guards -------------------------------------------------
  uint64_t fingerprint = 0;  ///< ConfigFingerprint of the writing run
  std::string method;        ///< short method name ("hetefedrec", ...)
  std::string base_model;    ///< "ncf" | "lightgcn"

  // --- run position ----------------------------------------------------
  int next_epoch = 1;        ///< epoch to (re-)enter on resume, 1-based
  bool mid_epoch = false;    ///< taken between rounds inside an epoch
  uint64_t round_budget = 0;     ///< remaining sync-epoch round budget
  uint64_t rounds_done = 0;      ///< completed rounds/merges, run-global
  uint64_t dispatch_seq = 0;     ///< async dispatch counter
  double loss_sum = 0.0;         ///< epoch train-loss accumulator
  uint64_t loss_count = 0;
  double sim_clock = 0.0;        ///< sync virtual clock

  // --- RNG stream positions --------------------------------------------
  RngState sched_rng;
  RngState kd_rng;
  std::vector<RngState> client_rngs;

  // --- client private state --------------------------------------------
  std::vector<Matrix> client_embeddings;  ///< 1 x width each

  // --- server public state ---------------------------------------------
  ServerSnapshot server;  ///< tables, Θ heads and version stamps

  // --- scheduler / aggregator ------------------------------------------
  std::vector<uint64_t> queue_pending;  ///< head..tail of the epoch queue
  double async_clock = 0.0;
  uint64_t async_next_seq = 0;
  uint64_t async_merged = 0;
  uint64_t async_dropped = 0;

  // --- robustness layer -------------------------------------------------
  std::vector<uint64_t> gate_state;  ///< ClientGate::Export (may be empty)
  std::vector<std::vector<double>> admission_history;  ///< per slot

  // --- accounting -------------------------------------------------------
  std::vector<uint64_t> comm_counters;  ///< CommStats::ExportCounters
  std::vector<EpochPoint> history;

  // --- delta-sync replicas ----------------------------------------------
  std::vector<ReplicaSnapshot> replicas;  ///< per client, or none
};

/// Stable hash of every results-affecting config field (excludes IO/perf
/// plumbing: num_threads, checkpoint/resume knobs, the kill hook). Two
/// configs with equal fingerprints produce bit-identical runs.
uint64_t ConfigFingerprint(const ExperimentConfig& config,
                           const std::string& method_name);

/// Writes `state` to `path` atomically (tmp + rename) with a checksum
/// trailer. Fails, writing nothing, when `state` breaks a RunStateLayout
/// check.
Status SaveRunState(const std::string& path, const RunState& state);

/// Loads a run state written by SaveRunState. A state it returns passes
/// every RunStateLayout check.
StatusOr<RunState> LoadRunState(const std::string& path);

/// \brief The run-state body in file order: the one description of its
/// layout, which SaveRunState runs with a writer over a `const RunState`
/// and LoadRunState with a reader filling a fresh one (run_state.cc).
///
/// `Field` moves one value as one word (doubles as bit patterns; the
/// reader refuses a word its field cannot hold), `Size` a vector's length
/// (the reader resizes to it), `Row` a 1 x width embedding, and `Check`
/// states an invariant both sides enforce. The server tables precede the
/// body in the file, so the checks bound every index LoadRun uses: queue
/// ids, replica slots and rows, and the length of every block LoadRun
/// hands to a restore.
template <class Io, class State>
void RunStateLayout(Io& io, State& s) {
  const uint64_t slots = s.server.tables.size();
  const uint64_t rows = s.server.tables[0].rows();
  auto rng = [&io](auto& r) {
    for (auto& word : r.s) io.Field(word);
    io.Field(r.origin_seed);
    io.Field(r.cached_normal);
    io.Field(r.has_cached_normal);
  };
  auto eval = [&io](auto& e) {
    io.Field(e.recall);
    io.Field(e.ndcg);
    io.Field(e.users);
  };

  io.Field(s.fingerprint);
  io.Field(s.next_epoch);
  io.Check(s.next_epoch >= 1, "next_epoch");
  io.Field(s.mid_epoch);
  io.Field(s.round_budget);
  io.Field(s.rounds_done);
  io.Field(s.dispatch_seq);
  io.Field(s.loss_sum);
  io.Field(s.loss_count);
  io.Field(s.sim_clock);
  io.Field(s.async_clock);
  io.Field(s.async_next_seq);
  io.Field(s.async_merged);
  io.Field(s.async_dropped);
  rng(s.sched_rng);
  rng(s.kd_rng);

  const uint64_t clients = io.Size(s.client_rngs);
  io.Check(clients > 0, "client count");
  for (auto& r : s.client_rngs) rng(r);
  io.Check(io.Size(s.client_embeddings) == clients, "embedding count");
  for (auto& e : s.client_embeddings) io.Row(e);

  io.Field(s.server.version_round);
  io.Check(io.Size(s.server.versions) == slots, "version slot count");
  for (auto& stamps : s.server.versions) {
    io.Check(io.Size(stamps) == rows, "version stamp count");
    for (auto& v : stamps) io.Field(v);
  }

  io.Size(s.queue_pending);
  for (auto& u : s.queue_pending) {
    io.Field(u);
    io.Check(u < clients, "queue client id");
  }
  io.Check(io.Size(s.comm_counters) == kCommCounterWords, "comm counters");
  for (auto& c : s.comm_counters) io.Field(c);
  const uint64_t gate = io.Size(s.gate_state);
  io.Check(gate == 0 || gate == 3 * clients, "gate block");
  for (auto& w : s.gate_state) io.Field(w);
  const uint64_t windows = io.Size(s.admission_history);
  io.Check(windows == 0 || windows == slots, "admission block");
  for (auto& window : s.admission_history) {
    io.Size(window);
    for (auto& norm : window) io.Field(norm);
  }

  io.Size(s.history);
  for (auto& p : s.history) {
    io.Field(p.epoch);
    io.Field(p.mean_train_loss);
    io.Field(p.simulated_seconds);
    eval(p.eval.overall);
    for (auto& g : p.eval.per_group) eval(g);
  }

  const uint64_t replicas = io.Size(s.replicas);
  io.Check(replicas == 0 || replicas == clients, "replica count");
  for (auto& r : s.replicas) {
    io.Field(r.slot_plus_one);
    io.Check(r.slot_plus_one <= slots, "replica slot");
    io.Size(r.rows);
    for (auto& row : r.rows) {
      io.Field(row);
      io.Check(row < rows, "replica row");
    }
    io.Check(io.Size(r.versions) == r.rows.size(), "replica versions");
    for (auto& v : r.versions) io.Field(v);
  }
}

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_RUN_STATE_H_
