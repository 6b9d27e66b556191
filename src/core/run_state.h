// Crash-consistent run checkpoints (HFR1 format v2).
//
// A `RunState` captures everything a federated run needs to continue
// bit-identically after a kill: server tables and Θ heads, version stamps,
// client replicas, the scheduler queue, every RNG stream position, both
// virtual clocks, the comm/fault counters and the metric history so far.
// `SaveRunState` writes it with an atomic rename (tmp file + std::rename),
// so a crash mid-write never clobbers the previous good checkpoint.
//
// The config fingerprint guards against resuming under a different
// experiment: any results-affecting knob change invalidates the file.
// See docs/ROBUSTNESS.md ("Checkpoint format v2") for the record layout.
#ifndef HETEFEDREC_CORE_RUN_STATE_H_
#define HETEFEDREC_CORE_RUN_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer.h"
#include "src/fed/shard/sharded_server.h"
#include "src/math/matrix.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace hetefedrec {

/// Run-state format version ("format v2" = model checkpoints + run state).
inline constexpr uint64_t kRunStateFormat = 2;

/// Per-client delta-sync replica snapshot: held rows coldest-first so a
/// restore replays the LRU recency order exactly.
struct ReplicaSnapshot {
  uint64_t slot_plus_one = 0;  ///< 0 = never synced (kNoSlot)
  std::vector<uint64_t> rows;      ///< row index, coldest first
  std::vector<uint64_t> versions;  ///< aligned with `rows`
};

struct RunState {
  // --- identity guards -------------------------------------------------
  uint64_t fingerprint = 0;  ///< ConfigFingerprint of the writing run
  std::string method;        ///< short method name ("hetefedrec", ...)
  std::string base_model;    ///< "ncf" | "lightgcn"

  // --- run position ----------------------------------------------------
  uint64_t next_epoch = 1;   ///< epoch to (re-)enter on resume, 1-based
  uint64_t mid_epoch = 0;    ///< 1 = taken between rounds inside an epoch
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
  uint64_t has_replicas = 0;
  std::vector<ReplicaSnapshot> replicas;  ///< per client when has_replicas
};

/// Stable hash of every results-affecting config field (excludes IO/perf
/// plumbing: num_threads, checkpoint/resume knobs, the kill hook). Two
/// configs with equal fingerprints produce bit-identical runs.
uint64_t ConfigFingerprint(const ExperimentConfig& config,
                           const std::string& method_name);

/// Writes `state` to `path` atomically (tmp + rename).
Status SaveRunState(const std::string& path, const RunState& state);

/// Loads a run state written by SaveRunState.
StatusOr<RunState> LoadRunState(const std::string& path);

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_RUN_STATE_H_
