// Streaming round loop: drives the parameter server at million-client
// scale.
//
// The full Trainer pipeline materializes per-client state (RNGs, private
// embeddings, sync replicas) for every user — exactly what a million-user
// scale-out must avoid. This loop is the thin alternative: clients come
// from a `ClientStream` (pure function of seed and user id, nothing stored
// per user), each one reads the live server table, builds a real sparse
// MF-SGD delta over its interacted rows, and uploads it through
// `ShardedServer::UploadDelta`; the round closes with `FinishRound`.
// Per-round memory is O(clients_per_round · items-per-user), independent
// of the user count — which is what lets bench_sharding push 1M+ clients
// through a round loop and report rounds/wall-second and bytes/round per
// shard.
//
// Determinism: client order within a round is the user-id order of the
// stream cursor and the server merges uploads in call order, so the final
// tables are a pure function of (stream seed, loop seed, shard count) —
// and because the sharded apply is row-independent, of the first two only.
//
// Telemetry: when `metrics_out` is set the loop emits the standard JSONL
// schema (meta / round / summary, docs/OBSERVABILITY.md) validated by
// tools/summarize_telemetry.py --check; the clock is wall time (there is
// no simulated network in this loop).
#ifndef HETEFEDREC_FED_SHARD_STREAM_LOOP_H_
#define HETEFEDREC_FED_SHARD_STREAM_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/stream.h"
#include "src/fed/shard/sharded_server.h"

namespace hetefedrec {

struct StreamLoopOptions {
  size_t clients_per_round = 256;
  /// Rounds to run; 0 = one full pass over the stream's users
  /// (ceil(num_users / clients_per_round)).
  size_t rounds = 0;
  /// SGD step scale applied to each client's implicit-feedback delta.
  double lr = 0.05;
  /// Seed for the loop's private user-embedding draws (independent of the
  /// stream's client seed).
  uint64_t seed = 1;
  /// Optional telemetry JSONL path ("" = off).
  std::string metrics_out;
};

struct StreamLoopResult {
  size_t rounds = 0;
  size_t clients = 0;             // uploads merged
  uint64_t rows_uploaded = 0;     // touched rows summed over uploads
  uint64_t upload_scalars = 0;    // sum of shard_upload_scalars deltas
  /// Per-shard lifetime upload scalars at loop end (load-balance view).
  std::vector<uint64_t> shard_scalars;
  double wall_seconds = 0.0;
  /// Process peak RSS after the run, KiB (0 = probe unavailable).
  size_t peak_rss_kb = 0;
};

/// Runs `options.rounds` rounds of the streaming workload against
/// `server`. The server must have at least one slot; uploads target the
/// widest slot. Users cycle through the stream in id order, wrapping after
/// a full pass.
StreamLoopResult RunStreamingRounds(ShardedServer* server,
                                    const ClientStream& stream,
                                    const StreamLoopOptions& options);

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SHARD_STREAM_LOOP_H_
