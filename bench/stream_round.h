// One round of the streaming million-user workload, driven straight
// through the parameter server's round protocol. bench_sharding and
// BM_ShardedRound share it.
//
// Clients come from a `ClientStream` (a pure function of seed and user id,
// nothing stored per user). Each one draws its private embedding from
// (seed, user), takes one implicit-feedback MF-SGD step per interacted row
// against the live pre-round table of the widest slot, and uploads the
// packed rows through `ShardedServer::UploadDelta`; `FinishRound` closes
// the round. Per-round memory is O(clients_per_round · items-per-user),
// independent of the user count.
//
// Client order within a round is the stream's user-id order and the server
// merges uploads in call order, so the tables are a pure function of (the
// stream seed, `seed`) — and, the sharded apply being row-independent, not
// of the shard count.
#ifndef HETEFEDREC_BENCH_STREAM_ROUND_H_
#define HETEFEDREC_BENCH_STREAM_ROUND_H_

#include <cmath>
#include <vector>

#include "src/data/stream.h"
#include "src/fed/shard/sharded_server.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace hetefedrec::bench {

/// Runs one round of `clients_per_round` streamed clients starting at user
/// `*cursor`, wrapping after the stream's last user, and leaves `*cursor`
/// at the next round's first user. `lr` scales each client's step.
inline void RunStreamRound(ShardedServer* server, const ClientStream& stream,
                           size_t clients_per_round, double lr, uint64_t seed,
                           size_t* cursor) {
  HFR_CHECK_EQ(server->num_items(), stream.num_items());
  const size_t slot = server->num_slots() - 1;
  const size_t width = server->width(slot);
  const Matrix& table = server->table(slot);
  const std::vector<LocalTaskSpec> tasks = {{slot, width}};
  const Rng root(seed);
  std::vector<double> user_embed(width);
  LocalUpdateResult up;
  up.theta_deltas.push_back(FeedForwardNet::ZerosLike(server->theta(slot)));
  SparseRowUpdate& delta = up.v_delta;
  delta.width = width;

  server->BeginRound();
  for (size_t k = 0; k < clients_per_round; ++k) {
    const UserId u = static_cast<UserId>(*cursor);
    *cursor = (*cursor + 1) % stream.num_users();
    Rng er = root.Fork(static_cast<uint64_t>(u) + 1);
    for (size_t d = 0; d < width; ++d) user_embed[d] = er.Normal(0.0, 0.1);

    // delta_i = lr * (1 - sigmoid(<e_u, v_i>)) * e_u per interacted row.
    delta.rows = stream.Get(u).items;  // distinct, ascending
    delta.data.resize(delta.rows.size() * width);
    for (size_t i = 0; i < delta.rows.size(); ++i) {
      const double score = Dot(user_embed.data(), table.Row(delta.rows[i]),
                               width);
      const double g = lr * (1.0 - 1.0 / (1.0 + std::exp(-score)));
      double* dst = delta.data.data() + i * width;
      for (size_t d = 0; d < width; ++d) dst[d] = g * user_embed[d];
    }
    server->UploadDelta(tasks, up, 1.0);
  }
  server->FinishRound();
}

}  // namespace hetefedrec::bench

#endif  // HETEFEDREC_BENCH_STREAM_ROUND_H_
