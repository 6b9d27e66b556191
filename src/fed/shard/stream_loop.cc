#include "src/fed/shard/stream_loop.h"

#include <cmath>
#include <memory>
#include <utility>

#include "src/util/logging.h"
#include "src/util/rss.h"
#include "src/util/telemetry/json.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/timer.h"

namespace hetefedrec {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

StreamLoopResult RunStreamingRounds(ShardedServer* server,
                                    const ClientStream& stream,
                                    const StreamLoopOptions& options) {
  HFR_CHECK(server != nullptr);
  HFR_CHECK_GT(server->num_slots(), 0u);
  HFR_CHECK_GT(options.clients_per_round, 0u);
  HFR_CHECK_EQ(server->num_items(), stream.num_items());

  const size_t slot = server->num_slots() - 1;
  const size_t width = server->width(slot);
  const Matrix& table = server->table(slot);
  const std::vector<LocalTaskSpec> tasks = {{slot, width}};
  const size_t num_users = stream.num_users();
  const size_t rounds =
      options.rounds > 0
          ? options.rounds
          : (num_users + options.clients_per_round - 1) /
                options.clients_per_round;

  std::unique_ptr<Telemetry> telemetry;
  if (!options.metrics_out.empty()) {
    TelemetryOptions topts;
    topts.metrics_path = options.metrics_out;
    auto created = Telemetry::Create(topts);
    HFR_CHECK(created.ok()) << created.status().ToString();
    telemetry = std::move(created).value();
    telemetry->WriteRow(JsonObj()
                            .Str("type", "meta")
                            .I64("version", 1)
                            .Str("method", "stream_mf")
                            .Str("dataset", "stream")
                            .Num("data_scale", 1.0)
                            .U64("seed", options.seed)
                            .Bool("async", false)
                            .U64("clients_per_round",
                                 options.clients_per_round)
                            .I64("epochs", 1)
                            .Bool("resumed", false)
                            .U64("users", num_users)
                            .U64("items", stream.num_items())
                            .U64("shards", server->num_shards())
                            .Build());
  }

  const Rng loop_root(options.seed);
  std::vector<double> user_embed(width);
  LocalUpdateResult up;
  up.sparse = true;
  up.theta_deltas.push_back(FeedForwardNet::ZerosLike(server->theta(slot)));
  up.v_delta_sparse.width = width;

  StreamLoopResult result;
  uint64_t scalars_before = 0;
  for (size_t s = 0; s < server->num_shards(); ++s) {
    scalars_before += server->shard_upload_scalars(s);
  }

  Timer total_timer;
  size_t cursor = 0;
  for (size_t r = 0; r < rounds; ++r) {
    Timer round_timer;
    server->BeginRound();
    size_t merged = 0;
    for (size_t k = 0; k < options.clients_per_round; ++k) {
      const UserId u = static_cast<UserId>(cursor);
      cursor = (cursor + 1) % num_users;
      const StreamClient client = stream.Get(u);

      // The client's private embedding: a fresh deterministic draw per
      // (loop seed, user) — nothing is stored between that user's visits.
      Rng er = loop_root.Fork(static_cast<uint64_t>(u) + 1);
      for (size_t d = 0; d < width; ++d) user_embed[d] = er.Normal(0.0, 0.1);

      // One implicit-feedback MF-SGD step per interacted row against the
      // live (pre-round) table: delta = lr * (1 - sigmoid(<e_u, v_i>)) e_u.
      SparseRowUpdate& sp = up.v_delta_sparse;
      sp.rows = client.items;  // distinct, ascending — the required order
      sp.data.resize(sp.rows.size() * width);
      for (size_t k_row = 0; k_row < sp.rows.size(); ++k_row) {
        const double* v = table.Row(sp.rows[k_row]);
        const double score = Dot(user_embed.data(), v, width);
        const double g = options.lr * (1.0 - Sigmoid(score));
        double* dst = sp.data.data() + k_row * width;
        for (size_t d = 0; d < width; ++d) dst[d] = g * user_embed[d];
      }
      up.params_up = sp.ParamCount();
      result.rows_uploaded += sp.rows.size();

      server->UploadDelta(tasks, up, 1.0);
      ++merged;
    }
    server->FinishRound();
    result.clients += merged;

    if (telemetry != nullptr) {
      telemetry->WriteRow(JsonObj()
                              .U64("round", r + 1)
                              .Str("type", "round")
                              .I64("epoch", 0)
                              .Num("clock", total_timer.Seconds())
                              .Num("duration", round_timer.Seconds())
                              .U64("merged", merged)
                              .U64("queue", 0)
                              .Raw("metrics",
                                   telemetry->registry()->ToJson())
                              .Build());
    }
  }
  result.rounds = rounds;
  result.wall_seconds = total_timer.Seconds();

  result.shard_scalars.reserve(server->num_shards());
  uint64_t scalars_after = 0;
  for (size_t s = 0; s < server->num_shards(); ++s) {
    const uint64_t v = server->shard_upload_scalars(s);
    result.shard_scalars.push_back(v);
    scalars_after += v;
  }
  result.upload_scalars = scalars_after - scalars_before;
  result.peak_rss_kb = PeakRssKb();

  if (telemetry != nullptr) {
    telemetry->WriteRow(
        JsonObj()
            .Str("type", "summary")
            .U64("rounds", result.rounds)
            .U64("merges", result.clients)
            .Num("clock", result.wall_seconds)
            .Num("recall", 0.0)
            .Num("ndcg", 0.0)
            .U64("total_scalars", result.upload_scalars)
            .U64("total_bytes", result.upload_scalars * sizeof(double))
            .U64("dropped", 0)
            .U64("peak_rss_kb", result.peak_rss_kb)
            .Raw("metrics", telemetry->registry()->ToJson())
            .Build());
    const Status flushed = telemetry->Flush();
    HFR_CHECK(flushed.ok()) << flushed.ToString();
  }
  return result;
}

}  // namespace hetefedrec
