// Parameter server: heterogeneous parameter storage and aggregation
// (Algorithm 1 server side; Eq. 7-9 for V, Eq. 15 for Θ, Eq. 16-17 RESKD).
//
// The server owns one (V, Θ) pair per model slot (small/medium/large — or a
// single slot for homogeneous baselines). Client deltas are accumulated
// into a padded buffer of the widest slot (Eq. 7-8), and at round end each
// slot applies the leading-column slice of the aggregate (Eq. 8-9). With
// identical leading-column initialization this preserves the invariant
// Vs = Vm[:, :Ns] = Vl[:, :Ns] (Eq. 10) until RESKD perturbs the tables
// independently. Clustered aggregation (per-slot accumulation, no padding)
// is also supported for the "Clustered FedRec" baseline.
//
// Everything outside the server — `Trainer`, `SyncService`, the async
// aggregator, admission control, checkpointing, telemetry, benches — talks
// to this one class.
//
// Item-range shards. The catalogue's row space [0, num_items) is split
// into S >= 1 contiguous, near-equal ranges; shard s covers rows
// [lo_s, lo_{s+1}) with lo_s = floor(num_items * s / S). A shard is only an
// accounting partition: uploads count the item-delta scalars that land in
// each range (bench_sharding's skew column), while the tables, Θ FFNs,
// aggregate buffers, touched-row list and version stamps are one
// whole-catalogue round state indexed by global row (docs/SYNC.md
// "Sharding"). The shard count therefore changes no arithmetic.
//
// Every client update arrives as a SparseRowUpdate over the rows it
// changed (all rows from the dense reference trainer), so each round costs
// O(rows touched) in accumulate, apply, stamp and the next round's clear.
// `FinishRound` applies the touched rows in upload order; the padded
// aggregation of Eq. 7-9 is row-independent (accumulate is a per-row Axpy,
// apply a per-row scaled add, the segment/slot/Θ weights global scalars),
// so the visiting order changes no bit.
#ifndef HETEFEDREC_FED_SHARD_SHARDED_SERVER_H_
#define HETEFEDREC_FED_SHARD_SHARDED_SERVER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/config.h"
#include "src/core/distillation.h"
#include "src/core/local_trainer.h"
#include "src/fed/fault/admission.h"
#include "src/fed/sync/versioned_table.h"
#include "src/math/matrix.h"
#include "src/models/ffn.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// \brief Full mutable server state: the server portion of `RunState`
/// (src/core/run_state.h). Whole-catalogue per-slot tables and thetas, plus
/// the version round and every row's stamp. Nothing in it depends on the
/// shard count, so checkpoints are portable across shard counts.
struct ServerSnapshot {
  std::vector<Matrix> tables;               // [slot], num_items x width(slot)
  std::vector<FeedForwardNet> thetas;       // [slot]
  uint64_t version_round = 0;
  std::vector<std::vector<uint64_t>> versions;  // [slot][row]
};

/// \brief Heterogeneous federated parameter server; S item-range shards
/// partition its upload accounting.
class ShardedServer {
 public:
  struct Options {
    /// Embedding width per slot, strictly ascending. One entry =
    /// homogeneous FedRec.
    std::vector<size_t> widths;
    std::array<size_t, 2> ffn_hidden = {8, 8};
    size_t num_items = 0;
    double embed_init_std = 0.1;
    /// How each round's updates combine (Eq. 9; the uploaded quantities
    /// are local deltas, i.e. -lr·∇ already, so the server applies them
    /// with unit step).
    AggregationMode aggregation = AggregationMode::kMean;
    /// Padded cross-slot aggregation (HeteFedRec / Directly Aggregate) vs
    /// isolated per-slot aggregation (Clustered FedRec).
    bool shared_aggregation = true;
    uint64_t seed = 1;
    /// Item-range shards, 1 <= num_shards <= num_items. Any value gives
    /// bit-identical tables; it changes per-shard accounting only.
    size_t num_shards = 1;
  };

  explicit ShardedServer(const Options& options);

  // ---- Geometry -------------------------------------------------------
  size_t num_slots() const { return tables_.size(); }
  size_t width(size_t slot) const { return tables_[slot].cols(); }
  size_t num_items() const { return num_items_; }
  /// Total public parameters of slot (V + Θ) — Table III accounting.
  size_t SlotParamCount(size_t slot) const;

  // ---- Sharding topology ----------------------------------------------
  size_t num_shards() const { return shard_starts_.size(); }
  /// Shard whose range holds item row `row`.
  size_t shard_of_row(size_t row) const;
  /// Cumulative item-embedding delta scalars uploaded into `shard`'s row
  /// range over the server's lifetime (Θ deltas are global, not counted).
  /// Feeds the bytes/round-per-shard accounting in bench_sharding.
  uint64_t shard_upload_scalars(size_t shard) const {
    HFR_CHECK_LT(shard, shard_upload_scalars_.size());
    return shard_upload_scalars_[shard];
  }
  /// First row of `shard`'s range (range end = start of shard + 1, or
  /// num_items for the last shard).
  size_t shard_row_begin(size_t shard) const {
    HFR_CHECK_LT(shard, shard_starts_.size());
    return shard_starts_[shard];
  }
  size_t shard_row_count(size_t shard) const {
    const size_t end = shard + 1 < shard_starts_.size()
                           ? shard_starts_[shard + 1]
                           : num_items_;
    return end - shard_row_begin(shard);
  }

  // ---- Download surface (read-only views) -----------------------------
  const Matrix& table(size_t slot) const { return tables_[slot]; }
  const FeedForwardNet& theta(size_t slot) const { return thetas_[slot]; }
  const std::vector<Matrix>& tables() const { return tables_; }
  const std::vector<FeedForwardNet>& thetas() const { return thetas_; }
  /// Row versions for the delta-sync protocol (docs/SYNC.md): a row's
  /// version is the round of the last FinishRound/Distill that changed it.
  const VersionedTable& versions() const { return versions_; }

  // ---- Round protocol -------------------------------------------------
  /// Clears the round accumulators and advances the version round. Cost is
  /// proportional to the rows touched in the *previous* round.
  void BeginRound();
  /// Adds one client's uploaded update (Eq. 7-8 accumulation). `tasks`
  /// describes which slot each theta delta belongs to and the width of
  /// v_delta (its last entry). `weight` scales the update's contribution
  /// (1.0 for kSum/kMean; the client's |Di| under kDataWeighted). The
  /// update's rows are scattered one by one and enroll in the round's
  /// touched set.
  /// Not thread-safe — parallel rounds merge their results through calls
  /// in deterministic merge order.
  void UploadDelta(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update, double weight = 1.0);
  /// Applies the aggregated updates to every slot (Eq. 9 / Eq. 15) and
  /// stamps the changed rows. Only rows in the round's touched set are
  /// visited — rows outside it have an exactly-zero aggregate, so skipping
  /// them is bit-identical to a full sweep.
  void FinishRound();
  /// Applies one client's update immediately, scaled by `scale` — the
  /// asynchronous merge-on-arrival primitive (docs/SYNC.md). Equivalent to
  /// a one-client round under kSum with weight = scale: the update lands
  /// verbatim times `scale` regardless of the configured aggregation mode
  /// (a mean over one update would cancel the staleness weight). Advances
  /// the version and stamps the touched rows like any round. Must not be
  /// called with a round open. An all-rows update from the dense reference
  /// trainer pays an all-rows clear + apply per merge, so async runs
  /// should keep use_sparse_updates on — the dense path is for equivalence
  /// checks, not throughput.
  void ApplyUpdate(const std::vector<LocalTaskSpec>& tasks,
                   const LocalUpdateResult& update, double scale);
  /// Runs RESKD across all slots' tables (Eq. 16-17) and stamps the
  /// distilled rows of every slot; returns the mean pre-distillation
  /// relation loss (0, and a no-op, with one slot).
  double Distill(const DistillationOptions& options, Rng* rng);

  // ---- Admission control ----------------------------------------------
  /// Installs update admission control (docs/ROBUSTNESS.md). The server
  /// does not own the controller; callers run `Admit` on each upload
  /// before UploadDelta/ApplyUpdate (in deterministic merge order — the
  /// gate's accepted-norm history is order-sensitive by design).
  void SetAdmission(AdmissionController* admission) {
    admission_ = admission;
  }
  bool admission_enabled() const { return admission_ != nullptr; }
  /// Runs the admission gates on one upload (`tasks.back().slot`, the
  /// client's own width, selects the norm window; the item delta may be
  /// clipped in place). Requires an installed controller.
  AdmissionDecision Admit(const std::vector<LocalTaskSpec>& tasks,
                          LocalUpdateResult* update);

  // ---- Persistence ----------------------------------------------------
  /// Captures the full mutable state (tables, thetas, version stamps).
  ServerSnapshot Snapshot() const;
  /// Restores a snapshot captured at any shard count with the same
  /// geometry (slots, widths, num_items). Checks shapes.
  void RestoreSnapshot(ServerSnapshot snapshot);

 private:
  size_t num_items_ = 0;
  AggregationMode aggregation_;
  bool shared_aggregation_;

  std::vector<Matrix> tables_;
  std::vector<FeedForwardNet> thetas_;
  VersionedTable versions_;

  // Round state, indexed by global row. Contributor totals are *weights*:
  // 1 per client under kSum/kMean, the client's data size under
  // kDataWeighted.
  /// Aggregate buffers: one padded to the widest slot (shared mode), or
  /// one per slot at its own width (clustered mode).
  std::vector<Matrix> v_agg_;
  /// Rows touched by this round's uploads, in upload order, and their mask.
  std::vector<uint32_t> touched_;
  std::vector<uint8_t> touched_mask_;
  /// Weight per width segment: segment s covers columns
  /// [widths[s-1], widths[s]); a client of width w contributes to all
  /// segments below w (shared mode).
  std::vector<double> segment_weight_;
  std::vector<double> slot_weight_;  // clustered mode
  std::vector<FeedForwardNet> theta_agg_;
  std::vector<double> theta_weight_;
  bool round_open_ = false;

  // Accounting partition: shard s covers rows [shard_starts_[s], next).
  std::vector<size_t> shard_starts_;
  std::vector<uint64_t> shard_upload_scalars_;

  AdmissionController* admission_ = nullptr;  // not owned
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SHARD_SHARDED_SERVER_H_
