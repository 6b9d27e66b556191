#include "src/fed/shard/sharded_server.h"

#include <algorithm>

#include "src/math/init.h"
#include "src/util/telemetry/profiler.h"

namespace hetefedrec {

ShardedServer::ShardedServer(const Options& options)
    : aggregation_(options.aggregation),
      shared_aggregation_(options.shared_aggregation) {
  HFR_CHECK(!options.widths.empty());
  HFR_CHECK_GT(options.num_items, 0u);
  HFR_CHECK_GT(options.num_shards, 0u);
  HFR_CHECK_LE(options.num_shards, options.num_items);
  for (size_t s = 1; s < options.widths.size(); ++s) {
    HFR_CHECK_LT(options.widths[s - 1], options.widths[s]);
  }
  num_items_ = options.num_items;

  // Initialize the widest table, then share prefixes downwards so Eq. 10's
  // invariant holds from t = 0; one Xavier init per slot's Θ follows.
  Rng rng(options.seed);
  const size_t max_width = options.widths.back();
  Matrix widest(options.num_items, max_width);
  InitNormal(&widest, options.embed_init_std, &rng);
  for (size_t w : options.widths) {
    tables_.push_back(widest.LeadingCols(w));
    FeedForwardNet theta(2 * w, {options.ffn_hidden[0], options.ffn_hidden[1]});
    theta.InitXavier(&rng);
    thetas_.push_back(std::move(theta));
  }

  versions_ = VersionedTable(tables_.size(), num_items_);
  if (shared_aggregation_) {
    v_agg_.emplace_back(num_items_, max_width);
  } else {
    for (size_t w : options.widths) v_agg_.emplace_back(num_items_, w);
  }
  touched_mask_.assign(num_items_, 0);

  const size_t S = options.num_shards;
  for (size_t i = 0; i < S; ++i) {
    shard_starts_.push_back(num_items_ * i / S);
  }
  shard_upload_scalars_.assign(S, 0);

  segment_weight_.assign(tables_.size(), 0.0);
  slot_weight_.assign(tables_.size(), 0.0);
  theta_agg_.reserve(thetas_.size());
  for (const auto& t : thetas_) {
    theta_agg_.push_back(FeedForwardNet::ZerosLike(t));
  }
  theta_weight_.assign(thetas_.size(), 0.0);
}

size_t ShardedServer::shard_of_row(size_t row) const {
  HFR_CHECK_LT(row, num_items_);
  const auto it =
      std::upper_bound(shard_starts_.begin(), shard_starts_.end(), row);
  return static_cast<size_t>(it - shard_starts_.begin()) - 1;
}

size_t ShardedServer::SlotParamCount(size_t slot) const {
  HFR_CHECK_LT(slot, tables_.size());
  return tables_[slot].size() + thetas_[slot].ParamCount();
}

void ShardedServer::BeginRound() {
  // Zero only what the previous round dirtied (the constructor
  // zero-initialized the buffers for the first round).
  for (uint32_t r : touched_) {
    for (Matrix& m : v_agg_) {
      double* row = m.Row(r);
      std::fill(row, row + m.cols(), 0.0);
    }
    touched_mask_[r] = 0;
  }
  touched_.clear();
  versions_.AdvanceRound();

  std::fill(segment_weight_.begin(), segment_weight_.end(), 0.0);
  std::fill(slot_weight_.begin(), slot_weight_.end(), 0.0);
  for (auto& t : theta_agg_) t.SetZero();
  std::fill(theta_weight_.begin(), theta_weight_.end(), 0.0);
  round_open_ = true;
}

void ShardedServer::UploadDelta(const std::vector<LocalTaskSpec>& tasks,
                                const LocalUpdateResult& update,
                                double weight) {
  HFR_CHECK(round_open_);
  HFR_CHECK(!tasks.empty());
  HFR_CHECK_GE(weight, 0.0);
  const SparseRowUpdate& up = update.v_delta;
  const size_t client_width = up.width;
  HFR_CHECK_EQ(tasks.back().width, client_width);

  // Eq. 7-8: accumulate each delta row — zero-padded to the widest slot
  // in shared mode, into the client's own slot when clustered.
  const size_t slot = tasks.back().slot;
  if (!shared_aggregation_) {
    HFR_CHECK_LT(slot, tables_.size());
    HFR_CHECK_EQ(tables_[slot].cols(), client_width);
  }
  Matrix& agg = v_agg_[shared_aggregation_ ? 0 : slot];
  for (size_t k = 0; k < up.num_rows(); ++k) {
    const uint32_t r = up.rows[k];
    shard_upload_scalars_[shard_of_row(r)] += client_width;
    if (!touched_mask_[r]) {
      touched_mask_[r] = 1;
      touched_.push_back(r);
    }
    Axpy(weight, up.RowData(k), agg.Row(r), client_width);
  }

  if (shared_aggregation_) {
    for (size_t s = 0; s < tables_.size(); ++s) {
      if (width(s) <= client_width) segment_weight_[s] += weight;
    }
  } else {
    slot_weight_[slot] += weight;
  }

  HFR_CHECK_EQ(tasks.size(), update.theta_deltas.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    const size_t ts = tasks[t].slot;
    HFR_CHECK_LT(ts, theta_agg_.size());
    theta_agg_[ts].AddScaled(update.theta_deltas[t], weight);
    theta_weight_[ts] += weight;
  }
}

void ShardedServer::FinishRound() {
  HFR_PROFILE("apply");
  HFR_CHECK(round_open_);
  round_open_ = false;

  if (shared_aggregation_) {
    // Eq. 8-9: every slot applies the leading-column slice of the padded
    // aggregate. Under kMean/kDataWeighted each *width segment* is
    // normalized by the total weight of clients wide enough to have
    // updated it — the natural extension of FedAvg to padded aggregation.
    // Segment `seg` spans the columns [width(seg-1), width(seg)), whose
    // accumulated weight is segment_weight_[seg].
    for (size_t s = 0; s < tables_.size(); ++s) {
      size_t col0 = 0;
      for (size_t seg = 0; seg <= s; ++seg) {
        const size_t col1 = width(seg);
        double seg_scale = 1.0;
        if (aggregation_ != AggregationMode::kSum) {
          if (segment_weight_[seg] == 0.0) {
            col0 = col1;
            continue;
          }
          seg_scale = 1.0 / segment_weight_[seg];
        }
        for (uint32_t r : touched_) {
          const double* src = v_agg_[0].Row(r);
          double* dst = tables_[s].Row(r);
          for (size_t c = col0; c < col1; ++c) dst[c] += seg_scale * src[c];
        }
        col0 = col1;
      }
    }
  } else {
    for (size_t s = 0; s < tables_.size(); ++s) {
      if (slot_weight_[s] == 0.0) continue;
      const double scale = aggregation_ == AggregationMode::kSum
                               ? 1.0
                               : 1.0 / slot_weight_[s];
      for (uint32_t r : touched_) {
        Axpy(scale, v_agg_[s].Row(r), tables_[s].Row(r), tables_[s].cols());
      }
    }
  }

  // Eq. 15: Θ slots aggregate across every client that trained them.
  for (size_t s = 0; s < thetas_.size(); ++s) {
    if (theta_weight_[s] == 0.0) continue;
    const double scale = aggregation_ == AggregationMode::kSum
                             ? 1.0
                             : 1.0 / theta_weight_[s];
    thetas_[s].AddScaled(theta_agg_[s], scale);
  }

  // Version stamps for delta sync: a slot's table changed iff some width
  // segment it reads received weight. The row set is the one the apply
  // loops visited; stamping a touched row for every eligible slot is a
  // (safe) over-approximation in clustered mode, where the touched list
  // is not split per slot.
  for (size_t s = 0; s < tables_.size(); ++s) {
    bool changed = false;
    if (shared_aggregation_) {
      for (size_t seg = 0; seg <= s && !changed; ++seg) {
        changed = segment_weight_[seg] > 0.0;
      }
    } else {
      changed = slot_weight_[s] > 0.0;
    }
    if (!changed) continue;
    for (uint32_t r : touched_) versions_.Stamp(s, r);
  }
}

void ShardedServer::ApplyUpdate(const std::vector<LocalTaskSpec>& tasks,
                                const LocalUpdateResult& update,
                                double scale) {
  HFR_CHECK(!round_open_);
  HFR_CHECK_GE(scale, 0.0);
  BeginRound();
  UploadDelta(tasks, update, scale);
  // Force sum semantics for the single accumulated update: under kMean the
  // weight would normalize itself away (scale/scale = 1).
  const AggregationMode saved = aggregation_;
  aggregation_ = AggregationMode::kSum;
  FinishRound();
  aggregation_ = saved;
}

double ShardedServer::Distill(const DistillationOptions& options, Rng* rng) {
  HFR_PROFILE("distill");
  if (tables_.size() < 2) return 0.0;
  std::vector<Matrix*> ptrs;
  ptrs.reserve(tables_.size());
  for (auto& t : tables_) ptrs.push_back(&t);
  std::vector<ItemId> sampled;
  const double loss = EnsembleDistill(ptrs, options, rng, &sampled);
  // RESKD dirties the Vkd rows of *every* slot — including rows outside any
  // client's touched set — so their versions must advance or replicas would
  // serve stale bytes.
  for (size_t s = 0; s < tables_.size(); ++s) {
    for (ItemId i : sampled) versions_.Stamp(s, static_cast<uint32_t>(i));
  }
  return loss;
}

AdmissionDecision ShardedServer::Admit(
    const std::vector<LocalTaskSpec>& tasks, LocalUpdateResult* update) {
  HFR_CHECK(admission_ != nullptr);
  HFR_CHECK(!tasks.empty());
  return admission_->Admit(tasks.back().slot, update);
}

ServerSnapshot ShardedServer::Snapshot() const {
  ServerSnapshot snap;
  snap.tables = tables_;
  snap.thetas = thetas_;
  snap.version_round = versions_.round();
  for (size_t s = 0; s < tables_.size(); ++s) {
    snap.versions.push_back(versions_.slot_versions(s));
  }
  return snap;
}

void ShardedServer::RestoreSnapshot(ServerSnapshot snapshot) {
  HFR_CHECK(!round_open_);
  HFR_CHECK_EQ(snapshot.tables.size(), tables_.size());
  HFR_CHECK_EQ(snapshot.thetas.size(), thetas_.size());
  for (size_t s = 0; s < tables_.size(); ++s) {
    HFR_CHECK_EQ(snapshot.tables[s].rows(), tables_[s].rows());
    HFR_CHECK_EQ(snapshot.tables[s].cols(), tables_[s].cols());
    HFR_CHECK(snapshot.thetas[s].SameShape(thetas_[s]));
  }
  tables_ = std::move(snapshot.tables);
  thetas_ = std::move(snapshot.thetas);
  versions_.Restore(snapshot.version_round, std::move(snapshot.versions));
}

}  // namespace hetefedrec
