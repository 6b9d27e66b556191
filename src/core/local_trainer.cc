#include "src/core/local_trainer.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <type_traits>

#include "src/core/decorrelation.h"
#include "src/math/activations.h"
#include "src/math/adam.h"
#include "src/util/telemetry/profiler.h"

namespace hetefedrec {

LocalTrainer::LocalTrainer(const Dataset& ds, BaseModel model)
    : ds_(ds), model_(model) {}

LocalUpdateResult LocalTrainer::Train(
    ClientState* client, const Matrix& global_table,
    const std::vector<const FeedForwardNet*>& thetas,
    const std::vector<LocalTaskSpec>& tasks,
    const LocalTrainerOptions& options) {
  const bool fp32 = options.backend != ComputeBackend::kFp64;
  if (options.use_sparse) {
    return fp32 ? TrainImpl<true, float>(client, global_table, thetas, tasks,
                                         options)
                : TrainImpl<true, double>(client, global_table, thetas, tasks,
                                          options);
  }
  return fp32 ? TrainImpl<false, float>(client, global_table, thetas, tasks,
                                        options)
              : TrainImpl<false, double>(client, global_table, thetas, tasks,
                                         options);
}

template <bool kSparse, typename S>
LocalUpdateResult LocalTrainer::TrainImpl(
    ClientState* client, const Matrix& global_table,
    const std::vector<const FeedForwardNet*>& thetas,
    const std::vector<LocalTaskSpec>& tasks,
    const LocalTrainerOptions& options) {
  HFR_CHECK(!tasks.empty());
  HFR_CHECK_EQ(tasks.size(), thetas.size());
  const size_t width = tasks.back().width;
  HFR_CHECK_EQ(global_table.cols(), width);
  HFR_CHECK_EQ(client->user_embedding.cols(), width);
  for (size_t t = 0; t + 1 < tasks.size(); ++t) {
    HFR_CHECK_LE(tasks[t].width, tasks[t + 1].width);
  }
  constexpr bool kFp64 = std::is_same_v<S, double>;
  Scratch<S>& scr = ScratchFor<S>();

  // Local working view of V ("download", counted once per round): a full
  // dense copy on the reference path, a copy-on-write overlay on the
  // sparse path. The fp32 backend casts at this boundary — dense copies
  // convert the whole table once; the overlay converts per visited row.
  if constexpr (kSparse) {
    scr.v_overlay.Reset(&global_table);
    scr.v_grad_sparse.Reset(global_table.rows(), width);
  } else {
    scr.v_local.AssignCast(global_table);
    if (!scr.v_grad.SameShape(scr.v_local)) {
      scr.v_grad = MatrixT<S>(scr.v_local.rows(), width);
    }
  }
  auto local_table = [&]() -> auto& {
    if constexpr (kSparse) {
      return scr.v_overlay;
    } else {
      return scr.v_local;
    }
  };
  auto local_grad = [&]() -> auto& {
    if constexpr (kSparse) {
      return scr.v_grad_sparse;
    } else {
      return scr.v_grad;
    }
  };
  auto& vtab = local_table();
  auto& vgrad = local_grad();

  if (scr.u_grad.cols() != width) scr.u_grad = MatrixT<S>(1, width);

  // Working user embedding: the persistent double row itself on the
  // reference backend; a float round-trip copy on fp32 (written back at
  // the end of the round).
  auto user_table = [&]() -> MatrixT<S>& {
    if constexpr (kFp64) {
      return client->user_embedding;
    } else {
      return scr.user_emb;
    }
  };
  if constexpr (!kFp64) scr.user_emb.AssignCast(client->user_embedding);
  MatrixT<S>& utab = user_table();

  // Θ download buffers and gradient accumulators, reused across calls.
  scr.theta_local.resize(tasks.size());
  scr.theta_grad.resize(tasks.size());
  size_t theta_params = 0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    HFR_CHECK(thetas[t] != nullptr);
    scr.theta_local[t].template AssignCastFrom<double>(*thetas[t]);
    theta_params += thetas[t]->ParamCount();
    if (!scr.theta_grad[t].SameShape(scr.theta_local[t])) {
      scr.theta_grad[t] = FeedForwardNetT<S>::ZerosLike(scr.theta_local[t]);
    }
  }

  // Fresh optimizer state for this round.
  AdamOptions adam_opt;
  adam_opt.lr = options.lr;
  AdamT<S> adam_v(adam_opt);
  if constexpr (kSparse) {
    scr.adam_v_sparse.set_options(adam_opt);
    scr.adam_v_sparse.Reset(global_table.rows(), width);
  }
  AdamT<S> adam_u(adam_opt);
  std::vector<FfnAdamT<S>> adam_theta(tasks.size(), FfnAdamT<S>(adam_opt));

  // One Scorer per task width.
  std::vector<ScorerT<S>> scorers;
  scorers.reserve(tasks.size());
  for (const LocalTaskSpec& task : tasks) {
    scorers.emplace_back(model_, task.width);
  }

  // Validation carve-out (§III-A): hold out the tail of the (already
  // shuffled) training list; fit on the rest; keep the epoch with the best
  // validation BCE.
  const std::vector<ItemId>& all_train = ds_.TrainItems(client->id);
  std::vector<ItemId> fit_items = all_train;
  std::vector<Sample> val_samples;
  const bool use_validation =
      options.validation_fraction > 0.0 &&
      all_train.size() >= options.min_validation_positives;
  if (use_validation) {
    size_t n_val = std::max<size_t>(
        1, static_cast<size_t>(options.validation_fraction *
                               static_cast<double>(all_train.size())));
    std::vector<ItemId> val_items(all_train.end() - n_val, all_train.end());
    fit_items.assign(all_train.begin(), all_train.end() - n_val);
    val_samples =
        ds_.BuildEpochFromPositives(client->id, val_items, &client->rng);
  }
  const std::vector<ItemId>& train_items = fit_items;

  // Best-epoch snapshot state for validation-guided selection. The sparse
  // path snapshots only the overlay's packed rows + data — O(touched) per
  // improving epoch, no O(num_items) position-table copy.
  double best_val_loss = std::numeric_limits<double>::infinity();
  bool best_set = false;
  MatrixT<S> best_v;
  std::vector<uint32_t> best_overlay_rows;
  std::vector<S> best_overlay_data;
  MatrixT<S> best_u;
  std::vector<FeedForwardNetT<S>> best_theta;

  LocalUpdateResult result;

  for (int epoch = 0; epoch < options.local_epochs; ++epoch) {
    std::vector<Sample> samples = ds_.BuildEpochFromPositives(
        client->id, fit_items, &client->rng);
    if constexpr (kSparse) {
      vgrad.Clear();
    } else {
      vgrad.SetZero();
    }
    scr.u_grad.SetZero();
    for (auto& g : scr.theta_grad) g.SetZero();

    double bce_loss = 0.0;
    typename ScorerT<S>::TrainCache cache;
    if (options.use_batched) {
      // The epoch's item list is shared by every task's forward block.
      const size_t n = samples.size();
      sample_items_.resize(n);
      scr.logits.resize(n);
      scr.dlogits.resize(n);
      for (size_t b = 0; b < n; ++b) sample_items_[b] = samples[b].item;
    }
    for (size_t t = 0; t < tasks.size(); ++t) {
      ScorerT<S>& sc = scorers[t];
      sc.BeginUser(utab.Row(0), vtab, train_items);
      if (options.use_batched) {
        // One forward block and one backward block per task; losses and
        // dlogits materialize in sample order, so every accumulator
        // (bce_loss, gradients) sums in the per-sample reference order.
        // The loss scalars stay double on every backend.
        const size_t n = samples.size();
        {
          HFR_PROFILE("forward");
          sc.ScoreForTrainBatch(vtab, scr.theta_local[t], sample_items_.data(),
                                n, &scr.batch_cache, scr.logits.data());
          for (size_t b = 0; b < n; ++b) {
            const double logit = static_cast<double>(scr.logits[b]);
            bce_loss += BceWithLogits(logit, samples[b].label);
            scr.dlogits[b] =
                static_cast<S>(BceWithLogitsGrad(logit, samples[b].label));
          }
        }
        {
          HFR_PROFILE("backward");
          sc.BackwardBatch(scr.theta_local[t], scr.batch_cache,
                           scr.dlogits.data(), &vgrad, scr.u_grad.Row(0),
                           &scr.theta_grad[t]);
        }
      } else {
        for (const Sample& s : samples) {
          const double logit = static_cast<double>(
              sc.ScoreForTrain(vtab, scr.theta_local[t], s.item, &cache));
          bce_loss += BceWithLogits(logit, s.label);
          sc.BackwardSample(scr.theta_local[t], cache,
                            static_cast<S>(BceWithLogitsGrad(logit, s.label)),
                            &vgrad, scr.u_grad.Row(0), &scr.theta_grad[t]);
        }
      }
      sc.FinishUserBackward(&vgrad, scr.u_grad.Row(0));
    }

    double reg_loss = 0.0;
    if (options.apply_ddr) {
      reg_loss = DecorrelationLossAndGrad(vtab, options.alpha,
                                          options.ddr_sample_rows,
                                          &client->rng, &vgrad);
    }

    {
      HFR_PROFILE("adam");
      if constexpr (kSparse) {
        scr.adam_v_sparse.Step(&scr.v_overlay, scr.v_grad_sparse);
      } else {
        adam_v.Step(&scr.v_local, scr.v_grad);
      }
      adam_u.Step(&utab, scr.u_grad);
      for (size_t t = 0; t < tasks.size(); ++t) {
        adam_theta[t].Step(&scr.theta_local[t], scr.theta_grad[t]);
      }
    }

    result.train_samples += samples.size() * tasks.size();

    if (epoch + 1 == options.local_epochs) {
      result.train_loss =
          samples.empty()
              ? 0.0
              : bce_loss / (static_cast<double>(samples.size()) *
                            static_cast<double>(tasks.size()));
      result.reg_loss = reg_loss;
    }

    if (use_validation && !val_samples.empty()) {
      // Validation BCE of the client's own-width model after this epoch.
      ScorerT<S>& own = scorers.back();
      own.BeginUser(utab.Row(0), vtab, fit_items);
      double val = 0.0;
      if (options.use_batched) {
        const size_t n = val_samples.size();
        val_items_.resize(n);
        scr.val_scores.resize(n);
        for (size_t b = 0; b < n; ++b) val_items_[b] = val_samples[b].item;
        own.ScoreBatch(vtab, scr.theta_local.back(), val_items_.data(), n,
                       scr.val_scores.data());
        for (size_t b = 0; b < n; ++b) {
          val += BceWithLogits(static_cast<double>(scr.val_scores[b]),
                               val_samples[b].label);
        }
      } else {
        for (const Sample& s : val_samples) {
          val += BceWithLogits(
              static_cast<double>(
                  own.Score(vtab, scr.theta_local.back(), s.item)),
              s.label);
        }
      }
      val /= static_cast<double>(val_samples.size());
      result.train_samples += val_samples.size();
      if (val < best_val_loss) {
        best_val_loss = val;
        best_set = true;
        if constexpr (kSparse) {
          scr.v_overlay.SnapshotLocal(&best_overlay_rows, &best_overlay_data);
        } else {
          best_v = scr.v_local;
        }
        best_u = utab;
        best_theta = scr.theta_local;
      }
    }
  }

  // Delta-sync subscription: every row the client read, sorted once (the
  // upload rows below are drawn from it). Captured *before* the best-epoch
  // restore — rows mutated only after the best epoch drop out of the
  // upload set, but the client still needed their fresh values.
  if constexpr (kSparse) {
    result.read_rows.assign(scr.v_overlay.touched().begin(),
                            scr.v_overlay.touched().end());
    for (const Sample& s : val_samples) {
      // Validation items are scored but never trained, so they are read
      // without entering the overlay.
      result.read_rows.push_back(static_cast<uint32_t>(s.item));
    }
    std::sort(result.read_rows.begin(), result.read_rows.end());
    result.read_rows.erase(
        std::unique(result.read_rows.begin(), result.read_rows.end()),
        result.read_rows.end());
  }

  if (use_validation && best_set) {
    if constexpr (kSparse) {
      // Rows touched after the best epoch revert to base values by
      // dropping out of the overlay, exactly matching the dense restore.
      scr.v_overlay.RestoreLocal(best_overlay_rows, best_overlay_data);
    } else {
      scr.v_local = best_v;
    }
    utab = best_u;
    scr.theta_local = std::move(best_theta);
    result.validation_loss = best_val_loss;
  }

  // fp32 backend: write the trained user embedding back into the
  // persistent double row (the only state that survives the round).
  if constexpr (!kFp64) {
    double* out = client->user_embedding.Row(0);
    const S* in = utab.Row(0);
    for (size_t d = 0; d < width; ++d) out[d] = static_cast<double>(in[d]);
  }

  // Deltas to upload, always upcast to double at this boundary — the wire
  // and the server aggregation are fp64 storage of record on every
  // backend. The sparse path ships its touched rows, the dense path every
  // row; the dense delta is exactly 0.0 outside the touched set (zero
  // gradient in every epoch keeps the Adam moments and step at exactly
  // zero), so both paths aggregate to the same bits.
  SparseRowUpdate& up = result.v_delta;
  up.width = width;
  if constexpr (kSparse) {
    // The overlay's rows in ascending order: the subscription minus the
    // rows the overlay does not hold (validation-only reads, and rows the
    // best-epoch restore dropped).
    const SparseRowStoreT<S>& held = scr.v_overlay.local();
    up.rows.reserve(result.read_rows.size());
    for (uint32_t r : result.read_rows) {
      if (held.Has(r)) up.rows.push_back(r);
    }
  } else {
    up.rows.resize(global_table.rows());
    std::iota(up.rows.begin(), up.rows.end(), 0u);
  }
  up.data.resize(up.rows.size() * width);
  for (size_t k = 0; k < up.rows.size(); ++k) {
    const S* local = vtab.Row(up.rows[k]);
    const double* base = global_table.Row(up.rows[k]);
    double* out = up.data.data() + k * width;
    for (size_t d = 0; d < width; ++d) {
      out[d] = static_cast<double>(local[d]) - base[d];
    }
  }
  const size_t v_upload_params = kSparse && options.sparse_comm_accounting
                                     ? up.ParamCount()
                                     : global_table.size();
  result.theta_deltas.resize(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    FeedForwardNet d;
    d.AssignCastFrom(scr.theta_local[t]);
    d.AddScaled(*thetas[t], -1.0);
    result.theta_deltas[t] = std::move(d);
  }
  result.params_down = global_table.size() + theta_params;
  result.params_up = v_upload_params + theta_params;
  long long skipped = adam_u.skipped_steps();
  if constexpr (kSparse) {
    skipped += scr.adam_v_sparse.skipped_steps();
  } else {
    skipped += adam_v.skipped_steps();
  }
  for (const FfnAdamT<S>& a : adam_theta) skipped += a.skipped_steps();
  result.nonfinite_grad_steps = static_cast<size_t>(skipped);
  return result;
}

template LocalUpdateResult LocalTrainer::TrainImpl<true, double>(
    ClientState*, const Matrix&, const std::vector<const FeedForwardNet*>&,
    const std::vector<LocalTaskSpec>&, const LocalTrainerOptions&);
template LocalUpdateResult LocalTrainer::TrainImpl<false, double>(
    ClientState*, const Matrix&, const std::vector<const FeedForwardNet*>&,
    const std::vector<LocalTaskSpec>&, const LocalTrainerOptions&);
template LocalUpdateResult LocalTrainer::TrainImpl<true, float>(
    ClientState*, const Matrix&, const std::vector<const FeedForwardNet*>&,
    const std::vector<LocalTaskSpec>&, const LocalTrainerOptions&);
template LocalUpdateResult LocalTrainer::TrainImpl<false, float>(
    ClientState*, const Matrix&, const std::vector<const FeedForwardNet*>&,
    const std::vector<LocalTaskSpec>&, const LocalTrainerOptions&);

}  // namespace hetefedrec
