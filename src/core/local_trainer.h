// Client-side local training (Algorithm 1, CLIENT_TRAIN).
//
// A client downloads its group's public parameters, trains local copies for
// `local_epochs` full-batch Adam steps, and uploads the resulting parameter
// deltas. Under unified dual-task learning (Eq. 11) a client in group a
// optimizes one BCE objective per width Ns..Na over *shared* embedding
// storage, so sub-slices of its update are meaningful updates for the
// smaller models; medium/large clients additionally apply the DDR
// regularizer (Eq. 14). The private user embedding is updated in place
// (Eq. 3) and never leaves the client.
//
// Two bit-identical execution paths exist, and both upload one form, a
// SparseRowUpdate (rows ascending) — the only form the server accepts:
//   dense  (use_sparse = false): the reference implementation — the client
//     copies the full item table, accumulates a dense gradient, runs dense
//     Adam and uploads every row. O(num_items × width) per round.
//   sparse (use_sparse = true, default): the client reads the global table
//     through a copy-on-write RowOverlayTable, accumulates gradients in a
//     SparseRowStore and uploads the touched rows only.
//     O(|interactions| × width) per round. Rows outside the touched set are
//     provably untouched by Adam (their gradient is exactly zero in every
//     epoch, so their moments and step stay exactly 0.0) — see
//     docs/PERFORMANCE.md.
//
// Orthogonally to the dense/sparse split, the local optimization can run on
// the fp32 compute backend (LocalTrainerOptions::backend): the client casts
// the downloaded parameters to float once, trains entirely in float (the
// loss/regularizer scalars stay double), and upcasts the deltas at the
// upload boundary — the wire and the server stay fp64 storage of record.
// The persistent user embedding round-trips through float for the round.
#ifndef HETEFEDREC_CORE_LOCAL_TRAINER_H_
#define HETEFEDREC_CORE_LOCAL_TRAINER_H_

#include <vector>

#include "src/data/dataset.h"
#include "src/fed/client.h"
#include "src/math/adam.h"
#include "src/math/backend.h"
#include "src/math/sparse.h"
#include "src/models/ffn.h"
#include "src/models/scorer.h"

namespace hetefedrec {

/// One dual-task objective: train at `width` against the Θ of `slot`.
struct LocalTaskSpec {
  size_t slot = 0;   // server model slot owning the Θ for this width
  size_t width = 0;  // embedding slice width
};

/// \brief What a client uploads after local training.
struct LocalUpdateResult {
  /// V_local - V_received at the client's width, rows ascending: the
  /// touched rows on the sparse path, every row on the dense path.
  SparseRowUpdate v_delta;
  /// Θ_local - Θ_received per task, aligned with the task list.
  std::vector<FeedForwardNet> theta_deltas;
  /// Mean per-sample BCE loss (summed over tasks) in the final local epoch.
  double train_loss = 0.0;
  /// Unweighted DDR loss in the final local epoch (0 when DDR off).
  double reg_loss = 0.0;
  /// Mean per-sample validation BCE of the *selected* epoch (0 when the
  /// validation carve-out is disabled or the client is too small).
  double validation_loss = 0.0;
  /// Scalars downloaded / uploaded (Table III accounting).
  size_t params_down = 0;
  size_t params_up = 0;
  /// Item rows the client *read* this round — its delta-sync subscription:
  /// every mutated (touched) row plus validation items scored but not
  /// trained. Sorted, duplicate-free. Sparse path only (dense clients read
  /// the whole table).
  std::vector<uint32_t> read_rows;
  /// Total forward/backward sample evaluations across local epochs and
  /// dual tasks (drives the simulated network's compute time).
  size_t train_samples = 0;
  /// Optimizer steps skipped because a gradient went non-finite (summed
  /// over the item-table, user-embedding, and Θ optimizers). Nonzero only
  /// when the client trained against poisoned parameters.
  size_t nonfinite_grad_steps = 0;
};

/// \brief Options controlling local optimization.
struct LocalTrainerOptions {
  int local_epochs = 2;
  double lr = 0.001;
  bool apply_ddr = false;      // DDR active for this client
  double alpha = 1.0;          // DDR weight
  size_t ddr_sample_rows = 0;  // 0 = all rows
  /// Fraction of the client's training positives held out as a local
  /// validation set (§III-A: "10% of its training data will be used as the
  /// validation set to guide the local training"). When > 0 and the client
  /// has at least `min_validation_positives` training items, the client
  /// keeps the parameters of the local epoch with the lowest validation
  /// BCE instead of the final epoch. 0 disables the carve-out.
  double validation_fraction = 0.0;
  size_t min_validation_positives = 10;
  /// Sparse row-touched updates (bit-identical to dense; see file header).
  /// Defaults to the dense reference contract here at the API level;
  /// ExperimentConfig::use_sparse_updates (default true) switches the
  /// experiment pipeline to the sparse path.
  bool use_sparse = false;
  /// Batched scoring: run each epoch's sample set as one
  /// ScoreForTrainBatch/BackwardBatch block per task (and validation as one
  /// ScoreBatch) instead of per-sample calls. Bit-identical either way
  /// (src/math/kernels.h); false keeps the per-sample reference for
  /// equivalence tests and benchmarks.
  bool use_batched = true;
  /// When true, `params_up` counts the scalars the sparse upload actually
  /// ships (touched rows × (width + 1) + Θ). When false (default),
  /// `params_up` reports the paper's dense accounting regardless of path,
  /// so Table III reproduces unchanged.
  bool sparse_comm_accounting = false;
  /// Working scalar for the local optimization. kFp64 is the bit-exact
  /// reference; kFp32Simd trains in float (the CPU picks the float kernel
  /// set, src/math/backend.h).
  ComputeBackend backend = ComputeBackend::kFp64;
};

/// \brief Executes CLIENT_TRAIN for one client.
///
/// Stateless across clients apart from scratch buffers, so one instance is
/// reused for a whole thread's share of the simulation (buffers are
/// re-sized per width). NOT thread-safe: parallel round execution gives
/// each worker thread its own LocalTrainer.
class LocalTrainer {
 public:
  LocalTrainer(const Dataset& ds, BaseModel model);

  /// Runs local training.
  ///
  /// \param client persistent client state; its user embedding is updated
  ///   in place and its RNG advanced.
  /// \param global_table the client's group item embedding table (width =
  ///   client width = tasks.back().width).
  /// \param thetas global Θ per task (same order as `tasks`; the last task
  ///   is the client's own width).
  /// \param tasks the dual-task list, widths ascending.
  /// \param options optimization parameters.
  LocalUpdateResult Train(ClientState* client, const Matrix& global_table,
                          const std::vector<const FeedForwardNet*>& thetas,
                          const std::vector<LocalTaskSpec>& tasks,
                          const LocalTrainerOptions& options);

 private:
  template <bool kSparse, typename S>
  LocalUpdateResult TrainImpl(ClientState* client, const Matrix& global_table,
                              const std::vector<const FeedForwardNet*>& thetas,
                              const std::vector<LocalTaskSpec>& tasks,
                              const LocalTrainerOptions& options);

  /// Per-scalar scratch reused across clients to limit allocator churn.
  template <typename S>
  struct Scratch {
    MatrixT<S> v_local;                   // dense path local table
    MatrixT<S> v_grad;                    // dense path gradient
    RowOverlayTableT<S> v_overlay;        // sparse path local table view
    SparseRowStoreT<S> v_grad_sparse;     // sparse path gradient
    SparseRowAdamT<S> adam_v_sparse;      // sparse V optimizer (reset/call)
    MatrixT<S> u_grad;
    MatrixT<S> user_emb;                  // float-path working copy of u
    std::vector<FeedForwardNetT<S>> theta_local;  // download buffers
    std::vector<FeedForwardNetT<S>> theta_grad;   // gradient accumulators
    // Batched-scoring scratch (options.use_batched).
    typename ScorerT<S>::BatchTrainCache batch_cache;
    std::vector<S> logits;
    std::vector<S> dlogits;
    std::vector<S> val_scores;
  };

  template <typename S>
  Scratch<S>& ScratchFor() {
    if constexpr (std::is_same_v<S, double>) {
      return scratch64_;
    } else {
      return scratch32_;
    }
  }

  const Dataset& ds_;
  BaseModel model_;

  Scratch<double> scratch64_;
  Scratch<float> scratch32_;
  std::vector<ItemId> sample_items_;
  std::vector<ItemId> val_items_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_LOCAL_TRAINER_H_
