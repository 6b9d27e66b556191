// Relation-based Ensemble Self Knowledge Distillation (RESKD), §IV-C.
//
// After heterogeneous aggregation, the server (no client data needed):
//   1. samples a subset Vkd of items,
//   2. computes each table's pairwise cosine-similarity matrix over Vkd
//      (the "relation"),
//   3. averages them into an ensemble relation d_ens (Eq. 16),
//   4. nudges every table so its relation matches d_ens by gradient descent
//      on L_kd = || d(V, Vkd) - d_ens ||²₂ (Eq. 17).
// The ensemble target is held fixed during the descent steps (standard
// distillation practice: the teacher signal is not differentiated).
#ifndef HETEFEDREC_CORE_DISTILLATION_H_
#define HETEFEDREC_CORE_DISTILLATION_H_

#include <vector>

#include "src/data/types.h"
#include "src/math/backend.h"
#include "src/math/matrix.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// Options for one RESKD application.
struct DistillationOptions {
  size_t kd_items = 64;  // |Vkd|
  int steps = 5;         // gradient steps per table per round
  double lr = 0.01;      // step size
  /// Working scalar of the Gram/relation/gradient pipeline. The tables
  /// themselves stay double (server storage of record); the fp32 backend
  /// casts the gathered Vkd rows once and upcasts the final row updates.
  /// The Vkd sample draw is scalar-free, so the RNG sequence is identical
  /// on every backend.
  ComputeBackend backend = ComputeBackend::kFp64;
};

/// \brief Pairwise cosine-similarity matrix of the selected rows.
///
/// \param table embedding table.
/// \param items row indices (the sampled Vkd).
/// \returns |items| x |items| symmetric matrix with 1s on the diagonal
///   (0 for all-zero rows).
Matrix RelationMatrix(const Matrix& table, const std::vector<ItemId>& items);

/// Squared-L2 distance between two relation matrices (the distillation
/// loss of Eq. 17 for one table).
double RelationLoss(const Matrix& relation, const Matrix& target);

/// \brief Runs RESKD over a set of tables in place.
///
/// \param tables the per-group item embedding tables {Vs, Vm, Vl}; all must
///   have the same number of rows (items). Each is updated in place.
/// \param options distillation parameters.
/// \param rng source for the Vkd sample.
/// \param sampled_items when non-null, receives the Vkd row indices — the
///   only rows the distillation mutates (delta sync stamps their versions).
/// \returns the mean relation loss across tables *before* distillation
///   (useful for monitoring / tests).
double EnsembleDistill(const std::vector<Matrix*>& tables,
                       const DistillationOptions& options, Rng* rng,
                       std::vector<ItemId>* sampled_items = nullptr);

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_DISTILLATION_H_
