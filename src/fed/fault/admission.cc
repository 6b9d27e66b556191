#include "src/fed/fault/admission.h"

#include <algorithm>
#include <cmath>

#include "src/math/matrix.h"
#include "src/util/logging.h"

namespace hetefedrec {

namespace {

bool AllFinite(const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

bool FfnFinite(const FeedForwardNet& net) {
  for (size_t l = 0; l < net.num_layers(); ++l) {
    if (!AllFinite(net.weight(l).data().data(), net.weight(l).size())) {
      return false;
    }
    if (!AllFinite(net.bias(l).data().data(), net.bias(l).size())) {
      return false;
    }
  }
  return true;
}

// Clips one row of `width` values to L2 norm <= cap; returns true if it
// was scaled. Accumulates the (post-clip) squared norm into *sum_sq.
// The squared norm is the shared Dot helper (src/math/matrix.h) — the same
// code path the collapse diagnostics and the fp32 kernels dispatch through.
bool ClipRow(double* row, size_t width, double cap, double* sum_sq) {
  double sq = Dot(row, row, width);
  if (cap > 0.0 && sq > cap * cap) {
    const double scale = cap / std::sqrt(sq);
    for (size_t d = 0; d < width; ++d) row[d] *= scale;
    *sum_sq += cap * cap;
    return true;
  }
  *sum_sq += sq;
  return false;
}

// Median of a copy of `v` (v is small: the bounded window).
double Median(std::vector<double> v) {
  HFR_CHECK(!v.empty());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + mid - 1, v.begin() + mid);
  return 0.5 * (v[mid - 1] + hi);
}

}  // namespace

AdmissionController::AdmissionController(size_t num_slots,
                                         const AdmissionOptions& options)
    : options_(options), history_(num_slots) {
  HFR_CHECK_GE(options_.max_row_norm, 0.0);
  HFR_CHECK_GE(options_.outlier_z, 0.0);
  HFR_CHECK_GE(options_.outlier_window, options_.outlier_min_history);
  HFR_CHECK_GE(options_.outlier_min_history, 2u);
}

AdmissionDecision AdmissionController::Admit(size_t slot,
                                             LocalUpdateResult* update) {
  HFR_CHECK_LT(slot, history_.size());
  AdmissionDecision decision;

  // Gate 1: finite scan over everything the client uploads.
  SparseRowUpdate& up = update->v_delta;
  bool finite = AllFinite(up.data.data(), up.data.size());
  for (const FeedForwardNet& d : update->theta_deltas) {
    if (!finite) break;
    finite = FfnFinite(d);
  }
  if (!finite) {
    decision.verdict = AdmissionVerdict::kRejectNonFinite;
    return decision;
  }

  // Gate 2: per-row norm clipping on the item-table delta.
  double sum_sq = 0.0;
  const double cap = options_.max_row_norm;
  for (size_t k = 0; k < up.num_rows(); ++k) {
    double* row = up.data.data() + k * up.width;
    if (ClipRow(row, up.width, cap, &sum_sq)) ++decision.rows_clipped;
  }
  decision.update_norm = std::sqrt(sum_sq);

  // Gate 3: robust z-score against the slot's accepted-norm window.
  std::vector<double>& window = history_[slot];
  if (options_.outlier_z > 0.0 &&
      window.size() >= options_.outlier_min_history) {
    const double med = Median(window);
    std::vector<double> dev(window.size());
    for (size_t i = 0; i < window.size(); ++i) {
      dev[i] = std::fabs(window[i] - med);
    }
    // MAD floor keeps the gate sane when accepted norms are near-constant.
    const double mad =
        std::max(Median(std::move(dev)), 1e-12 * std::max(1.0, med));
    const double z = 0.6745 * (decision.update_norm - med) / mad;
    if (decision.update_norm > med && z > options_.outlier_z) {
      decision.verdict = AdmissionVerdict::kRejectOutlier;
      return decision;
    }
  }

  // Accepted: the norm joins the window (rejections never pollute it).
  window.push_back(decision.update_norm);
  if (window.size() > options_.outlier_window) {
    window.erase(window.begin());
  }
  return decision;
}

std::vector<std::vector<double>> AdmissionController::ExportHistory() const {
  return history_;
}

void AdmissionController::RestoreHistory(
    const std::vector<std::vector<double>>& history) {
  HFR_CHECK_EQ(history.size(), history_.size());
  history_ = history;
}

}  // namespace hetefedrec
