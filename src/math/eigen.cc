#include "src/math/eigen.h"

#include <algorithm>
#include <cmath>

#include "src/math/stats.h"

namespace hetefedrec {

std::vector<double> SymmetricEigenvalues(const Matrix& sym, int max_sweeps) {
  HFR_CHECK_EQ(sym.rows(), sym.cols());
  const size_t n = sym.rows();
  // The asymmetry bound is taken once from the input: averaging a pair
  // never raises max|a|, so re-scanning after each symmetrized pair would
  // only shift the bound by O(1e-18 · (1 + max|a|)).
  const double tol = 1e-9 + 1e-9 * sym.MaxAbs();
  Matrix a = sym;
  for (size_t i = 0; i < n; ++i) {
    double* ai = a.Row(i);
    for (size_t j = i + 1; j < n; ++j) {
      double* aj = a.Row(j);
      HFR_CHECK_LE(std::abs(ai[j] - aj[i]), tol);
      // Symmetrize to wash out representational round-off.
      double v = 0.5 * (ai[j] + aj[i]);
      ai[j] = v;
      aj[i] = v;
    }
  }

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double* ai = a.Row(i);
      for (size_t j = i + 1; j < n; ++j) off += ai[j] * ai[j];
    }
    if (off < 1e-24) break;
    for (size_t p = 0; p < n; ++p) {
      double* ap = a.Row(p);
      for (size_t q = p + 1; q < n; ++q) {
        double* aq = a.Row(q);
        double apq = ap[q];
        if (std::abs(apq) < 1e-300) continue;
        double theta = (aq[q] - ap[p]) / (2.0 * apq);
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;
        // Apply the rotation J(p,q,theta)^T A J(p,q,theta).
        for (size_t k = 0; k < n; ++k) {
          double* ak = a.Row(k);
          double akp = ak[p];
          double akq = ak[q];
          ak[p] = c * akp - s * akq;
          ak[q] = s * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {
          double apk = ap[k];
          double aqk = aq[k];
          ap[k] = c * apk - s * aqk;
          aq[k] = s * apk + c * aqk;
        }
      }
    }
  }

  std::vector<double> eig(n);
  for (size_t i = 0; i < n; ++i) eig[i] = a.Row(i)[i];
  std::sort(eig.begin(), eig.end(), std::greater<double>());
  return eig;
}

double SingularValueVariance(const Matrix& m) {
  Matrix cov = CovarianceMatrix(m);
  std::vector<double> eig = SymmetricEigenvalues(cov);
  return Variance(eig);
}

}  // namespace hetefedrec
