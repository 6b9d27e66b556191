#include "src/math/stats.h"

#include <algorithm>
#include <cmath>

namespace hetefedrec {

std::vector<double> ColumnMeans(const Matrix& m) {
  std::vector<double> means(m.cols(), 0.0);
  if (m.rows() == 0) return means;
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.Row(r);
    for (size_t c = 0; c < m.cols(); ++c) means[c] += row[c];
  }
  for (double& v : means) v /= static_cast<double>(m.rows());
  return means;
}

std::vector<double> ColumnVariances(const Matrix& m) {
  std::vector<double> vars(m.cols(), 0.0);
  if (m.rows() == 0) return vars;
  std::vector<double> means = ColumnMeans(m);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.Row(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      double d = row[c] - means[c];
      vars[c] += d * d;
    }
  }
  for (double& v : vars) v /= static_cast<double>(m.rows());
  return vars;
}

Matrix CovarianceMatrix(const Matrix& m) {
  const size_t n = m.cols();
  Matrix cov(n, n);
  if (m.rows() == 0) return cov;
  std::vector<double> means = ColumnMeans(m);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.Row(r);
    for (size_t a = 0; a < n; ++a) {
      double da = row[a] - means[a];
      double* ca = cov.Row(a);
      for (size_t b = a; b < n; ++b) {
        ca[b] += da * (row[b] - means[b]);
      }
    }
  }
  double inv = 1.0 / static_cast<double>(m.rows());
  for (size_t a = 0; a < n; ++a) {
    double* ca = cov.Row(a);
    for (size_t b = a; b < n; ++b) {
      ca[b] *= inv;
      cov.Row(b)[a] = ca[b];
    }
  }
  return cov;
}

Matrix StandardizeColumns(const Matrix& m, double eps) {
  std::vector<double> means = ColumnMeans(m);
  std::vector<double> vars = ColumnVariances(m);
  Matrix out(m.rows(), m.cols());
  for (size_t c = 0; c < m.cols(); ++c) {
    double inv_sd = 1.0 / std::sqrt(vars[c] + eps);
    for (size_t r = 0; r < m.rows(); ++r) {
      out(r, c) = (m(r, c) - means[c]) * inv_sd;
    }
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double mu = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - mu) * (x - mu);
  return s / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace hetefedrec
