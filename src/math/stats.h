// Column statistics: means, variances, the covariance matrix and column
// standardization.
//
// These feed two parts of the paper: the dimensional decorrelation
// regularizer (Eq. 13 standardizes columns and penalizes the correlation
// matrix) and the collapse diagnostic of Table V (variance of the
// eigenvalues of the item-embedding covariance matrix).
#ifndef HETEFEDREC_MATH_STATS_H_
#define HETEFEDREC_MATH_STATS_H_

#include <vector>

#include "src/math/matrix.h"

namespace hetefedrec {

/// Per-column means of `m` (length = cols).
std::vector<double> ColumnMeans(const Matrix& m);

/// Per-column population variances (divide by rows).
std::vector<double> ColumnVariances(const Matrix& m);

/// Covariance matrix of the columns (cols x cols), population normalization.
Matrix CovarianceMatrix(const Matrix& m);

/// Column-standardized copy: (m - colmean) / sqrt(colvar + eps).
Matrix StandardizeColumns(const Matrix& m, double eps = 1e-12);

/// Mean of a vector.
double Mean(const std::vector<double>& v);

/// Population variance of a vector.
double Variance(const std::vector<double>& v);

/// Standard deviation (sqrt of population variance).
double StdDev(const std::vector<double>& v);

/// p-th percentile (0..100) by nearest-rank on a sorted copy.
double Percentile(std::vector<double> v, double p);

}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_STATS_H_
