// Fixed-bucket histogram for the metrics stream.
//
// Determinism contract (docs/OBSERVABILITY.md): a histogram holds doubles,
// whose accumulation order matters, so it is written only on the round
// thread, never from pool workers, and its rendering is byte-identical
// across thread counts.
#ifndef HETEFEDREC_UTIL_TELEMETRY_METRICS_H_
#define HETEFEDREC_UTIL_TELEMETRY_METRICS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hetefedrec {

/// Fixed-bucket histogram over doubles. Buckets are [..b0], (b0..b1], ...,
/// (b_{n-1}..+inf]; bounds are fixed at construction and must ascend.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  /// One entry per bound plus the overflow bucket, last.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  /// {"count":n,"sum":s,"min":lo,"max":hi,"buckets":[c0,...,cn]}.
  std::string ToJson() const;

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_UTIL_TELEMETRY_METRICS_H_
