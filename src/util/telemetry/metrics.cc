#include "src/util/telemetry/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/util/logging.h"
#include "src/util/telemetry/json.h"

namespace hetefedrec {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    HFR_CHECK_LT(bounds_[i - 1], bounds_[i]) << "histogram bounds must ascend";
  }
}

void Histogram::Observe(double v) {
  size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  ++counts_[b];
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

std::string Histogram::ToJson() const {
  std::string buckets = "[";
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (i) buckets += ',';
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, counts_[i]);
    buckets += buf;
  }
  buckets += ']';
  JsonObj o;
  o.U64("count", count())
      .Num("sum", sum())
      .Num("min", min())
      .Num("max", max())
      .Raw("buckets", buckets);
  return o.Build();
}

}  // namespace hetefedrec
