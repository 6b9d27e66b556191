#include "src/fed/fault/fault_injector.h"

#include <limits>

#include "src/util/logging.h"

namespace hetefedrec {

namespace {
// Stream tags keep the fault draws independent from SimulatedNetwork's
// online/bandwidth/latency families and from each other.
constexpr uint64_t kFaultStream = 0xfa17ULL;
constexpr uint64_t kCorruptStream = 0xc02bULL;

// How many leading values a NaN/Inf corruption poisons. Poisoning a prefix
// rather than everything keeps the fault subtle enough that only a finite
// scan (not a norm check) reliably catches it.
constexpr size_t kPoisonValues = 8;
}  // namespace

FaultInjector::FaultInjector(const FaultOptions& options)
    : options_(options), base_(options.seed) {
  HFR_CHECK_GE(options_.upload_loss, 0.0);
  HFR_CHECK_GE(options_.download_loss, 0.0);
  HFR_CHECK_GE(options_.crash, 0.0);
  HFR_CHECK_GE(options_.duplicate, 0.0);
  HFR_CHECK_GE(options_.corrupt, 0.0);
  const double total = options_.upload_loss + options_.download_loss +
                       options_.crash + options_.duplicate + options_.corrupt;
  HFR_CHECK_LE(total, 1.0);
  any_ = total > 0.0;
}

FaultKind FaultInjector::Draw(UserId u, uint64_t key) const {
  if (!any_) return FaultKind::kNone;
  Rng draw =
      base_.Fork(kFaultStream).Fork(static_cast<uint64_t>(u)).Fork(key);
  double x = draw.Uniform();
  if (x < options_.download_loss) return FaultKind::kDownloadLoss;
  x -= options_.download_loss;
  if (x < options_.crash) return FaultKind::kCrash;
  x -= options_.crash;
  if (x < options_.upload_loss) return FaultKind::kUploadLoss;
  x -= options_.upload_loss;
  if (x < options_.duplicate) return FaultKind::kDuplicate;
  x -= options_.duplicate;
  if (x < options_.corrupt) return FaultKind::kCorrupt;
  return FaultKind::kNone;
}

CorruptMode FaultInjector::Corrupt(UserId u, uint64_t key,
                                   LocalUpdateResult* update) const {
  Rng draw =
      base_.Fork(kCorruptStream).Fork(static_cast<uint64_t>(u)).Fork(key);
  const CorruptMode mode = static_cast<CorruptMode>(draw.UniformInt(3));
  double* data = update->v_delta.data.data();
  const size_t n = update->v_delta.data.size();
  if (n == 0) return mode;
  switch (mode) {
    case CorruptMode::kNaN: {
      const size_t k = n < kPoisonValues ? n : kPoisonValues;
      for (size_t i = 0; i < k; ++i) {
        data[i] = std::numeric_limits<double>::quiet_NaN();
      }
      break;
    }
    case CorruptMode::kInf: {
      const size_t k = n < kPoisonValues ? n : kPoisonValues;
      for (size_t i = 0; i < k; ++i) {
        data[i] = std::numeric_limits<double>::infinity();
      }
      break;
    }
    case CorruptMode::kLargeNorm: {
      for (size_t i = 0; i < n; ++i) data[i] *= 1e3;
      break;
    }
  }
  return mode;
}

}  // namespace hetefedrec
