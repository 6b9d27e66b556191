#include "src/math/backend.h"

#include <atomic>

#include "src/util/logging.h"

namespace hetefedrec {

namespace {

std::atomic<bool> g_fp32_simd_enabled{false};

}  // namespace

StatusOr<ComputeBackend> ComputeBackendByName(const std::string& name) {
  if (name == "fp64") return ComputeBackend::kFp64;
  if (name == "fp32") return ComputeBackend::kFp32;
  if (name == "fp32_simd") return ComputeBackend::kFp32Simd;
  return Status::InvalidArgument("unknown compute backend '" + name +
                                 "' (expected fp64|fp32|fp32_simd)");
}

std::string ComputeBackendName(ComputeBackend backend) {
  switch (backend) {
    case ComputeBackend::kFp64:
      return "fp64";
    case ComputeBackend::kFp32:
      return "fp32";
    case ComputeBackend::kFp32Simd:
      return "fp32_simd";
  }
  return "fp64";
}

bool CpuHasAvx2() {
#if defined(HFR_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

bool CpuSupportsFp32Simd() {
#if defined(HFR_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  static const bool supported = CpuHasAvx2() && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

void SetFp32SimdEnabled(bool enabled) {
  g_fp32_simd_enabled.store(enabled, std::memory_order_relaxed);
}

bool Fp32SimdEnabled() {
  return g_fp32_simd_enabled.load(std::memory_order_relaxed);
}

bool ActivateBackend(ComputeBackend backend) {
  if (backend != ComputeBackend::kFp32Simd) {
    SetFp32SimdEnabled(false);
    return true;
  }
  if (CpuSupportsFp32Simd()) {
    SetFp32SimdEnabled(true);
    return true;
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    HFR_LOG(Warning) << "compute_backend=fp32_simd requested but AVX2+FMA is "
                        "unavailable (CPU or build); running the scalar fp32 "
                        "kernels — results are bit-identical, only slower";
  }
  SetFp32SimdEnabled(false);
  return false;
}

}  // namespace hetefedrec
