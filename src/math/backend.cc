#include "src/math/backend.h"

namespace hetefedrec {

StatusOr<ComputeBackend> ComputeBackendByName(const std::string& name) {
  if (name == "fp64") return ComputeBackend::kFp64;
  if (name == "fp32_simd") return ComputeBackend::kFp32Simd;
  return Status::InvalidArgument("unknown compute backend '" + name +
                                 "' (expected fp64|fp32_simd)");
}

std::string ComputeBackendName(ComputeBackend backend) {
  return backend == ComputeBackend::kFp32Simd ? "fp32_simd" : "fp64";
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

}  // namespace hetefedrec
