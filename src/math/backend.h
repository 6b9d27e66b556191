// Numeric compute backend selection (docs/PERFORMANCE.md "Numeric
// backends").
//
// The library carries two arithmetic instantiations of the math/model
// stack:
//
//   fp64       — the reference backend. Every kernel keeps the exact scalar
//                accumulation order the repo's bit-identity guarantees are
//                pinned against; all storage of record (server tables,
//                checkpoints, sync replicas) is double on every backend.
//   fp32_simd  — client-side compute in float. The CPU picks the kernel
//                set, as it does for fp64: the hand-vectorized AVX2+FMA
//                kernels when CpuSupportsFp32Simd(), otherwise the scalar
//                fp32 kernels, whose inner loops mirror the SIMD algorithm
//                lane for lane (std::fmaf chains and the same reduction
//                tree). The scalar set is the portable path (no AVX2+FMA,
//                or a -DHFR_DISABLE_AVX2=ON build) and gives the same bits,
//                so only speed depends on the machine.
//
// The tolerance harness (tests/core/backend_equivalence_test.cc) bounds
// the fp32-vs-fp64 metric drift.
#ifndef HETEFEDREC_MATH_BACKEND_H_
#define HETEFEDREC_MATH_BACKEND_H_

#include <string>

#include "src/util/status.h"

namespace hetefedrec {

/// Which arithmetic the compute-heavy paths (local training, evaluation
/// scoring, distillation) run in. Storage of record stays fp64 everywhere.
enum class ComputeBackend { kFp64, kFp32Simd };

/// Parses "fp64" | "fp32_simd".
StatusOr<ComputeBackend> ComputeBackendByName(const std::string& name);

/// Canonical name ("fp64" | "fp32_simd").
std::string ComputeBackendName(ComputeBackend backend);

/// True when the float kernels run their AVX2+FMA set: the CPU reports
/// both features and the build compiled the SIMD translation unit (i.e.
/// HFR_DISABLE_AVX2 was off). Otherwise they run the scalar fp32 set,
/// with the same bits. Cached after the first call.
bool CpuSupportsFp32Simd();

/// True when the CPU reports AVX2 and the build has the AVX2 code paths
/// (HFR_DISABLE_AVX2 off). The fp64 kernels then run their target("avx2")
/// entry points; those never use FMA, so they give the same bits as the
/// baseline ones. Cached after the first call.
bool CpuHasAvx2();

}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_BACKEND_H_
