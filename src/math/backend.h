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
//   fp32       — client-side compute in float with the *scalar* fp32
//                kernels: each inner loop mirrors the SIMD algorithm
//                lane-for-lane (std::fmaf chains and the same reduction
//                tree), so its results are bit-identical to fp32_simd on
//                any machine. Serves as the portable fallback and the
//                speedup denominator for the SIMD arm.
//   fp32_simd  — the same float arithmetic through hand-vectorized
//                AVX2+FMA kernels, selected at runtime via CPU detection.
//                When AVX2+FMA is unavailable (or the build disabled it
//                with -DHFR_DISABLE_AVX2=ON) the scalar fp32 kernels run
//                instead — results are identical either way, only speed
//                changes.
//
// Because fp32 and fp32_simd produce the same bits, the backend knob has
// exactly two *numeric* behaviours (double vs float), and the tolerance
// harness (tests/core/backend_equivalence_test.cc) only has to bound
// fp32-vs-fp64 metric drift.
#ifndef HETEFEDREC_MATH_BACKEND_H_
#define HETEFEDREC_MATH_BACKEND_H_

#include <string>

#include "src/util/status.h"

namespace hetefedrec {

/// Which arithmetic the compute-heavy paths (local training, evaluation
/// scoring, distillation) run in. Storage of record stays fp64 everywhere.
enum class ComputeBackend { kFp64, kFp32, kFp32Simd };

/// Parses "fp64" | "fp32" | "fp32_simd".
StatusOr<ComputeBackend> ComputeBackendByName(const std::string& name);

/// Canonical name ("fp64" | "fp32" | "fp32_simd").
std::string ComputeBackendName(ComputeBackend backend);

/// True when this process can run the AVX2+FMA kernels: the CPU reports
/// both features and the build compiled the SIMD translation unit (i.e.
/// HFR_DISABLE_AVX2 was off).
bool CpuSupportsFp32Simd();

/// True when the CPU reports AVX2 and the build has the AVX2 code paths
/// (HFR_DISABLE_AVX2 off). The fp64 kernels then run their target("avx2")
/// entry points; those never use FMA, so they give the same bits as the
/// baseline ones. Cached after the first call.
bool CpuHasAvx2();

/// Process-wide switch consulted by the float kernel entry points: when
/// true (and CpuSupportsFp32Simd()), float kernels dispatch to the AVX2
/// implementations; otherwise they run the lane-emulating scalar fp32
/// code. Results are bit-identical either way, so flipping this is
/// results-inert — it only selects the instruction set. Set it before
/// worker threads start (plain store, read relaxed in the kernels).
void SetFp32SimdEnabled(bool enabled);
bool Fp32SimdEnabled();

/// Applies a backend choice to the process: returns false (and logs once)
/// when fp32_simd was requested but AVX2+FMA is unavailable — the caller
/// proceeds on the scalar fp32 kernels with identical results.
bool ActivateBackend(ComputeBackend backend);

}  // namespace hetefedrec

#endif  // HETEFEDREC_MATH_BACKEND_H_
