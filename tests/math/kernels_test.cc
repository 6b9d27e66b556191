// The batched micro-kernels must be bit-identical to their scalar
// reference loops — batching, register tiling and vector width regroup
// independent accumulator targets but never the additions into one
// target. The fp64 checks compare bit patterns: EXPECT_EQ on doubles
// would accept -0.0 for +0.0 (a broken exact-zero skip) and reject the
// NaNs an unskipped Inf * 0 term must produce.
#include "src/math/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/math/backend.h"
#include "src/math/init.h"
#include "src/math/kernels_fp32.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

std::vector<double> RandomBlock(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Normal(0.0, 0.3);
  return v;
}

// RandomBlock salted with exact zeros of both signs.
std::vector<double> ZeroSalted(size_t n, uint64_t seed) {
  std::vector<double> v = RandomBlock(n, seed);
  for (size_t t = 0; t < n; ++t) {
    if (t % 5 == 1) v[t] = 0.0;
    if (t % 7 == 3) v[t] = -0.0;
  }
  return v;
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

template <typename T>
::testing::AssertionResult SameBits(const std::vector<T>& got,
                                    const std::vector<T>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (size_t t = 0; t < got.size(); ++t) {
    if (Bits(got[t]) != Bits(want[t])) {
      // One Message, so std::hex reaches the bit patterns.
      ::testing::Message msg;
      msg << "element " << t << ": " << got[t] << " (0x" << std::hex
          << Bits(got[t]) << ") vs " << want[t] << " (0x" << Bits(want[t])
          << ")";
      return ::testing::AssertionFailure() << msg;
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// The shape sweep every fp64 kernel is pinned on: out_dim covers the
// fixed widths, their tails and the wide tiled path; in_dim and batch
// straddle the tile edges.
const size_t kOutDims[] = {1, 2, 3, 4, 8, 16, 32, 128};
const size_t kInDims[] = {1, 3, 8, 17, 64, 256};
const size_t kBatches[] = {1, 2, 3, 5, 33, 100};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// What the sweep salts its inputs with. The kernels drop the exact-zero
// skip where it provably changes nothing — no exact zero on the left, or a
// finite right operand and no −0.0 initial value — and keep it otherwise,
// so each kind pins one side of that predicate:
enum class Salt {
  kZeroFree,           // no exact zero on the left: select-free
  kZerosBehindInf,     // ±Inf on the right behind zero left operands
  kZerosFinite,        // zeros, finite right: select-free
  kZerosNegZeroInit,   // zeros, finite right, −0.0 init kept by the skip
  kNonFiniteAtNonzero  // ±Inf/NaN on the right only behind nonzero inputs
};

const Salt kSalts[] = {Salt::kZeroFree, Salt::kZerosBehindInf,
                       Salt::kZerosFinite, Salt::kZerosNegZeroInit,
                       Salt::kNonFiniteAtNonzero};

bool HasZeros(Salt salt) { return salt != Salt::kZeroFree; }

// Whether the accumulators may start at −0.0: where that is the point
// (kZerosNegZeroInit) or cannot matter (kZeroFree). Under the other salts
// no accumulator starts at −0.0, so the right operand alone decides
// whether the skip stays.
bool NegZeroInit(Salt salt) {
  return salt == Salt::kZeroFree || salt == Salt::kZerosNegZeroInit;
}

// v with every −0.0 replaced by +0.0.
void ClearNegativeZeros(std::vector<double>* v) {
  for (double& x : *v) x = std::signbit(x) && x == 0.0 ? 0.0 : x;
}

// Sweep inputs: x (batch x in_dim), w (in_dim x out_dim) and the seed row
// the accumulators start from. Zero-salted kinds carry exact zeros of both
// signs in x, input column 0 all zero and, from batch 3 on, one all-zero
// row (every accumulator of it keeps its seed only through the skip).
// kNonFiniteAtNonzero makes input columns 1 and 2 nonzero in every row
// and the matching rows of w NaN and ±Inf. The seed starts with −0.0 where
// NegZeroInit allows it and holds no −0.0 otherwise.
struct SweepCase {
  size_t batch, in_dim, out_dim;
  Salt salt;
  std::vector<double> x, w, seed;
};

SweepCase MakeCase(size_t batch, size_t in_dim, size_t out_dim, Salt salt) {
  SweepCase c{batch, in_dim, out_dim, salt, {}, {}, {}};
  const uint64_t salt_seed = batch * 1000003 + in_dim * 1009 + out_dim;
  c.w = RandomBlock(in_dim * out_dim, 2 + salt_seed);
  c.seed = ZeroSalted(out_dim, 3 + salt_seed);
  c.seed[0] = -0.0;
  if (!NegZeroInit(salt)) ClearNegativeZeros(&c.seed);
  if (!HasZeros(salt)) {
    c.x = RandomBlock(batch * in_dim, 1 + salt_seed);
    return c;
  }
  c.x = ZeroSalted(batch * in_dim, 1 + salt_seed);
  for (size_t b = 0; b < batch; ++b) c.x[b * in_dim] = 0.0;
  if (batch >= 3) {
    for (size_t i = 0; i < in_dim; ++i) c.x[(batch / 2) * in_dim + i] = -0.0;
  }
  if (salt == Salt::kZerosBehindInf) {
    for (size_t j = 0; j < out_dim; ++j) c.w[j] = (j % 2 == 0) ? kInf : -kInf;
  }
  if (salt == Salt::kNonFiniteAtNonzero) {
    // A NaN row and a ±Inf row of w, each behind an input column that is
    // nonzero in every row. One kind of NaN per accumulator: sums that
    // meet NaNs of two payloads may keep either, by operand order.
    for (size_t live = 1; live < std::min<size_t>(in_dim, 3); ++live) {
      for (size_t b = 0; b < batch; ++b) c.x[b * in_dim + live] = 0.25 + b;
      for (size_t j = 0; j < out_dim; ++j) {
        c.w[live * out_dim + j] =
            live == 1 ? kNaN : (j % 2 == 0 ? kInf : -kInf);
      }
    }
  }
  return c;
}

// The scalar FFN-layer loop (ffn.cc's per-sample Forward body), resuming
// from `init`.
void ScalarGemv(const double* x, size_t in_dim, const double* w,
                const double* init, size_t out_dim, double* out) {
  for (size_t j = 0; j < out_dim; ++j) out[j] = init[j];
  for (size_t i = 0; i < in_dim; ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t j = 0; j < out_dim; ++j) out[j] += xi * w[i * out_dim + j];
  }
}

// Runs `check` on every sweep shape under every salt.
template <typename Check>
void ForEachSweepCase(Check check) {
  for (Salt salt : kSalts) {
    for (size_t out_dim : kOutDims) {
      for (size_t in_dim : kInDims) {
        for (size_t batch : kBatches) {
          SCOPED_TRACE(::testing::Message()
                       << "out=" << out_dim << " in=" << in_dim
                       << " batch=" << batch
                       << " salt=" << static_cast<int>(salt));
          check(MakeCase(batch, in_dim, out_dim, salt));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(GemvBatchTest, BitIdenticalToPerSampleGemvAcrossShapes) {
  ForEachSweepCase([](const SweepCase& c) {
    const size_t batch = c.batch, in_dim = c.in_dim, out_dim = c.out_dim;
    std::vector<double> ref(batch * out_dim);
    for (size_t b = 0; b < batch; ++b) {
      ScalarGemv(c.x.data() + b * in_dim, in_dim, c.w.data(), c.seed.data(),
                 out_dim, ref.data() + b * out_dim);
    }
    std::vector<double> biased(batch * out_dim);
    GemvBatchBiased(c.x.data(), batch, in_dim, c.w.data(), c.seed.data(),
                    out_dim, biased.data());
    ASSERT_TRUE(SameBits(biased, ref)) << "biased";

    // Resume: the first `split` inputs are folded into a per-row prefix
    // the kernel resumes from.
    const size_t split = in_dim / 2, rest = in_dim - split;
    std::vector<double> prefix(out_dim), resumed(batch * out_dim);
    for (size_t b = 0; b < batch; ++b) {
      ScalarGemv(c.x.data() + b * in_dim, split, c.w.data(), c.seed.data(),
                 out_dim, prefix.data());
      GemvBatchResume(c.x.data() + b * in_dim + split, 1, in_dim, rest,
                      c.w.data() + split * out_dim, prefix.data(), out_dim,
                      resumed.data() + b * out_dim);
    }
    ASSERT_TRUE(SameBits(resumed, ref)) << "resumed";

    // Strided rows: the suffix of every row, rows in_dim apart.
    std::vector<double> strided(batch * out_dim), strided_ref(batch * out_dim);
    GemvBatchResume(c.x.data() + split, batch, in_dim, rest,
                    c.w.data() + split * out_dim, c.seed.data(), out_dim,
                    strided.data());
    for (size_t b = 0; b < batch; ++b) {
      ScalarGemv(c.x.data() + b * in_dim + split, rest,
                 c.w.data() + split * out_dim, c.seed.data(), out_dim,
                 strided_ref.data() + b * out_dim);
    }
    ASSERT_TRUE(SameBits(strided, strided_ref)) << "strided";
  });
}

TEST(AccumulateOuterBatchTest, BitIdenticalToSampleOrderAcrossShapes) {
  // Here `in` is the left operand, delta the right one and the gradient
  // panel the initial value: the salt moves to delta (non-finite entries)
  // and to the panel (−0.0 entries).
  ForEachSweepCase([](const SweepCase& c) {
    const size_t batch = c.batch, in_dim = c.in_dim, out_dim = c.out_dim;
    std::vector<double> in = c.x;
    std::vector<double> delta = ZeroSalted(batch * out_dim, 5 + batch);
    const size_t dead = batch / 2;
    if (c.salt == Salt::kZerosBehindInf) {
      // One ±Inf delta row behind an all-zero input row (the bias sum
      // still takes it).
      for (size_t i = 0; i < in_dim; ++i) in[dead * in_dim + i] = 0.0;
      for (size_t j = 0; j < out_dim; ++j) {
        delta[dead * out_dim + j] = (j % 2 == 0) ? kInf : -kInf;
      }
    }
    if (c.salt == Salt::kNonFiniteAtNonzero) {
      // Non-finite deltas only in a row whose inputs are all nonzero.
      const size_t live = batch - 1;
      for (size_t i = 0; i < in_dim; ++i) in[live * in_dim + i] = 0.5 + i;
      for (size_t j = 0; j < out_dim; ++j) {
        delta[live * out_dim + j] =
            j % 3 == 0 ? kNaN : (j % 3 == 1 ? kInf : -kInf);
      }
    }
    // Panels start at ZeroSalted values with −0.0 where NegZeroInit
    // allows it, +0.0 there otherwise.
    std::vector<double> gw = ZeroSalted(in_dim * out_dim, 7 + in_dim);
    std::vector<double> gb = c.seed;
    gw[0] = -0.0;
    if (!NegZeroInit(c.salt)) ClearNegativeZeros(&gw);
    std::vector<double> gw_ref = gw, gb_ref = gb;

    AccumulateOuterBatch(in.data(), delta.data(), batch, in_dim, out_dim,
                         gw.data(), gb.data());
    for (size_t b = 0; b < batch; ++b) {
      const double* irow = in.data() + b * in_dim;
      const double* drow = delta.data() + b * out_dim;
      for (size_t j = 0; j < out_dim; ++j) gb_ref[j] += drow[j];
      for (size_t i = 0; i < in_dim; ++i) {
        if (irow[i] == 0.0) continue;
        for (size_t j = 0; j < out_dim; ++j) {
          gw_ref[i * out_dim + j] += irow[i] * drow[j];
        }
      }
    }
    ASSERT_TRUE(SameBits(gw, gw_ref)) << "gw";
    ASSERT_TRUE(SameBits(gb, gb_ref)) << "gb";
  });
}

TEST(GemvBatchTransposedTest, BitIdenticalToPerSampleDotsAcrossShapes) {
  ForEachSweepCase([](const SweepCase& c) {
    const size_t batch = c.batch, in_dim = c.in_dim, out_dim = c.out_dim;
    // No exact-zero skip here: in the salted cases the non-finite weight
    // rows meet zero deltas and must come out NaN exactly as the scalar
    // loop's do.
    std::vector<double> delta = ZeroSalted(batch * out_dim, 11 + batch);
    std::vector<double> dx(batch * in_dim), ref(batch * in_dim);
    GemvBatchTransposed(delta.data(), batch, out_dim, c.w.data(), in_dim,
                        dx.data());
    for (size_t b = 0; b < batch; ++b) {
      for (size_t i = 0; i < in_dim; ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < out_dim; ++j) {
          acc += c.w[i * out_dim + j] * delta[b * out_dim + j];
        }
        ref[b * in_dim + i] = acc;
      }
    }
    ASSERT_TRUE(SameBits(dx, ref));
  });
}

// Column Gram inputs: zero-free, finite with exact zeros (the skip is
// inert there and dropped), or zero-salted with one ±Inf column, where the
// skip is kept.
enum class GramInput { kZeroFree, kZeros, kZerosNonFinite };

void CheckColumnGram(size_t m, size_t n, GramInput input) {
  std::vector<double> x = RandomBlock(m * n, 13 + m * 131 + n);
  if (input != GramInput::kZeroFree) {
    x = ZeroSalted(m * n, 13 + m * 131 + n);
    // A constant (all-zero) column, as a standardized constant column is.
    for (size_t k = 0; k < m; ++k) x[k * n + n / 2] = (k % 2) ? 0.0 : -0.0;
  }
  if (input == GramInput::kZerosNonFinite) {
    for (size_t k = 0; k < m; ++k) x[k * n] = (k % 2) ? kInf : -kInf;
  }
  std::vector<double> c(n * n), ref(n * n, 0.0);
  ColumnGram(x.data(), m, n, c.data());
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < m; ++k) {
      const double xki = x[k * n + i];
      if (xki == 0.0) continue;
      for (size_t j = 0; j < n; ++j) ref[i * n + j] += xki * x[k * n + j];
    }
  }
  if (input == GramInput::kZerosNonFinite) {
    // The mirror is exact on finite input only: compare the triangle the
    // kernel computes.
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < i; ++j) c[i * n + j] = ref[i * n + j];
    }
  }
  ASSERT_TRUE(SameBits(c, ref)) << "m=" << m << " n=" << n
                                << " input=" << static_cast<int>(input);
}

TEST(ColumnGramTest, BitIdenticalToNaiveTransposeProduct) {
  // The reference is the naive (xᵀ)·x product over the full square (no
  // mirroring): pins the kernel's tiles and its mirror claim together.
  for (GramInput input : {GramInput::kZeroFree, GramInput::kZeros,
                          GramInput::kZerosNonFinite}) {
    for (size_t m : {1, 2, 3, 5, 33, 100, 256}) {
      for (size_t n : {1, 2, 3, 4, 5, 8, 9, 17, 33, 64, 128}) {
        CheckColumnGram(m, n, input);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(GramMatrixTest, BitIdenticalToPairwiseDot) {
  // k straddles the tile size; includes an all-zero row.
  for (size_t k : {size_t{1}, size_t{7}, size_t{33}, size_t{70}}) {
    const size_t n = 24;
    std::vector<double> x = RandomBlock(k * n, 23 + k);
    if (k > 2) std::fill(x.begin() + n, x.begin() + 2 * n, 0.0);
    Matrix gram(k, k);
    GramMatrix(x.data(), k, n, &gram);
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = 0; b < k; ++b) {
        ASSERT_EQ(gram(a, b), Dot(x.data() + a * n, x.data() + b * n, n))
            << "k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
}

// --- fp32 backend: accuracy bounds against fp64 ---------------------------
//
// The float kernels are NOT bit-comparable to double (fused multiply-adds,
// no zero skip, tree reductions), so these tests bound the drift instead:
// for inputs cast from the double block, every fp32 output must stay within
// a mixed absolute/relative envelope of the fp64 reference. The envelope is
// sized for <= a few hundred accumulated terms of O(0.3) magnitude — loose
// enough to never flake, tight enough that an algorithmic error (wrong
// element, missed term, unreduced lane) fails by orders of magnitude.
constexpr double kFp32Tol = 1e-4;

void ExpectClose(float got, double want, const char* what, size_t idx) {
  EXPECT_LE(std::fabs(static_cast<double>(got) - want),
            kFp32Tol * (1.0 + std::fabs(want)))
      << what << " idx=" << idx << " fp32=" << got << " fp64=" << want;
}

std::vector<float> Cast(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

TEST(Fp32AccuracyTest, DotWithinTolerance) {
  for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{37}, size_t{64},
                   size_t{129}}) {
    std::vector<double> a = RandomBlock(n, 101 + n);
    std::vector<double> b = RandomBlock(n, 103 + n);
    std::vector<float> af = Cast(a), bf = Cast(b);
    ExpectClose(Dot(af.data(), bf.data(), n), Dot(a.data(), b.data(), n),
                "Dot", n);
    ExpectClose(Norm2(af.data(), n), Norm2(a.data(), n), "Norm2", n);
    ExpectClose(CosineSimilarity(af.data(), bf.data(), n),
                CosineSimilarity(a.data(), b.data(), n), "Cosine", n);
  }
}

TEST(Fp32AccuracyTest, AxpyWithinTolerance) {
  const size_t n = 67;
  std::vector<double> x = RandomBlock(n, 107);
  std::vector<double> y = RandomBlock(n, 109);
  std::vector<float> xf = Cast(x), yf = Cast(y);
  Axpy(0.37, x.data(), y.data(), n);
  Axpy(0.37f, xf.data(), yf.data(), n);
  for (size_t i = 0; i < n; ++i) ExpectClose(yf[i], y[i], "Axpy", i);
}

TEST(Fp32AccuracyTest, GemvBatchBiasedWithinTolerance) {
  for (size_t batch : {size_t{1}, size_t{33}}) {
    for (size_t in_dim : {size_t{5}, size_t{64}}) {
      const size_t out_dim = 8;
      std::vector<double> x = RandomBlock(batch * in_dim, 211 + batch);
      std::vector<double> w = RandomBlock(in_dim * out_dim, 223 + in_dim);
      std::vector<double> bias = RandomBlock(out_dim, 227);
      std::vector<double> out(batch * out_dim);
      GemvBatchBiased(x.data(), batch, in_dim, w.data(), bias.data(), out_dim,
                      out.data());
      std::vector<float> xf = Cast(x), wf = Cast(w), bf = Cast(bias);
      std::vector<float> outf(batch * out_dim);
      GemvBatchBiased(xf.data(), batch, in_dim, wf.data(), bf.data(), out_dim,
                      outf.data());
      for (size_t t = 0; t < out.size(); ++t) {
        ExpectClose(outf[t], out[t], "GemvBatchBiased", t);
      }
    }
  }
}

TEST(Fp32AccuracyTest, AccumulateOuterBatchWithinTolerance) {
  const size_t batch = 64, in_dim = 12, out_dim = 8;
  std::vector<double> in = RandomBlock(batch * in_dim, 229);
  std::vector<double> delta = RandomBlock(batch * out_dim, 233);
  std::vector<double> gw(in_dim * out_dim, 0.25), gb(out_dim, -0.5);
  std::vector<float> inf = Cast(in), deltaf = Cast(delta);
  std::vector<float> gwf = Cast(gw), gbf = Cast(gb);
  AccumulateOuterBatch(in.data(), delta.data(), batch, in_dim, out_dim,
                       gw.data(), gb.data());
  AccumulateOuterBatch(inf.data(), deltaf.data(), batch, in_dim, out_dim,
                       gwf.data(), gbf.data());
  for (size_t t = 0; t < gw.size(); ++t) {
    ExpectClose(gwf[t], gw[t], "AccumulateOuterBatch.gw", t);
  }
  for (size_t t = 0; t < gb.size(); ++t) {
    ExpectClose(gbf[t], gb[t], "AccumulateOuterBatch.gb", t);
  }
}

TEST(Fp32AccuracyTest, GemvBatchTransposedWithinTolerance) {
  const size_t batch = 33, in_dim = 16, out_dim = 8;
  std::vector<double> delta = RandomBlock(batch * out_dim, 239);
  std::vector<double> w = RandomBlock(in_dim * out_dim, 241);
  std::vector<double> dx(batch * in_dim);
  GemvBatchTransposed(delta.data(), batch, out_dim, w.data(), in_dim,
                      dx.data());
  std::vector<float> deltaf = Cast(delta), wf = Cast(w);
  std::vector<float> dxf(batch * in_dim);
  GemvBatchTransposed(deltaf.data(), batch, out_dim, wf.data(), in_dim,
                      dxf.data());
  for (size_t t = 0; t < dx.size(); ++t) {
    ExpectClose(dxf[t], dx[t], "GemvBatchTransposed", t);
  }
}

TEST(Fp32AccuracyTest, GramMatrixWithinTolerance) {
  const size_t k = 33, n = 24;
  std::vector<double> x = RandomBlock(k * n, 251);
  Matrix gram(k, k);
  GramMatrix(x.data(), k, n, &gram);
  std::vector<float> xf = Cast(x);
  MatrixF gramf(k, k);
  GramMatrix(xf.data(), k, n, &gramf);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      ExpectClose(gramf(a, b), gram(a, b), "GramMatrix", a * k + b);
    }
  }
}

// --- fp32 dispatch: scalar fallback == AVX2, bit for bit -------------------
//
// The portable scalar fp32 set emulates the vector code lane-for-lane
// (std::fmaf chains, the same 8→4→2→1 reduction tree), so on any input the
// two implementations must agree EXACTLY — this is what lets the CPU pick
// the set without changing an fp32_simd result.

#ifdef HFR_HAVE_AVX2_TU

std::vector<float> RandomFloats(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 0.3));
  return v;
}

// RandomFloats salted with exact zeros of both signs.
std::vector<float> ZeroSaltedFloats(size_t n, uint64_t seed) {
  std::vector<float> v = RandomFloats(n, seed);
  for (size_t t = 0; t < n; ++t) {
    if (t % 5 == 1) v[t] = 0.0f;
    if (t % 7 == 3) v[t] = -0.0f;
  }
  return v;
}

TEST(Fp32DispatchTest, ScalarMatchesAvx2BitForBit) {
  if (!CpuSupportsFp32Simd()) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  // Lengths straddle every code-path boundary: pure tail (<8), exact
  // chunks, chunks + tail.
  for (size_t n : {size_t{1}, size_t{5}, size_t{8}, size_t{16}, size_t{37},
                   size_t{64}, size_t{129}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> a = ZeroSaltedFloats(n, 301 + n);
    std::vector<float> b = ZeroSaltedFloats(n, 307 + n);
    EXPECT_EQ(Bits(fp32::DotAvx2(a.data(), b.data(), n)),
              Bits(fp32::DotScalar(a.data(), b.data(), n)))
        << "Dot";
    std::vector<float> ys = a, yv = a;
    fp32::AxpyScalar(0.37f, b.data(), ys.data(), n);
    fp32::AxpyAvx2(0.37f, b.data(), yv.data(), n);
    EXPECT_TRUE(SameBits(yv, ys)) << "Axpy";
  }

  // Every shape the tiles split differently: out_dim below, at and past
  // one 8-lane block (1 is the FFN output layer, where the input gradient
  // is fmaf(w, d, +0)); in_dim and batch straddle the row tiles and the
  // masked column blocks. Inputs carry exact zeros of both signs, and from
  // batch 3 on one row of x and of delta carries +Inf / -Inf.
  const size_t kFp32OutDims[] = {1, 2, 3, 7, 8, 9, 16, 17};
  const size_t kFp32InDims[] = {1, 3, 8, 17, 64};
  const size_t kFp32Batches[] = {1, 2, 3, 4, 5, 33, 100};
  constexpr float kInfF = std::numeric_limits<float>::infinity();
  for (size_t out_dim : kFp32OutDims) {
    for (size_t in_dim : kFp32InDims) {
      for (size_t batch : kFp32Batches) {
        SCOPED_TRACE(::testing::Message() << "out=" << out_dim
                                          << " in=" << in_dim
                                          << " batch=" << batch);
        const uint64_t salt = batch * 1000003 + in_dim * 1009 + out_dim;
        const size_t x_stride = in_dim + 3;
        std::vector<float> x = ZeroSaltedFloats(batch * x_stride, 311 + salt);
        std::vector<float> w = ZeroSaltedFloats(in_dim * out_dim, 313 + salt);
        std::vector<float> init = ZeroSaltedFloats(out_dim, 317 + salt);
        std::vector<float> delta =
            ZeroSaltedFloats(batch * out_dim, 331 + salt);
        if (batch >= 3) {
          x[1 * x_stride + in_dim / 2] = kInfF;
          x[(batch - 1) * x_stride] = -kInfF;
          delta[2 * out_dim + out_dim - 1] = -kInfF;
        }

        std::vector<float> outs(batch * out_dim), outv(batch * out_dim);
        fp32::GemvBatchResumeScalar(x.data(), batch, x_stride, in_dim,
                                    w.data(), init.data(), out_dim,
                                    outs.data());
        fp32::GemvBatchResumeAvx2(x.data(), batch, x_stride, in_dim, w.data(),
                                  init.data(), out_dim, outv.data());
        ASSERT_TRUE(SameBits(outv, outs)) << "GemvBatchResume";

        // The contiguous rows of x are the layer input; the panels start
        // from non-zero values.
        std::vector<float> in(batch * in_dim);
        for (size_t r = 0; r < batch; ++r) {
          std::copy(x.begin() + r * x_stride,
                    x.begin() + r * x_stride + in_dim, in.begin() + r * in_dim);
        }
        std::vector<float> gws = ZeroSaltedFloats(in_dim * out_dim, 337 + salt);
        std::vector<float> gbs = ZeroSaltedFloats(out_dim, 347 + salt);
        std::vector<float> gwv = gws, gbv = gbs;
        fp32::AccumulateOuterBatchScalar(in.data(), delta.data(), batch,
                                         in_dim, out_dim, gws.data(),
                                         gbs.data());
        fp32::AccumulateOuterBatchAvx2(in.data(), delta.data(), batch, in_dim,
                                       out_dim, gwv.data(), gbv.data());
        ASSERT_TRUE(SameBits(gwv, gws)) << "AccumulateOuterBatch.gw";
        ASSERT_TRUE(SameBits(gbv, gbs)) << "AccumulateOuterBatch.gb";

        std::vector<float> dxs(batch * in_dim), dxv(batch * in_dim);
        fp32::GemvBatchTransposedScalar(delta.data(), batch, out_dim,
                                        w.data(), in_dim, dxs.data());
        fp32::GemvBatchTransposedAvx2(delta.data(), batch, out_dim, w.data(),
                                      in_dim, dxv.data());
        ASSERT_TRUE(SameBits(dxv, dxs)) << "GemvBatchTransposed";
      }
    }
  }
}

#endif  // HFR_HAVE_AVX2_TU

TEST(AlignedStorageTest, MatrixAndKernelBlocksAre32ByteAligned) {
  // The AVX2 kernels load 8-lane vectors straight out of Matrix rows and
  // block scratch; AlignedVector must put every buffer on a 32-byte
  // boundary regardless of shape.
  for (size_t rows : {size_t{1}, size_t{7}, size_t{33}}) {
    Matrix m(rows, 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data().data()) % kSimdAlign, 0u);
    MatrixF f(rows, 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(f.data().data()) % kSimdAlign, 0u);
  }
  AlignedVector<float> scratch;
  scratch.resize(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(scratch.data()) % kSimdAlign, 0u);
}

}  // namespace
}  // namespace hetefedrec
