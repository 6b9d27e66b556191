// ForwardBatch/BackwardBatch must be bit-identical to per-sample
// Forward/Backward across widths, batch sizes and head shapes. Bit
// patterns are compared: EXPECT_EQ on doubles would accept -0.0 for +0.0,
// which a broken exact-zero skip produces.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/math/activations.h"
#include "src/models/ffn.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

void ExpectSameBits(const Matrix& a, const Matrix& b, const char* what,
                    size_t layer) {
  ASSERT_EQ(a.data().size(), b.data().size());
  for (size_t t = 0; t < a.data().size(); ++t) {
    ASSERT_EQ(Bits(a.data()[t]), Bits(b.data()[t]))
        << "layer " << layer << " " << what << " " << t << ": "
        << a.data()[t] << " vs " << b.data()[t];
  }
}

void ExpectSameNet(const FeedForwardNet& a, const FeedForwardNet& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (size_t l = 0; l < a.num_layers(); ++l) {
    ExpectSameBits(a.weight(l), b.weight(l), "weight", l);
    ExpectSameBits(a.bias(l), b.bias(l), "bias", l);
  }
}

// Gradient accumulators that start at −0.0: a term the exact-zero skip
// must drop would turn such an entry into +0.0.
FeedForwardNet NegativeZerosLike(const FeedForwardNet& net) {
  FeedForwardNet grads = FeedForwardNet::ZerosLike(net);
  for (size_t l = 0; l < grads.num_layers(); ++l) {
    for (double& v : grads.weight(l).data()) v = -0.0;
    for (double& v : grads.bias(l).data()) v = -0.0;
  }
  return grads;
}

// A hidden-layer shape. With `dead`, layer 0's biases are pushed down so
// that most of its ReLUs output exactly +0.0, the input layer 1 reads, and
// the later layers' biases are −0.0, which an all-zero input row keeps
// only through the skip.
struct Head {
  std::vector<size_t> hidden;
  bool dead;
};

void PrintTo(const Head& h, std::ostream* os) {
  *os << "hidden";
  for (size_t w : h.hidden) *os << "_" << w;
  if (h.dead) *os << "_dead";
}

class FfnBatchEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, Head>> {};

TEST_P(FfnBatchEquivalence, ForwardAndBackwardBitIdentical) {
  const size_t width = std::get<0>(GetParam());
  const size_t batch = std::get<1>(GetParam());
  const Head& head = std::get<2>(GetParam());
  const size_t input_dim = 2 * width;

  FeedForwardNet net(input_dim, head.hidden);
  Rng rng(91);
  net.InitXavier(&rng);
  if (head.dead) {
    for (double& b : net.bias(0).data()) b = -0.6;
    for (size_t l = 1; l < net.num_layers(); ++l) {
      for (double& b : net.bias(l).data()) b = -0.0;
    }
  }

  std::vector<double> x(batch * input_dim);
  std::vector<double> dlogits(batch);
  for (double& v : x) v = rng.Normal(0.0, 0.4);
  for (double& v : dlogits) v = rng.Normal(0.0, 1.0);
  // Exact zeros of both signs exercise the skip path shared with the
  // scalar loops.
  for (size_t t = 0; t < x.size(); t += 7) x[t] = 0.0;
  for (size_t t = 3; t < x.size(); t += 11) x[t] = -0.0;

  // Batched pass.
  FeedForwardNet::BatchCache bcache;
  std::vector<double> logits_batch(batch);
  net.ForwardBatch(x.data(), batch, &bcache, logits_batch.data());
  FeedForwardNet grads_batch = NegativeZerosLike(net);
  std::vector<double> dx_batch(batch * input_dim);
  net.BackwardBatch(bcache, dlogits.data(), &grads_batch, dx_batch.data());

  // Per-sample reference, in ascending sample order.
  FeedForwardNet grads_ref = NegativeZerosLike(net);
  std::vector<double> dx_ref(input_dim);
  FeedForwardNet::Cache cache;
  size_t relu_zeros = 0, relu_outputs = 0;
  for (size_t b = 0; b < batch; ++b) {
    double logit = net.Forward(x.data() + b * input_dim, &cache);
    ASSERT_EQ(Bits(logits_batch[b]), Bits(logit)) << "sample " << b;
    for (double v : cache.post[0]) relu_zeros += v == 0.0 ? 1 : 0;
    relu_outputs += cache.post[0].size();
    net.Backward(cache, dlogits[b], &grads_ref, dx_ref.data());
    for (size_t i = 0; i < input_dim; ++i) {
      ASSERT_EQ(Bits(dx_batch[b * input_dim + i]), Bits(dx_ref[i]))
          << "sample " << b << " dim " << i;
    }
  }
  if (head.dead) EXPECT_GT(2 * relu_zeros, relu_outputs);
  ExpectSameNet(grads_batch, grads_ref);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsBatchesAndHeads, FfnBatchEquivalence,
    ::testing::Combine(::testing::Values(size_t{8}, size_t{16}, size_t{32}),
                       ::testing::Values(size_t{1}, size_t{7}, size_t{64}),
                       ::testing::Values(Head{{8, 8}, false},
                                         Head{{3, 5}, false},
                                         Head{{16, 1}, false},
                                         Head{{8, 8}, true})));

// ForwardBatchFromPrefix (the evaluation forward: rows sharing their
// leading inputs resume from a per-user layer-0 prefix) against per-row
// Forward on the assembled rows.
enum class PrefixCorner {
  kPlain,
  // Layer 0's biases and user half are zero, so the prefix is −0.0; every
  // later bias is −0.0; all-zero item rows keep those −0.0 values only
  // through the exact-zero skip.
  kNegativeZeros,
  // Dead layer-0 ReLUs feed hidden weights with ±Inf rows, which the skip
  // hides wherever the activation is exactly zero.
  kNonFiniteHidden,
};

struct PrefixCase {
  std::vector<size_t> hidden;
  size_t suffix_dim;
  size_t batch;
  PrefixCorner corner;
};

void PrintTo(const PrefixCase& c, std::ostream* os) {
  *os << "hidden";
  for (size_t w : c.hidden) *os << "_" << w;
  *os << "_suffix" << c.suffix_dim << "_batch" << c.batch << "_corner"
      << static_cast<int>(c.corner);
}

std::vector<PrefixCase> PrefixCases() {
  const std::vector<std::vector<size_t>> hiddens = {{},     {1},    {3},
                                                    {5, 7}, {8, 8}, {16, 9}};
  std::vector<PrefixCase> cases;
  for (const auto& hidden : hiddens) {
    for (size_t suffix_dim : {1, 3, 8, 13}) {
      for (size_t batch : {1, 3, 5, 127, 129}) {
        for (PrefixCorner corner :
             {PrefixCorner::kPlain, PrefixCorner::kNegativeZeros,
              PrefixCorner::kNonFiniteHidden}) {
          cases.push_back({hidden, suffix_dim, batch, corner});
        }
      }
    }
  }
  return cases;
}

class FfnPrefixEquivalence : public ::testing::TestWithParam<PrefixCase> {};

TEST_P(FfnPrefixEquivalence, ForwardBatchFromPrefixMatchesForwardPerRow) {
  const PrefixCase& c = GetParam();
  const size_t split = c.suffix_dim + 2;  // the shared (user) half
  const size_t input_dim = split + c.suffix_dim;
  const size_t stride = c.suffix_dim + 5;  // rows wider than the suffix
  FeedForwardNet net(input_dim, c.hidden);
  Rng rng(131 + c.suffix_dim);
  net.InitXavier(&rng);
  std::vector<double> user(split);
  for (double& v : user) v = rng.Normal(0.0, 0.4);
  std::vector<double> items(c.batch * stride);
  for (double& v : items) v = rng.Normal(0.0, 0.4);
  for (size_t t = 0; t < items.size(); t += 7) items[t] = 0.0;
  for (size_t t = 3; t < items.size(); t += 11) items[t] = -0.0;
  if (c.corner == PrefixCorner::kNegativeZeros) {
    for (double& v : user) v = 0.0;
    for (size_t l = 0; l < net.num_layers(); ++l) {
      for (double& b : net.bias(l).data()) b = -0.0;
    }
    for (size_t b = 0; b < c.batch; b += 2) {
      for (size_t i = 0; i < c.suffix_dim; ++i) items[b * stride + i] = 0.0;
    }
  }
  if (c.corner == PrefixCorner::kNonFiniteHidden) {
    for (double& b : net.bias(0).data()) b = -0.3;
    // ±Inf only: every NaN the sums make is then the default NaN, whose
    // bits do not depend on the order of the operands.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (size_t l = 1; l < net.num_layers(); ++l) {
      Matrix& w = net.weight(l);
      for (size_t j = 0; j < w.cols(); ++j) {
        w(0, j) = j % 2 == 0 ? kInf : -kInf;
        w(w.rows() - 1, j) = j % 2 == 0 ? -kInf : kInf;
      }
    }
  }

  std::vector<double> prefix(net.weight(0).cols());
  net.ForwardPrefix(user.data(), split, prefix.data());
  std::vector<double> logits(c.batch);
  net.ForwardBatchFromPrefix(prefix.data(), items.data(), c.batch,
                             c.suffix_dim, stride, logits.data());

  std::vector<double> row(input_dim);
  std::copy(user.begin(), user.end(), row.begin());
  for (size_t b = 0; b < c.batch; ++b) {
    std::copy(items.begin() + b * stride,
              items.begin() + b * stride + c.suffix_dim, row.begin() + split);
    const double want = net.Forward(row.data(), nullptr);
    ASSERT_EQ(Bits(logits[b]), Bits(want))
        << "row " << b << ": " << logits[b] << " vs " << want;
  }
}

INSTANTIATE_TEST_SUITE_P(HiddenWidthsBatchesAndCorners, FfnPrefixEquivalence,
                         ::testing::ValuesIn(PrefixCases()));

TEST(FfnBatchTest, EmptyBatchIsANoOp) {
  FeedForwardNet net(8, {8, 8});
  Rng rng(3);
  net.InitXavier(&rng);
  FeedForwardNet::BatchCache cache;
  net.ForwardBatch(nullptr, 0, &cache, nullptr);
  EXPECT_EQ(cache.batch, 0u);
  FeedForwardNet grads = FeedForwardNet::ZerosLike(net);
  net.BackwardBatch(cache, nullptr, &grads, nullptr);
  EXPECT_EQ(grads.MaxAbs(), 0.0);
}

TEST(FfnBatchTest, GradientAccumulationComposesAcrossCalls) {
  // Two consecutive batched backwards into one accumulator must equal the
  // eight per-sample backwards in the same global order.
  const size_t input_dim = 16;
  FeedForwardNet net(input_dim, {8, 8});
  Rng rng(5);
  net.InitXavier(&rng);
  std::vector<double> x(8 * input_dim);
  std::vector<double> dlogits(8);
  for (double& v : x) v = rng.Normal(0.0, 0.4);
  for (double& v : dlogits) v = rng.Normal(0.0, 1.0);

  FeedForwardNet grads_batch = FeedForwardNet::ZerosLike(net);
  FeedForwardNet::BatchCache bcache;
  std::vector<double> logits(4);
  for (size_t half = 0; half < 2; ++half) {
    net.ForwardBatch(x.data() + half * 4 * input_dim, 4, &bcache,
                     logits.data());
    net.BackwardBatch(bcache, dlogits.data() + half * 4, &grads_batch,
                      nullptr);
  }

  FeedForwardNet grads_ref = FeedForwardNet::ZerosLike(net);
  FeedForwardNet::Cache cache;
  for (size_t b = 0; b < 8; ++b) {
    net.Forward(x.data() + b * input_dim, &cache);
    net.Backward(cache, dlogits[b], &grads_ref, nullptr);
  }
  ExpectSameNet(grads_batch, grads_ref);
}

}  // namespace
}  // namespace hetefedrec
