// Feed-forward preference predictor (the paper's Θ).
//
// Architecture per §V-D: input [u, v] of size 2N, hidden layers [8, 8] with
// ReLU, and a single output logit (Eq. 5 applies the sigmoid; we keep logits
// and use BCE-with-logits for stability). One FeedForwardNet instance also
// serves as the gradient container for another of the same shape, which
// keeps aggregation code uniform (server sums Θ updates exactly like item
// embedding updates, Eq. 15).
//
// Templated on the working scalar: FeedForwardNet (double) is storage of
// record and the bit-identity reference; FeedForwardNetF (float) is the
// fp32 compute backend's client/eval copy, populated from a double net via
// AssignCastFrom at the conversion boundary (never the other way — theta
// deltas are upcast element-wise outside this class).
#ifndef HETEFEDREC_MODELS_FFN_H_
#define HETEFEDREC_MODELS_FFN_H_

#include <vector>

#include "src/math/adam.h"
#include "src/math/matrix.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// \brief Multi-layer perceptron with ReLU hidden activations and a single
/// linear output (logit).
template <typename T>
class FeedForwardNetT {
 public:
  using Scalar = T;

  /// Empty network (no layers). Usable only after assignment.
  FeedForwardNetT() = default;

  /// \param input_dim size of the input vector (2N for NCF/LightGCN).
  /// \param hidden sizes of the hidden layers (paper: {8, 8}).
  FeedForwardNetT(size_t input_dim, std::vector<size_t> hidden);

  /// Xavier-uniform initialization of all weights; biases to zero.
  /// Double instantiation only — float nets are cast from double, never
  /// freshly initialized (the RNG stream is part of the fp64 contract).
  void InitXavier(Rng* rng);

  size_t input_dim() const { return input_dim_; }
  size_t num_layers() const { return weights_.size(); }

  /// Per-sample activations needed by Backward.
  struct Cache {
    AlignedVector<T> input;                    // copy of x
    std::vector<AlignedVector<T>> pre;         // pre-activation per layer
    std::vector<AlignedVector<T>> post;        // post-activation per layer
  };

  /// Batch-of-samples activations needed by BackwardBatch. Layout mirrors
  /// Cache with every buffer widened to `batch` packed rows.
  struct BatchCache {
    size_t batch = 0;
    AlignedVector<T> input;                    // batch x input_dim
    std::vector<AlignedVector<T>> pre;         // per layer, batch x width_l
    std::vector<AlignedVector<T>> post;        // per layer, batch x width_l
  };

  /// Computes the output logit for input `x` (length input_dim). If `cache`
  /// is non-null it is filled for a subsequent Backward call.
  T Forward(const T* x, Cache* cache) const;

  /// Pushes a batch x input_dim block through all layers at once via the
  /// blocked kernels of src/math/kernels.h, writing one logit per row into
  /// `logits`. For T = double bit-identical per row to Forward on that
  /// row. If `cache` is non-null it is filled for a subsequent
  /// BackwardBatch call.
  void ForwardBatch(const T* x, size_t batch, BatchCache* cache,
                    T* logits) const;

  /// Partial first-layer accumulators after consuming only x[0..split):
  /// acc[j] = bias0[j] + Σ_{i<split} x[i]·W0[i,j], ascending i (for
  /// T = double with exact-zero skip — the scalar layer-0 loop paused
  /// after `split` iterations; for T = float the same fmaf chain the fp32
  /// kernels resume). `acc` receives layer-0-width values. The scoring
  /// model's [pu, pv] input shares its user half across a whole batch of
  /// items, so this prefix is computed once per user and resumed per item.
  void ForwardPrefix(const T* x, size_t split, T* acc) const;

  /// ForwardBatch for rows sharing their first (input_dim - suffix_dim)
  /// input dims: resumes the layer-0 accumulation from `prefix` with each
  /// row's suffix (rows start `suffix_stride` scalars apart — pass an
  /// embedding table stride to score rows in place), then runs the
  /// remaining layers. For T = double one fused kernel (FeedForwardRows)
  /// runs every layer a few rows at a time, bit-identical to Forward on
  /// the fully assembled rows; for T = float the layers run batched.
  /// Evaluation only — no backward cache.
  void ForwardBatchFromPrefix(const T* prefix, const T* suffix, size_t batch,
                              size_t suffix_dim, size_t suffix_stride,
                              T* logits) const;

  /// Accumulates gradients into `grads` (a same-shape net) given
  /// dL/dlogit. If `dx` is non-null, writes dL/dx (length input_dim) —
  /// the path through which item/user embeddings receive gradient.
  void Backward(const Cache& cache, T dlogit, FeedForwardNetT* grads,
                T* dx) const;

  /// Batched Backward over a ForwardBatch cache and one dL/dlogit per row.
  /// Gradient sums accumulate in ascending sample order, so for T = double
  /// the result is bit-identical to calling Backward sample-by-sample in
  /// row order. If `dx` is non-null it receives the batch x input_dim
  /// input gradients.
  void BackwardBatch(const BatchCache& cache, const T* dlogits,
                     FeedForwardNetT* grads, T* dx) const;

  /// Zeroes all parameters (turns the net into a gradient accumulator).
  void SetZero();

  /// this += scale * other (same shape).
  void AddScaled(const FeedForwardNetT& other, T scale);

  /// Total number of scalar parameters (Table III accounting).
  size_t ParamCount() const;

  /// Largest |parameter| across all layers.
  T MaxAbs() const;

  /// Same-shape zero-initialized copy (gradient accumulator factory).
  static FeedForwardNetT ZerosLike(const FeedForwardNetT& other);

  /// True when every layer of `other` has identical dimensions.
  bool SameShape(const FeedForwardNetT& other) const;

  /// Cast-assigns shape and parameters from the other scalar width — the
  /// fp32 backend's download boundary (double server theta → float working
  /// copy).
  template <typename U>
  void AssignCastFrom(const FeedForwardNetT<U>& other) {
    input_dim_ = other.input_dim();
    weights_.resize(other.num_layers());
    biases_.resize(other.num_layers());
    for (size_t l = 0; l < weights_.size(); ++l) {
      weights_[l].AssignCast(other.weight(l));
      biases_[l].AssignCast(other.bias(l));
    }
  }

  /// Layer parameter access (weights[l] is in x out; biases[l] is 1 x out).
  const MatrixT<T>& weight(size_t l) const { return weights_[l]; }
  MatrixT<T>& weight(size_t l) { return weights_[l]; }
  const MatrixT<T>& bias(size_t l) const { return biases_[l]; }
  MatrixT<T>& bias(size_t l) { return biases_[l]; }

 private:
  size_t input_dim_ = 0;
  std::vector<MatrixT<T>> weights_;
  std::vector<MatrixT<T>> biases_;
};

using FeedForwardNet = FeedForwardNetT<double>;
using FeedForwardNetF = FeedForwardNetT<float>;

extern template class FeedForwardNetT<double>;
extern template class FeedForwardNetT<float>;

/// \brief Adam optimizer state spanning all layers of a FeedForwardNetT.
template <typename T>
class FfnAdamT {
 public:
  explicit FfnAdamT(AdamOptions options = {}) : options_(options) {}

  /// One Adam step per layer; `grads` must have the same shape as `net`.
  void Step(FeedForwardNetT<T>* net, const FeedForwardNetT<T>& grads);

  /// Drops all moment state.
  void Reset();

  /// Sum of per-layer skipped steps (non-finite gradients, see Adam).
  long long skipped_steps() const;

 private:
  AdamOptions options_;
  std::vector<AdamT<T>> weight_state_;
  std::vector<AdamT<T>> bias_state_;
};

using FfnAdam = FfnAdamT<double>;
using FfnAdamF = FfnAdamT<float>;

extern template class FfnAdamT<double>;
extern template class FfnAdamT<float>;

}  // namespace hetefedrec

#endif  // HETEFEDREC_MODELS_FFN_H_
