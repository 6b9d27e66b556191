#include "src/models/ffn.h"

#include <type_traits>

#include "src/math/activations.h"
#include "src/math/init.h"
#include "src/math/kernels.h"

namespace hetefedrec {

template <typename T>
FeedForwardNetT<T>::FeedForwardNetT(size_t input_dim,
                                    std::vector<size_t> hidden)
    : input_dim_(input_dim) {
  HFR_CHECK_GT(input_dim, 0u);
  size_t in = input_dim;
  for (size_t h : hidden) {
    HFR_CHECK_GT(h, 0u);
    weights_.emplace_back(in, h);
    biases_.emplace_back(1, h);
    in = h;
  }
  weights_.emplace_back(in, 1);  // output logit
  biases_.emplace_back(1, 1);
}

template <typename T>
void FeedForwardNetT<T>::InitXavier(Rng* rng) {
  if constexpr (std::is_same_v<T, double>) {
    for (size_t l = 0; l < weights_.size(); ++l) {
      InitXavierUniform(&weights_[l], rng);
      biases_[l].SetZero();
    }
  } else {
    (void)rng;
    HFR_CHECK(false);  // float nets are cast from double, never initialized
  }
}

template <typename T>
T FeedForwardNetT<T>::Forward(const T* x, Cache* cache) const {
  HFR_CHECK(!weights_.empty());
  if (cache) {
    cache->input.assign(x, x + input_dim_);
    cache->pre.resize(weights_.size());
    cache->post.resize(weights_.size());
  }
  // Per-sample Forward is the *reference* implementation the batched
  // kernels are pinned bit-identical against (double backend); it keeps
  // the plain scalar loops on purpose (thread-local ping-pong buffers keep
  // it allocation-free). The hot paths run ForwardBatch instead.
  thread_local AlignedVector<T> cur;
  thread_local AlignedVector<T> next;
  cur.assign(x, x + input_dim_);
  for (size_t l = 0; l < weights_.size(); ++l) {
    const MatrixT<T>& w = weights_[l];
    const MatrixT<T>& b = biases_[l];
    next.assign(w.cols(), T(0));
    for (size_t j = 0; j < w.cols(); ++j) next[j] = b(0, j);
    for (size_t i = 0; i < w.rows(); ++i) {
      T xi = cur[i];
      if (xi == T(0)) continue;
      const T* wrow = w.Row(i);
      for (size_t j = 0; j < w.cols(); ++j) next[j] += xi * wrow[j];
    }
    if (cache) cache->pre[l].assign(next.begin(), next.end());
    const bool is_output = (l + 1 == weights_.size());
    if (!is_output) {
      for (T& v : next) v = Relu(v);
    }
    if (cache) cache->post[l].assign(next.begin(), next.end());
    std::swap(cur, next);
  }
  return cur[0];
}

template <typename T>
void FeedForwardNetT<T>::ForwardBatch(const T* x, size_t batch,
                                      BatchCache* cache, T* logits) const {
  HFR_CHECK(!weights_.empty());
  if (cache) cache->batch = batch;
  if (batch == 0) return;
  if (cache) {
    cache->input.assign(x, x + batch * input_dim_);
    cache->pre.resize(weights_.size());
    cache->post.resize(weights_.size());
  }
  thread_local AlignedVector<T> cur;
  thread_local AlignedVector<T> next;
  const T* src = x;  // first layer reads the caller's block in place
  for (size_t l = 0; l < weights_.size(); ++l) {
    const MatrixT<T>& w = weights_[l];
    const MatrixT<T>& b = biases_[l];
    next.resize(batch * w.cols());
    GemvBatchBiased(src, batch, w.rows(), w.data().data(), b.data().data(),
                    w.cols(), next.data());
    if (cache) cache->pre[l].assign(next.begin(), next.end());
    const bool is_output = (l + 1 == weights_.size());
    if (!is_output) {
      for (T& v : next) v = Relu(v);
    }
    if (cache) cache->post[l].assign(next.begin(), next.end());
    std::swap(cur, next);
    src = cur.data();
  }
  // The output layer has one column, so cur is batch x 1.
  std::copy(cur.begin(), cur.end(), logits);
}

template <typename T>
void FeedForwardNetT<T>::ForwardPrefix(const T* x, size_t split,
                                       T* acc) const {
  HFR_CHECK(!weights_.empty());
  const MatrixT<T>& w = weights_[0];
  const MatrixT<T>& b = biases_[0];
  HFR_CHECK_LE(split, w.rows());
  if constexpr (std::is_same_v<T, double>) {
    for (size_t j = 0; j < w.cols(); ++j) acc[j] = b(0, j);
    for (size_t i = 0; i < split; ++i) {
      const T xi = x[i];
      if (xi == T(0)) continue;
      const T* wrow = w.Row(i);
      for (size_t j = 0; j < w.cols(); ++j) acc[j] += xi * wrow[j];
    }
  } else {
    // Float prefixes must match what GemvBatchResume would have produced
    // for the same leading inputs, so run the fp32 kernel itself (batch 1,
    // resuming from the bias) rather than a hand-written loop.
    GemvBatchResume(x, size_t{1}, split, split, w.data().data(),
                    b.data().data(), w.cols(), acc);
  }
}

template <typename T>
void FeedForwardNetT<T>::ForwardBatchFromPrefix(const T* prefix,
                                                const T* suffix, size_t batch,
                                                size_t suffix_dim,
                                                size_t suffix_stride,
                                                T* logits) const {
  HFR_CHECK(!weights_.empty());
  if (batch == 0) return;
  const MatrixT<T>& w0 = weights_[0];
  HFR_CHECK_LE(suffix_dim, w0.rows());
  const size_t split = w0.rows() - suffix_dim;
  if constexpr (std::is_same_v<T, double>) {
    // Layer 0 is the suffix rows of W0 resumed from the prefix; the rest
    // start from their biases.
    thread_local std::vector<DenseLayer> layers;
    layers.assign(1, {w0.data().data() + split * w0.cols(), prefix,
                      suffix_dim, w0.cols()});
    for (size_t l = 1; l < weights_.size(); ++l) {
      layers.push_back({weights_[l].data().data(), biases_[l].data().data(),
                        weights_[l].rows(), weights_[l].cols()});
    }
    FeedForwardRows(suffix, batch, suffix_stride, layers.data(),
                    layers.size(), logits);
  } else {
    thread_local AlignedVector<T> cur;
    thread_local AlignedVector<T> next;
    next.resize(batch * w0.cols());
    GemvBatchResume(suffix, batch, suffix_stride, suffix_dim,
                    w0.data().data() + split * w0.cols(), prefix, w0.cols(),
                    next.data());
    if (weights_.size() > 1) {
      for (T& v : next) v = Relu(v);
    }
    std::swap(cur, next);
    for (size_t l = 1; l < weights_.size(); ++l) {
      const MatrixT<T>& w = weights_[l];
      next.resize(batch * w.cols());
      GemvBatchBiased(cur.data(), batch, w.rows(), w.data().data(),
                      biases_[l].data().data(), w.cols(), next.data());
      if (l + 1 < weights_.size()) {
        for (T& v : next) v = Relu(v);
      }
      std::swap(cur, next);
    }
    std::copy(cur.begin(), cur.end(), logits);
  }
}

template <typename T>
void FeedForwardNetT<T>::Backward(const Cache& cache, T dlogit,
                                  FeedForwardNetT* grads, T* dx) const {
  HFR_CHECK(grads != nullptr);
  HFR_CHECK_EQ(grads->weights_.size(), weights_.size());
  const size_t L = weights_.size();
  // delta = dL/d(pre-activation of layer l), starting at the output logit.
  // Like Forward, this is the scalar reference path the batched kernels
  // are pinned against; thread-local ping-pong buffers as above.
  thread_local AlignedVector<T> delta;
  thread_local AlignedVector<T> prev_delta;
  delta.assign(1, dlogit);
  for (size_t l = L; l-- > 0;) {
    const AlignedVector<T>& layer_in =
        (l == 0) ? cache.input : cache.post[l - 1];
    const MatrixT<T>& w = weights_[l];
    MatrixT<T>& gw = grads->weights_[l];
    MatrixT<T>& gb = grads->biases_[l];
    // Bias and weight grads: gb += delta; gw += layer_in ⊗ delta.
    for (size_t j = 0; j < w.cols(); ++j) gb(0, j) += delta[j];
    for (size_t i = 0; i < w.rows(); ++i) {
      T xi = layer_in[i];
      if (xi == T(0)) continue;
      T* grow = gw.Row(i);
      for (size_t j = 0; j < w.cols(); ++j) grow[j] += xi * delta[j];
    }
    // Propagate to the previous layer (or the input).
    prev_delta.assign(w.rows(), T(0));
    for (size_t i = 0; i < w.rows(); ++i) {
      const T* wrow = w.Row(i);
      T acc = T(0);
      for (size_t j = 0; j < w.cols(); ++j) acc += wrow[j] * delta[j];
      prev_delta[i] = acc;
    }
    if (l > 0) {
      // Through the ReLU of layer l-1.
      for (size_t i = 0; i < prev_delta.size(); ++i) {
        prev_delta[i] *= ReluGrad(cache.pre[l - 1][i]);
      }
      std::swap(delta, prev_delta);
    } else if (dx) {
      for (size_t i = 0; i < input_dim_; ++i) dx[i] = prev_delta[i];
    }
  }
}

template <typename T>
void FeedForwardNetT<T>::BackwardBatch(const BatchCache& cache,
                                       const T* dlogits,
                                       FeedForwardNetT* grads, T* dx) const {
  HFR_CHECK(grads != nullptr);
  HFR_CHECK_EQ(grads->weights_.size(), weights_.size());
  const size_t batch = cache.batch;
  if (batch == 0) return;
  const size_t L = weights_.size();
  thread_local AlignedVector<T> delta;
  thread_local AlignedVector<T> prev_delta;
  delta.assign(dlogits, dlogits + batch);  // output layer: batch x 1
  for (size_t l = L; l-- > 0;) {
    const AlignedVector<T>& layer_in =
        (l == 0) ? cache.input : cache.post[l - 1];
    const MatrixT<T>& w = weights_[l];
    AccumulateOuterBatch(layer_in.data(), delta.data(), batch, w.rows(),
                         w.cols(), grads->weights_[l].data().data(),
                         grads->biases_[l].data().data());
    prev_delta.resize(batch * w.rows());
    GemvBatchTransposed(delta.data(), batch, w.cols(), w.data().data(),
                        w.rows(), prev_delta.data());
    if (l > 0) {
      const AlignedVector<T>& pre = cache.pre[l - 1];
      for (size_t t = 0; t < prev_delta.size(); ++t) {
        prev_delta[t] *= ReluGrad(pre[t]);
      }
      std::swap(delta, prev_delta);
    } else if (dx) {
      std::copy(prev_delta.begin(), prev_delta.end(), dx);
    }
  }
}

template <typename T>
void FeedForwardNetT<T>::SetZero() {
  for (auto& w : weights_) w.SetZero();
  for (auto& b : biases_) b.SetZero();
}

template <typename T>
void FeedForwardNetT<T>::AddScaled(const FeedForwardNetT& other, T scale) {
  HFR_CHECK_EQ(weights_.size(), other.weights_.size());
  for (size_t l = 0; l < weights_.size(); ++l) {
    weights_[l].AddScaled(other.weights_[l], scale);
    biases_[l].AddScaled(other.biases_[l], scale);
  }
}

template <typename T>
size_t FeedForwardNetT<T>::ParamCount() const {
  size_t n = 0;
  for (const auto& w : weights_) n += w.size();
  for (const auto& b : biases_) n += b.size();
  return n;
}

template <typename T>
T FeedForwardNetT<T>::MaxAbs() const {
  T m = T(0);
  for (const auto& w : weights_) m = std::max(m, w.MaxAbs());
  for (const auto& b : biases_) m = std::max(m, b.MaxAbs());
  return m;
}

template <typename T>
FeedForwardNetT<T> FeedForwardNetT<T>::ZerosLike(const FeedForwardNetT& other) {
  FeedForwardNetT out = other;
  out.SetZero();
  return out;
}

template <typename T>
bool FeedForwardNetT<T>::SameShape(const FeedForwardNetT& other) const {
  if (input_dim_ != other.input_dim_ ||
      weights_.size() != other.weights_.size()) {
    return false;
  }
  for (size_t l = 0; l < weights_.size(); ++l) {
    if (!weights_[l].SameShape(other.weights_[l])) return false;
  }
  return true;
}

template class FeedForwardNetT<double>;
template class FeedForwardNetT<float>;

template <typename T>
void FfnAdamT<T>::Step(FeedForwardNetT<T>* net,
                       const FeedForwardNetT<T>& grads) {
  const size_t layers = net->num_layers();
  if (weight_state_.empty()) {
    weight_state_.assign(layers, AdamT<T>(options_));
    bias_state_.assign(layers, AdamT<T>(options_));
  }
  HFR_CHECK_EQ(weight_state_.size(), layers);
  for (size_t l = 0; l < layers; ++l) {
    weight_state_[l].Step(&net->weight(l), grads.weight(l));
    bias_state_[l].Step(&net->bias(l), grads.bias(l));
  }
}

template <typename T>
void FfnAdamT<T>::Reset() {
  weight_state_.clear();
  bias_state_.clear();
}

template <typename T>
long long FfnAdamT<T>::skipped_steps() const {
  long long total = 0;
  for (const AdamT<T>& a : weight_state_) total += a.skipped_steps();
  for (const AdamT<T>& a : bias_state_) total += a.skipped_steps();
  return total;
}

template class FfnAdamT<double>;
template class FfnAdamT<float>;

}  // namespace hetefedrec
