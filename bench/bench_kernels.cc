// Microbenchmarks of the numeric kernels underlying every experiment:
// scoring, backprop, aggregation, DDR and RESKD. Uses google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/stream_round.h"
#include "src/core/decorrelation.h"
#include "src/core/distillation.h"
#include "src/core/local_trainer.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/eval/topk.h"
#include "src/data/stream.h"
#include "src/fed/shard/sharded_server.h"
#include "src/fed/sync/sync_service.h"
#include "src/fed/sync/versioned_table.h"
#include "src/math/activations.h"
#include "src/math/adam.h"
#include "src/math/aligned.h"
#include "src/math/backend.h"
#include "src/math/eigen.h"
#include "src/math/init.h"
#include "src/math/stats.h"
#include "src/models/scorer.h"
#include "src/util/logging.h"

namespace hetefedrec {
namespace {

constexpr size_t kItems = 2048;

Matrix RandomTable(size_t rows, size_t cols, uint64_t seed = 3) {
  Rng rng(seed);
  Matrix m(rows, cols);
  InitNormal(&m, 0.1, &rng);
  return m;
}

void BM_FfnForward(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  FeedForwardNet net(2 * width, {8, 8});
  Rng rng(5);
  net.InitXavier(&rng);
  std::vector<double> x(2 * width, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x.data(), nullptr));
  }
}
BENCHMARK(BM_FfnForward)->Arg(8)->Arg(32)->Arg(128);

void BM_FfnForwardBackward(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  FeedForwardNet net(2 * width, {8, 8});
  Rng rng(7);
  net.InitXavier(&rng);
  std::vector<double> x(2 * width, 0.3);
  std::vector<double> dx(2 * width);
  FeedForwardNet grads = FeedForwardNet::ZerosLike(net);
  FeedForwardNet::Cache cache;
  for (auto _ : state) {
    double logit = net.Forward(x.data(), &cache);
    net.Backward(cache, BceWithLogitsGrad(logit, 1.0), &grads, dx.data());
    benchmark::DoNotOptimize(grads);
  }
}
BENCHMARK(BM_FfnForwardBackward)->Arg(8)->Arg(32)->Arg(128);

// Distinct input blocks for the fp64 FFN arms, cycled one per iteration:
// about 1 MiB in all, so the pool stays in L2. The hidden layers read ReLU
// outputs whose exact zeros change from row to row; one reused block would
// let the branch predictor learn them and hide a data-dependent branch on
// the zero skip.
size_t FfnBlockPool(size_t block_values) {
  const size_t bytes = block_values * sizeof(double);
  return std::max<size_t>(2, (size_t{1} << 20) / bytes);
}

void BM_BatchedForward(benchmark::State& state) {
  // Per-sample Forward vs one ForwardBatch over a 256-row block — the
  // shape of one training task's per-epoch sample set. Arg 2 selects the
  // compute backend (0 fp64 | 2 fp32_simd). The fp64 arms cycle through
  // FfnBlockPool blocks, the fp32 arms reuse the first, so the
  // fp32-vs-fp64 ratio is not the backend speedup at equal inputs of
  // docs/PERFORMANCE.md "Numeric backends": it also holds the pool's L2
  // traffic and the zero pattern the fp64 arms cannot learn.
  const size_t width = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  const int backend = static_cast<int>(state.range(2));
  constexpr size_t kBatch = 256;
  const size_t block = kBatch * 2 * width;
  const size_t pool = FfnBlockPool(block);
  FeedForwardNet net(2 * width, {8, 8});
  Rng rng(5);
  net.InitXavier(&rng);
  std::vector<double> x(pool * block);
  for (double& v : x) v = rng.Normal(0.0, 0.3);
  std::vector<double> logits(kBatch);
  FeedForwardNetF netf;
  netf.AssignCastFrom(net);
  AlignedVector<float> xf(x.begin(), x.begin() + block);
  std::vector<float> logitsf(kBatch);
  size_t next = 0;
  for (auto _ : state) {
    const double* xb = x.data() + next * block;
    next = (next + 1) % pool;
    if (backend != 0) {
      netf.ForwardBatch(xf.data(), kBatch, nullptr, logitsf.data());
      benchmark::DoNotOptimize(logitsf);
    } else if (batched) {
      net.ForwardBatch(xb, kBatch, nullptr, logits.data());
    } else {
      for (size_t b = 0; b < kBatch; ++b) {
        logits[b] = net.Forward(xb + b * 2 * width, nullptr);
      }
    }
    benchmark::DoNotOptimize(logits);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchedForward)
    ->Args({8, 0, 0})
    ->Args({8, 1, 0})
    ->Args({8, 1, 2})
    ->Args({32, 0, 0})
    ->Args({32, 1, 0})
    ->Args({32, 1, 2})
    ->Args({128, 0, 0})
    ->Args({128, 1, 0})
    ->Args({128, 1, 2});

void BM_BatchedBackward(benchmark::State& state) {
  // One training task's per-epoch step over a 256-row block: ForwardBatch
  // (filling the cache) + BackwardBatch into the gradient net — the
  // isolated cost of the in-run forward/backward phases. Arg 1 selects the
  // compute backend (0 fp64 | 2 fp32_simd). The fp64 arm cycles through
  // FfnBlockPool blocks, the fp32 arm reuses the first.
  const size_t width = static_cast<size_t>(state.range(0));
  const int backend = static_cast<int>(state.range(1));
  constexpr size_t kBatch = 256;
  const size_t block = kBatch * 2 * width;
  const size_t pool = FfnBlockPool(block);
  FeedForwardNet net(2 * width, {8, 8});
  Rng rng(5);
  net.InitXavier(&rng);
  std::vector<double> x(pool * block);
  for (double& v : x) v = rng.Normal(0.0, 0.3);
  std::vector<double> logits(kBatch), dlogits(kBatch);
  std::vector<double> dx(kBatch * 2 * width);
  FeedForwardNet grads = FeedForwardNet::ZerosLike(net);
  FeedForwardNet::BatchCache cache;
  FeedForwardNetF netf;
  netf.AssignCastFrom(net);
  AlignedVector<float> xf(x.begin(), x.begin() + block);
  std::vector<float> logitsf(kBatch), dlogitsf(kBatch);
  std::vector<float> dxf(kBatch * 2 * width);
  FeedForwardNetF gradsf = FeedForwardNetF::ZerosLike(netf);
  FeedForwardNetF::BatchCache cachef;
  size_t next = 0;
  for (auto _ : state) {
    const double* xb = x.data() + next * block;
    next = (next + 1) % pool;
    if (backend != 0) {
      netf.ForwardBatch(xf.data(), kBatch, &cachef, logitsf.data());
      for (size_t b = 0; b < kBatch; ++b) {
        dlogitsf[b] = static_cast<float>(BceWithLogitsGrad(logitsf[b], 1.0));
      }
      netf.BackwardBatch(cachef, dlogitsf.data(), &gradsf, dxf.data());
      benchmark::DoNotOptimize(dxf.data());
      benchmark::DoNotOptimize(&gradsf);
    } else {
      net.ForwardBatch(xb, kBatch, &cache, logits.data());
      for (size_t b = 0; b < kBatch; ++b) {
        dlogits[b] = BceWithLogitsGrad(logits[b], 1.0);
      }
      net.BackwardBatch(cache, dlogits.data(), &grads, dx.data());
      benchmark::DoNotOptimize(dx.data());
      benchmark::DoNotOptimize(&grads);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchedBackward)
    ->Args({8, 0})
    ->Args({8, 2})
    ->Args({32, 0})
    ->Args({32, 2})
    ->Args({128, 0})
    ->Args({128, 2});

// Evaluator scoring cost for one user at the Anime paper scale (6,888
// items, width 32): per-item scalar Score vs batched ScoreRange vs the
// candidate slice (test + 200 seeded negatives, eval_candidate_sample
// style). The scalar-vs-batched ratio is the evaluator scoring speedup
// recorded in docs/PERFORMANCE.md (acceptance bar: >= 2x).
void BM_EvalScoring(benchmark::State& state) {
  // Modes 0-2: scoring only (0 scalar | 1 batch | 2 candidates). Modes
  // 3-4: one user's full evaluation inner loop — scoring *and* top-20
  // selection with the train-item mask — through a reference-mode session
  // fed the whole score array (3) vs a heap session fed 1,024-item score
  // blocks as they are scored (4). Arg 2 selects the compute backend for
  // modes 1 and 4 (0 fp64 | 2 fp32_simd) — the float path mirrors the
  // evaluator's: float scoring scratch upcast into the double score buffer
  // the selector consumes.
  const int mode = static_cast<int>(state.range(0));
  const BaseModel model =
      state.range(1) == 0 ? BaseModel::kNcf : BaseModel::kLightGcn;
  const int backend = static_cast<int>(state.range(2));
  constexpr size_t kAnimeItems = 6888;
  constexpr size_t kWidth = 32;
  constexpr size_t kTopK = 20;
  Matrix table = RandomTable(kAnimeItems, kWidth, 103);
  Matrix user = RandomTable(1, kWidth, 107);
  FeedForwardNet theta(2 * kWidth, {8, 8});
  Rng rng(109);
  theta.InitXavier(&rng);
  std::vector<ItemId> interacted;
  for (ItemId i = 0; i < 64; ++i) interacted.push_back(i * 97 % kAnimeItems);
  // Candidate slice: ~20 test items + 200 negatives.
  std::vector<ItemId> candidates;
  for (size_t i = 0; i < 220; ++i) {
    candidates.push_back(static_cast<ItemId>(rng.UniformInt(kAnimeItems)));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<bool> masked(kAnimeItems, false);
  for (ItemId i : interacted) masked[i] = true;

  Scorer sc(model, kWidth);
  ScorerF scf(model, kWidth);
  MatrixF tablef;
  tablef.AssignCast(table);
  FeedForwardNetF thetaf;
  thetaf.AssignCastFrom(theta);
  std::vector<float> userf(user.Row(0), user.Row(0) + kWidth);
  std::vector<float> outf(kAnimeItems);
  TopKSelector selector;
  constexpr size_t kBlock = 1024;
  std::vector<double> out(kAnimeItems);
  std::vector<ItemId> topk;
  size_t scored = 0;
  for (auto _ : state) {
    if (backend != 0) {
      // Float arms cover the two shipping paths: the bulk ScoreRange
      // (mode 1) and the fused block-scored top-K stream (mode 4).
      scf.BeginUser(userf.data(), tablef, interacted);
      if (mode == 1) {
        scf.ScoreRange(tablef, thetaf, 0, kAnimeItems, outf.data());
        for (size_t j = 0; j < kAnimeItems; ++j) {
          out[j] = static_cast<double>(outf[j]);
        }
      } else {
        selector.Begin(kTopK, &masked);
        for (size_t first = 0; first < kAnimeItems; first += kBlock) {
          const size_t bs = std::min(kBlock, kAnimeItems - first);
          scf.ScoreRange(tablef, thetaf, static_cast<ItemId>(first), bs,
                         outf.data());
          for (size_t j = 0; j < bs; ++j) {
            out[j] = static_cast<double>(outf[j]);
          }
          selector.Push(static_cast<ItemId>(first), out.data(), bs);
        }
        selector.Finish(&topk);
      }
      scored += kAnimeItems;
      benchmark::DoNotOptimize(out);
      benchmark::DoNotOptimize(topk);
      continue;
    }
    sc.BeginUser(user.Row(0), table, interacted);
    switch (mode) {
      case 0:
        for (size_t j = 0; j < kAnimeItems; ++j) {
          out[j] = sc.Score(table, theta, static_cast<ItemId>(j));
        }
        scored += kAnimeItems;
        break;
      case 1:
        sc.ScoreRange(table, theta, 0, kAnimeItems, out.data());
        scored += kAnimeItems;
        break;
      case 2:
        sc.ScoreBatch(table, theta, candidates.data(), candidates.size(),
                      out.data());
        scored += candidates.size();
        break;
      case 3:
        sc.ScoreRange(table, theta, 0, kAnimeItems, out.data());
        selector.Begin(kTopK, &masked, /*reference=*/true);
        selector.Push(0, out.data(), kAnimeItems);
        selector.Finish(&topk);
        scored += kAnimeItems;
        break;
      default:
        selector.Begin(kTopK, &masked);
        for (size_t first = 0; first < kAnimeItems; first += kBlock) {
          const size_t bs = std::min(kBlock, kAnimeItems - first);
          sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs,
                        out.data());
          selector.Push(static_cast<ItemId>(first), out.data(), bs);
        }
        selector.Finish(&topk);
        scored += kAnimeItems;
        break;
    }
    benchmark::DoNotOptimize(out);
    benchmark::DoNotOptimize(topk);
  }
  state.SetItemsProcessed(static_cast<int64_t>(scored));
}
BENCHMARK(BM_EvalScoring)
    ->Args({0, 0, 0})
    ->Args({1, 0, 0})
    ->Args({1, 0, 2})
    ->Args({2, 0, 0})
    ->Args({3, 0, 0})
    ->Args({4, 0, 0})
    ->Args({4, 0, 2})
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({1, 1, 2})
    ->Args({2, 1, 0})
    ->Args({3, 1, 0})
    ->Args({4, 1, 0})
    ->Args({4, 1, 2});

void BM_AllSmallEvalScore(benchmark::State& state) {
  // The isolated arm of the traced eval.score_s on allsmall-anime-curve:
  // one user's full-catalogue scoring at that workload's shape (LightGCN,
  // width 8, hidden {8, 8}, the 2,998-item anime catalogue at data scale
  // 0.25, 45 interacted items). Arg 0: 0 scores the catalogue with one
  // ScoreRange; 1 scores it in 1,024-item blocks streamed into a heap
  // top-20 session with the train-item mask, as an evaluated user's
  // `score` scope does.
  const bool stream = state.range(0) != 0;
  constexpr size_t kCurveItems = 2998;
  constexpr size_t kWidth = 8;
  constexpr size_t kBlock = 1024;
  Matrix table = RandomTable(kCurveItems, kWidth, 113);
  Matrix user = RandomTable(1, kWidth, 127);
  FeedForwardNet theta(2 * kWidth, {8, 8});
  Rng rng(131);
  theta.InitXavier(&rng);
  std::vector<ItemId> interacted;
  for (ItemId i = 0; i < 45; ++i) interacted.push_back(i * 61 % kCurveItems);
  std::vector<bool> masked(kCurveItems, false);
  for (ItemId i : interacted) masked[i] = true;
  Scorer sc(BaseModel::kLightGcn, kWidth);
  TopKSelector selector;
  std::vector<double> out(kCurveItems);
  std::vector<ItemId> topk;
  for (auto _ : state) {
    sc.BeginUser(user.Row(0), table, interacted);
    if (!stream) {
      sc.ScoreRange(table, theta, 0, kCurveItems, out.data());
    } else {
      selector.Begin(20, &masked);
      for (size_t first = 0; first < kCurveItems; first += kBlock) {
        const size_t bs = std::min(kBlock, kCurveItems - first);
        sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs,
                      out.data());
        selector.Push(static_cast<ItemId>(first), out.data(), bs);
      }
      selector.Finish(&topk);
    }
    benchmark::DoNotOptimize(out);
    benchmark::DoNotOptimize(topk);
  }
  state.SetItemsProcessed(state.iterations() * kCurveItems);
}
BENCHMARK(BM_AllSmallEvalScore)->Arg(0)->Arg(1);

void BM_ScorerFullCatalogue(benchmark::State& state) {
  // Cost of ranking all items for one user (the evaluation inner loop).
  const size_t width = static_cast<size_t>(state.range(0));
  const BaseModel model =
      state.range(1) == 0 ? BaseModel::kNcf : BaseModel::kLightGcn;
  Matrix table = RandomTable(kItems, width);
  Matrix user = RandomTable(1, width, 11);
  FeedForwardNet theta(2 * width, {8, 8});
  Rng rng(13);
  theta.InitXavier(&rng);
  std::vector<ItemId> interacted;
  for (ItemId i = 0; i < 64; ++i) interacted.push_back(i * 7 % kItems);

  Scorer sc(model, width);
  for (auto _ : state) {
    sc.BeginUser(user.Row(0), table, interacted);
    double sum = 0;
    for (size_t j = 0; j < kItems; ++j) {
      sum += sc.Score(table, theta, static_cast<ItemId>(j));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kItems);
}
BENCHMARK(BM_ScorerFullCatalogue)
    ->Args({8, 0})
    ->Args({32, 0})
    ->Args({8, 1})
    ->Args({32, 1});

void BM_AdamStep(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  Matrix param = RandomTable(kItems, width, 17);
  Matrix grad = RandomTable(kItems, width, 19);
  Adam adam;
  for (auto _ : state) {
    adam.Step(&param, grad);
    benchmark::DoNotOptimize(param);
  }
  state.SetItemsProcessed(state.iterations() * param.size());
}
BENCHMARK(BM_AdamStep)->Arg(8)->Arg(32)->Arg(128);

// The item-embedding Adam of one client, the step client.adam_s times in
// bench_e2e's traced run: two local epochs over a 2048-row table, each
// with a gradient on 256 rows. The second epoch keeps 102 of the first
// epoch's rows and adds 154, so it steps 410 rows, 154 of them (38 %)
// decay-only. The mix is measured: counted per client at seed 5, an
// epoch's gradient covers 249 rows on average on hfr-anime-async-delta
// and 331 on hfr-douban-wide, and the second epoch's step has 150 of 398
// and 178 of 509 rows decay-only. Each iteration resets the moments, as
// every client does, so no moment decays into subnormals. Arg 1 selects
// the precision (0 fp64 | 1 fp32).
template <typename T>
void SparseRowAdamSteps(benchmark::State& state, size_t width) {
  constexpr size_t kRows = 256;  // gradient rows per epoch
  constexpr size_t kKept = 102;  // of those, also in the first epoch
  Matrix base = RandomTable(kItems, width, 31);
  RowOverlayTableT<T> table;
  table.Reset(&base);
  SparseRowStoreT<T> first, second;
  first.Reset(kItems, width);
  second.Reset(kItems, width);
  Rng rng(37);
  // Row k of the sequence is in the first epoch for k < kRows and in the
  // second for kRows - kKept <= k < 2 * kRows - kKept.
  for (size_t k = 0; k < 2 * kRows - kKept; ++k) {
    const size_t r = (k * 7 + 3) % kItems;
    std::vector<T> g(width);
    for (T& x : g) x = static_cast<T>(rng.Normal(0.0, 0.1));
    if (k < kRows) std::copy(g.begin(), g.end(), first.EnsureRow(r));
    if (k >= kRows - kKept) std::copy(g.begin(), g.end(), second.EnsureRow(r));
  }
  SparseRowAdamT<T> adam;
  for (auto _ : state) {
    adam.Reset(kItems, width);
    adam.Step(&table, first);
    adam.Step(&table, second);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (3 * kRows - kKept) * width);
}

void BM_SparseRowAdamStep(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  if (state.range(1) == 0) {
    SparseRowAdamSteps<double>(state, width);
  } else {
    SparseRowAdamSteps<float>(state, width);
  }
}
BENCHMARK(BM_SparseRowAdamStep)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({128, 0})
    ->Args({128, 1});

void BM_DecorrelationLossAndGrad(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  const size_t sample_rows = static_cast<size_t>(state.range(1));
  Matrix table = RandomTable(kItems, width, 23);
  Matrix grad(kItems, width);
  Rng rng(29);
  for (auto _ : state) {
    grad.SetZero();
    benchmark::DoNotOptimize(
        DecorrelationLossAndGrad(table, 1.0, sample_rows, &rng, &grad));
  }
}
// DDR at the per-epoch client shape: 256 sampled rows, the paper's widths.
BENCHMARK(BM_DecorrelationLossAndGrad)
    ->Args({16, 256})
    ->Args({32, 256})
    ->Args({64, 256})
    ->Args({128, 256});

void BM_EnsembleDistill(benchmark::State& state) {
  const size_t kd_items = static_cast<size_t>(state.range(0));
  Matrix s = RandomTable(kItems, 8, 31);
  Matrix m = RandomTable(kItems, 16, 37);
  Matrix l = RandomTable(kItems, 32, 41);
  DistillationOptions opt;
  opt.kd_items = kd_items;
  opt.steps = 2;
  opt.lr = 0.001;
  Rng rng(43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnsembleDistill({&s, &m, &l}, opt, &rng));
  }
}
BENCHMARK(BM_EnsembleDistill)->Arg(32)->Arg(64)->Arg(128);

void BM_SymmetricEigenvalues(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix cov = CovarianceMatrix(RandomTable(512, n, 47));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricEigenvalues(cov));
  }
}
BENCHMARK(BM_SymmetricEigenvalues)->Arg(8)->Arg(32)->Arg(128);

void BM_NegativeSampling(benchmark::State& state) {
  SyntheticConfig cfg = MovieLensConfig(0.05);
  auto ds = Dataset::FromInteractions(GenerateInteractions(cfg),
                                      cfg.num_users, cfg.num_items)
                .value();
  Rng rng(53);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.BuildLocalEpoch(0, &rng));
  }
}
BENCHMARK(BM_NegativeSampling);

// --- Sparse vs dense client-update path -----------------------------------
//
// One federated aggregation round at paper scale: catalogue >= 3k items
// (arg 1 selects the ML-1M catalogue, 3,706 items, or the Anime catalogue,
// 6,888), 256 clients per round, width 32. Clients carry data-poor
// histories (median ~24 interactions — the Us regime that motivates model
// heterogeneity), so the dense path's O(items × width) per-client cost
// dominates. BM_FederatedRound/0/* is the dense reference, /1/* the sparse
// row-touched path; the ratio of the two timings is the per-round
// client-update speedup reported in docs/PERFORMANCE.md.

struct RoundBenchSetup {
  std::unique_ptr<Dataset> ds;
  std::vector<ClientState> clients;

  static constexpr size_t kClientsPerRound = 256;
  static constexpr size_t kWidth = 32;

  static RoundBenchSetup& Get(bool anime) {
    // Lazy per-catalogue so a filtered run only generates what it uses.
    if (anime) {
      static RoundBenchSetup setup(true);
      return setup;
    }
    static RoundBenchSetup setup(false);
    return setup;
  }

  explicit RoundBenchSetup(bool anime) {
    SyntheticConfig cfg = anime ? AnimeConfig(1.0)       // 6,888 items
                                : MovieLensConfig(1.0);  // 3,706 items
    cfg.num_users = 2048;
    cfg.lognormal_mu = std::log(24.0);  // data-poor (Us) histories
    ds = std::make_unique<Dataset>(
        Dataset::FromInteractions(GenerateInteractions(cfg), cfg.num_users,
                                  cfg.num_items)
            .value());
    Rng root(71);
    clients.resize(kClientsPerRound);
    for (size_t u = 0; u < kClientsPerRound; ++u) {
      InitClient(&clients[u], static_cast<UserId>(u), Group::kLarge, kWidth,
                 0.1, root);
    }
  }
};

void BM_FederatedRound(benchmark::State& state) {
  const bool use_sparse = state.range(0) != 0;
  RoundBenchSetup& setup = RoundBenchSetup::Get(state.range(1) != 0);
  // arg 2 (default on): batched scoring kernels vs the per-sample
  // reference — the training-side half of the batched-layer speedup.
  const bool use_batched = state.range(2) != 0;
  // arg 3: compute backend (0 fp64 | 2 fp32_simd). The fp64-vs-fp32_simd
  // ratio on the sparse batched arm is the end-to-end per-round backend
  // speedup recorded in docs/PERFORMANCE.md.
  const int backend = static_cast<int>(state.range(3));

  ShardedServer::Options so;
  so.widths = {RoundBenchSetup::kWidth};
  so.num_items = setup.ds->num_items();
  so.seed = 3;
  ShardedServer server(so);
  LocalTrainer trainer(*setup.ds, BaseModel::kNcf);
  std::vector<LocalTaskSpec> tasks = {{0, RoundBenchSetup::kWidth}};

  LocalTrainerOptions opt;
  opt.local_epochs = 2;
  opt.use_sparse = use_sparse;
  opt.use_batched = use_batched;
  opt.backend =
      backend == 0 ? ComputeBackend::kFp64 : ComputeBackend::kFp32Simd;

  size_t uploaded_rows = 0;
  for (auto _ : state) {
    server.BeginRound();
    for (auto& client : setup.clients) {
      LocalUpdateResult up = trainer.Train(
          &client, server.table(0), {&server.theta(0)}, tasks, opt);
      uploaded_rows += up.v_delta.num_rows();
      server.UploadDelta(tasks, up);
    }
    server.FinishRound();
  }
  state.SetItemsProcessed(state.iterations() * setup.clients.size());
  state.counters["rows_per_client"] = benchmark::Counter(
      static_cast<double>(uploaded_rows) /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(setup.clients.size())));
}
BENCHMARK(BM_FederatedRound)
    ->Args({0, 0, 1, 0})
    ->Args({1, 0, 1, 0})
    ->Args({1, 0, 1, 2})  // sparse + batched, fp32_simd
    ->Args({0, 1, 1, 0})
    ->Args({1, 1, 1, 0})
    ->Args({1, 1, 1, 2})
    ->Args({1, 0, 0, 0})  // sparse + per-sample reference scoring
    ->Args({1, 1, 0, 0})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

// One streaming round against the parameter server (arg 0 = shard count,
// S ∈ {1, 8}): 256 power-law clients from user 0 build MF-SGD row deltas
// against the live table and merge through UploadDelta
// (bench/stream_round.h). S=1 is the one-shard baseline; S=8 adds only the
// per-row shard lookup of the upload accounting, since the round state is
// one whole-catalogue buffer at any S — bench_sharding runs the same
// rounds end to end at 1M clients.
void BM_ShardedRound(benchmark::State& state) {
  ShardedServer::Options so;
  so.widths = {32};
  so.num_items = 20000;
  so.seed = 3;
  so.num_shards = static_cast<size_t>(state.range(0));
  ShardedServer server(so);

  StreamConfig scfg;
  scfg.num_users = 1'000'000;
  scfg.num_items = so.num_items;
  scfg.max_items_per_user = 64;
  scfg.seed = 7;
  const ClientStream stream(scfg);

  constexpr size_t kClients = 256;
  for (auto _ : state) {
    size_t cursor = 0;
    bench::RunStreamRound(&server, stream, kClients, /*lr=*/0.05,
                          /*seed=*/9, &cursor);
    benchmark::DoNotOptimize(server.table(0).Row(0));
  }
  uint64_t scalars = 0;
  for (size_t s = 0; s < server.num_shards(); ++s) {
    scalars += server.shard_upload_scalars(s);
  }
  state.SetItemsProcessed(state.iterations() * kClients);
  state.counters["upload_scalars_per_round"] = benchmark::Counter(
      static_cast<double>(scalars) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ShardedRound)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// Isolated update-machinery cost (no scoring): table download + per-epoch
// gradient zeroing + Adam + upload delta for one client touching `touched`
// rows of a 3,706 x 32 table. This is the pure overhead the sparse path
// eliminates.
void BM_ClientUpdateMachinery(benchmark::State& state) {
  const bool use_sparse = state.range(0) != 0;
  const size_t touched = static_cast<size_t>(state.range(1));
  constexpr size_t kRows = 3706;
  constexpr size_t kW = 32;
  Matrix global = RandomTable(kRows, kW, 83);
  Rng pick(89);
  std::vector<uint32_t> rows;
  for (size_t k = 0; k < touched; ++k) {
    rows.push_back(static_cast<uint32_t>(pick.UniformInt(kRows)));
  }

  Matrix v_local, v_grad(kRows, kW);
  RowOverlayTable overlay;
  SparseRowStore sgrad;
  for (auto _ : state) {
    if (use_sparse) {
      overlay.Reset(&global);
      sgrad.Reset(kRows, kW);
      SparseRowAdam adam;
      adam.Reset(kRows, kW);
      for (int epoch = 0; epoch < 2; ++epoch) {
        sgrad.Clear();
        for (uint32_t r : rows) {
          double* g = sgrad.EnsureRow(r);
          for (size_t d = 0; d < kW; ++d) g[d] += 0.01;
        }
        adam.Step(&overlay, sgrad);
      }
      SparseRowUpdate up;
      up.width = kW;
      up.rows.assign(overlay.touched().begin(), overlay.touched().end());
      up.data.resize(up.rows.size() * kW);
      for (size_t k = 0; k < up.rows.size(); ++k) {
        const double* local = overlay.Row(up.rows[k]);
        const double* base = global.Row(up.rows[k]);
        for (size_t d = 0; d < kW; ++d) {
          up.data[k * kW + d] = local[d] - base[d];
        }
      }
      benchmark::DoNotOptimize(up);
    } else {
      v_local = global;
      Adam adam;
      for (int epoch = 0; epoch < 2; ++epoch) {
        v_grad.SetZero();
        for (uint32_t r : rows) {
          double* g = v_grad.Row(r);
          for (size_t d = 0; d < kW; ++d) g[d] += 0.01;
        }
        adam.Step(&v_local, v_grad);
      }
      Matrix delta = v_local;
      delta.AddScaled(global, -1.0);
      benchmark::DoNotOptimize(delta);
    }
  }
}
BENCHMARK(BM_ClientUpdateMachinery)
    ->Args({0, 128})
    ->Args({1, 128})
    ->Args({0, 512})
    ->Args({1, 512});

// --- Full vs delta downloads ----------------------------------------------
//
// One round of the download direction at paper scale (256 clients/round,
// width 32, ML-3706 or Anime-6888 catalogue, ~200-row subscriptions — the
// interacted items + negative pool of a data-poor client). The full
// variant pays what the dense protocol pays per client: a table-sized
// copy. The delta variant runs the SyncService bookkeeping and copies only
// the stale subscribed rows. Counters report the scalars each protocol
// ships per client; their ratio is the `params_down` reduction quoted in
// docs/SYNC.md (>= 5x required at Anime scale by the PR acceptance bar).
void BM_DeltaDownload(benchmark::State& state) {
  const bool use_delta = state.range(0) != 0;
  const size_t items = state.range(1) != 0 ? 6888 : 3706;  // anime : ml
  constexpr size_t kUsers = 2048;
  constexpr size_t kClients = 256;
  constexpr size_t kW = 32;
  constexpr size_t kSubRows = 200;

  Matrix table = RandomTable(items, kW, 97);
  // Fixed per-client subscriptions (interactions don't churn round to
  // round; fresh negatives do, but a stable pool is the favorable case
  // for delta sync and the paper's negatives are redrawn from a stable
  // catalogue anyway).
  Rng pick(101);
  std::vector<std::vector<uint32_t>> subs(kUsers);
  for (auto& s : subs) {
    for (size_t k = 0; k < kSubRows; ++k) {
      s.push_back(static_cast<uint32_t>(pick.UniformInt(items)));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  const size_t theta_params = 521;  // |Θ| at width 32, hidden {8,8}

  VersionedTable versions(1, items);
  SyncService sync(kUsers);
  std::vector<double> client_buffer(items * kW);
  size_t round = 0;
  size_t shipped_scalars = 0;
  size_t participations = 0;

  for (auto _ : state) {
    versions.AdvanceRound();
    const size_t base = (round * kClients) % kUsers;
    for (size_t c = 0; c < kClients; ++c) {
      const UserId u = static_cast<UserId>((base + c) % kUsers);
      if (use_delta) {
        SyncPlan plan =
            sync.Sync(u, 0, subs[u], table, versions, theta_params);
        // Ship the stale rows (modelled as a packed copy).
        for (size_t k = 0; k < plan.shipped_rows; ++k) {
          const double* src = table.Row(subs[u][k % subs[u].size()]);
          std::copy(src, src + kW, client_buffer.begin() + (k % items) * kW);
        }
        shipped_scalars += plan.params;
      } else {
        // Dense protocol: the whole table lands on the client.
        std::copy(table.data().begin(), table.data().end(),
                  client_buffer.begin());
        shipped_scalars += items * kW + theta_params;
      }
      participations++;
    }
    // The server applies this round's aggregate: the union of the round's
    // client subscriptions is dirtied, which is exactly what the next
    // rounds' deltas must re-ship.
    for (size_t c = 0; c < kClients; ++c) {
      const UserId u = static_cast<UserId>((base + c) % kUsers);
      for (uint32_t r : subs[u]) versions.Stamp(0, r);
    }
    round++;
    benchmark::DoNotOptimize(client_buffer);
  }
  state.SetItemsProcessed(state.iterations() * kClients);
  state.counters["scalars_per_client"] = benchmark::Counter(
      static_cast<double>(shipped_scalars) /
      static_cast<double>(participations));
}
BENCHMARK(BM_DeltaDownload)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// One-epoch HeteFedRec run on a straggler-heavy simulated network,
// synchronous barrier (arg 0 = 0) vs asynchronous merge-on-arrival
// (arg 0 = 1). This is the end-to-end cost of the two server schedules —
// wall time should be comparable (same client work), while the
// `simulated_seconds` counter shows the virtual-clock gap the async
// schedule exists for. Runs in CI's bench-smoke job with JSON output.
void BM_AsyncVsSyncRound(benchmark::State& state) {
  const bool async_mode = state.range(0) != 0;
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 1;
  cfg.clients_per_round = 16;
  cfg.eval_user_sample = 50;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  cfg.availability = 0.8;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  cfg.async_mode = async_mode;
  if (!async_mode) cfg.straggler_slack = 4;
  auto runner = ExperimentRunner::Create(cfg).value();

  double simulated = 0.0;
  double ndcg = 0.0;
  for (auto _ : state) {
    ExperimentResult r = runner->Run(Method::kHeteFedRec);
    simulated = r.simulated_seconds;
    ndcg = r.final_eval.overall.ndcg;
    benchmark::DoNotOptimize(r);
  }
  state.counters["simulated_seconds"] = benchmark::Counter(simulated);
  state.counters["ndcg"] = benchmark::Counter(ndcg);
}
BENCHMARK(BM_AsyncVsSyncRound)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// One-epoch HeteFedRec run with fault injection off (arg 0 = 0) vs on
// (arg 0 = 1, a 10% total fault rate behind admission control). The
// injection-off case IS the default path — the CI baseline pins its
// overhead against the robustness layer's plumbing (the injector, gate
// and admission controller must cost nothing when disabled).
void BM_FaultyRound(benchmark::State& state) {
  const bool faulted = state.range(0) != 0;
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 1;
  cfg.clients_per_round = 16;
  cfg.eval_user_sample = 50;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  cfg.availability = 0.8;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  if (faulted) {
    cfg.fault_upload_loss = 0.03;
    cfg.fault_download_loss = 0.02;
    cfg.fault_crash = 0.01;
    cfg.fault_duplicate = 0.01;
    cfg.fault_corrupt = 0.03;
    cfg.admission_control = true;
    cfg.admit_max_row_norm = 1.0;
    cfg.admit_outlier_z = 6.0;
  }
  auto runner = ExperimentRunner::Create(cfg).value();

  double ndcg = 0.0;
  double injected = 0.0;
  for (auto _ : state) {
    ExperimentResult r = runner->Run(Method::kHeteFedRec);
    ndcg = r.final_eval.overall.ndcg;
    injected = static_cast<double>(r.comm.faults().TotalInjected());
    benchmark::DoNotOptimize(r);
  }
  state.counters["ndcg"] = benchmark::Counter(ndcg);
  state.counters["faults_injected"] = benchmark::Counter(injected);
}
BENCHMARK(BM_FaultyRound)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// One-epoch HeteFedRec run with telemetry off (arg 0 = 0 — the default
// path every other benchmark and test exercises) vs fully on (arg 0 = 1:
// metrics JSONL + Chrome trace to temp files + phase profiling). The
// telemetry-off case pins the requirement that the compiled-in hooks cost
// nothing when no flag is set; the on case bounds the observation cost.
void BM_TelemetryOverhead(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 1;
  cfg.clients_per_round = 16;
  cfg.eval_user_sample = 50;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 41;
  cfg.availability = 0.8;
  cfg.net_bandwidth_sigma = 1.0;
  cfg.net_latency_sigma = 0.3;
  if (on) {
    cfg.metrics_out = "/tmp/hfr_bench_metrics.jsonl";
    cfg.trace_out = "/tmp/hfr_bench_trace.json";
    cfg.profile = true;
  }
  auto runner = ExperimentRunner::Create(cfg).value();

  // The profiler logs its phase table at Info after every run; silence it
  // for the timed iterations.
  const LogLevel saved_level = GetLogLevel();
  if (on) SetLogLevel(LogLevel::kWarning);
  double ndcg = 0.0;
  for (auto _ : state) {
    ExperimentResult r = runner->Run(Method::kHeteFedRec);
    ndcg = r.final_eval.overall.ndcg;
    benchmark::DoNotOptimize(r);
  }
  SetLogLevel(saved_level);
  state.counters["ndcg"] = benchmark::Counter(ndcg);
  if (on) {
    std::remove("/tmp/hfr_bench_metrics.jsonl");
    std::remove("/tmp/hfr_bench_trace.json");
  }
}
BENCHMARK(BM_TelemetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Top-20 selection over a full-catalogue score array at the ML (3,706
// items) and Anime (6,888 items) shapes, one session per iteration: the
// partial_sort reference mode (mode 0) vs the bounded heap (mode 1). Every
// 13th item is masked, mimicking train-item exclusion.
void BM_TopK(benchmark::State& state) {
  const bool reference = state.range(0) == 0;
  const size_t items = static_cast<size_t>(state.range(1));
  Rng rng(59);
  std::vector<double> scores(items);
  for (auto& s : scores) s = rng.Uniform();
  std::vector<bool> mask(items, false);
  for (size_t i = 0; i < items; i += 13) mask[i] = true;
  TopKSelector selector;
  std::vector<ItemId> topk;
  for (auto _ : state) {
    selector.Begin(20, &mask, reference);
    selector.Push(0, scores.data(), items);
    selector.Finish(&topk);
    benchmark::DoNotOptimize(topk);
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_TopK)
    ->Args({0, 3706})
    ->Args({1, 3706})
    ->Args({0, 6888})
    ->Args({1, 6888});

// Top-20 over a candidate id list, one PushIds session per iteration: the
// reference mode (mode 0) vs the bounded heap (mode 1). Shapes: the
// default candidate-eval pool (~220 ids) and a wider pool.
void BM_TopKCandidates(benchmark::State& state) {
  const bool reference = state.range(0) == 0;
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t k = static_cast<size_t>(state.range(2));
  Rng rng(61);
  std::vector<ItemId> ids(n);
  std::vector<double> scores(n);
  ItemId next = 0;
  for (size_t i = 0; i < n; ++i) {
    next += 1 + static_cast<ItemId>(rng.UniformInt(5));
    ids[i] = next;
    scores[i] = rng.Uniform();
  }
  TopKSelector selector;
  std::vector<ItemId> topk;
  for (auto _ : state) {
    selector.Begin(k, nullptr, reference);
    selector.PushIds(ids.data(), scores.data(), n);
    selector.Finish(&topk);
    benchmark::DoNotOptimize(topk);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKCandidates)
    ->Args({0, 220, 20})
    ->Args({1, 220, 20})
    ->Args({0, 2048, 20})
    ->Args({1, 2048, 20});

}  // namespace
}  // namespace hetefedrec

BENCHMARK_MAIN();
