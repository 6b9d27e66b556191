#include "src/core/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/core/checkpoint.h"
#include "src/core/local_trainer.h"
#include "src/core/run_state.h"
#include "src/data/synthetic.h"
#include "src/eval/topk.h"
#include "src/fed/fault/admission.h"
#include "src/fed/fault/client_gate.h"
#include "src/fed/fault/fault_injector.h"
#include "src/fed/scheduler.h"
#include "src/fed/shard/sharded_server.h"
#include "src/fed/sync/async_aggregator.h"
#include "src/fed/sync/network.h"
#include "src/fed/sync/sync_service.h"
#include "src/math/eigen.h"
#include "src/math/init.h"
#include "src/math/stats.h"
#include "src/util/telemetry/json.h"
#include "src/util/telemetry/metrics.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace hetefedrec {

namespace {

/// True when any fault rate is set: the run injects faults.
bool AnyFault(const ExperimentConfig& c) {
  return c.fault_upload_loss > 0.0 || c.fault_download_loss > 0.0 ||
         c.fault_crash > 0.0 || c.fault_duplicate > 0.0 ||
         c.fault_corrupt > 0.0;
}

/// True when the run keeps a retry/quarantine gate (docs/ROBUSTNESS.md).
bool HasClientGate(const ExperimentConfig& c) {
  return AnyFault(c) || c.admission_control;
}

/// Derived per-method wiring: slots, group->slot map, dual-task lists,
/// aggregation flavor and component toggles.
struct MethodSetup {
  std::vector<size_t> widths;
  bool shared_aggregation = true;
  std::array<size_t, kNumGroups> slot_of_group = {0, 0, 0};
  std::array<std::vector<LocalTaskSpec>, kNumGroups> tasks_of_group;
  std::array<bool, kNumGroups> excluded = {false, false, false};
  std::array<bool, kNumGroups> apply_ddr = {false, false, false};
  bool reskd = false;
};

/// The counters, gauges and histograms only the run keeps, rendered with
/// the comm and fault totals of CommStats into the `metrics` object of the
/// stream's round and summary rows (docs/OBSERVABILITY.md has the
/// catalogue). Written only on the round thread.
struct RunMetrics {
  // Delta-sync row flow (added in AccountDownload).
  uint64_t rows_subscribed = 0;
  uint64_t rows_shipped = 0;
  // Server progress.
  uint64_t rounds = 0;
  uint64_t merges = 0;
  uint64_t distills = 0;
  uint64_t checkpoints = 0;
  // The last round row's gauges, and the last evaluation's.
  size_t queue_depth = 0;
  size_t round_merged = 0;
  size_t round_down_scalars = 0;
  size_t round_up_scalars = 0;
  double loss_mean = 0.0;
  double replica_hit_rate = 0.0;
  double eval_recall = 0.0;
  double eval_ndcg = 0.0;
  // Built only with telemetry on, so a run without it allocates nothing
  // here; staleness only in async mode.
  std::optional<Histogram> round_seconds;
  std::optional<Histogram> staleness;

  /// The catalogue in stream order; `clock` is the virtual clock.
  std::string ToJson(const CommStats& comm, double clock) const {
    uint64_t downloads = 0, uploads = 0, dropped = 0;
    uint64_t down_scalars = 0, up_scalars = 0;
    for (int g = 0; g < kNumGroups; ++g) {
      const Group grp = static_cast<Group>(g);
      downloads += comm.Downloads(grp);
      uploads += comm.Participations(grp);
      dropped += comm.Dropped(grp);
      down_scalars += comm.DownParams(grp);
      up_scalars += comm.UpParams(grp);
    }
    JsonObj o;
    o.U64("comm.downloads", downloads)
        .U64("comm.uploads", uploads)
        .U64("comm.dropped", dropped)
        .U64("comm.down_scalars", down_scalars)
        .U64("comm.up_scalars", up_scalars)
        .U64("sync.rows_subscribed", rows_subscribed)
        .U64("sync.rows_shipped", rows_shipped)
        .U64("server.rounds", rounds)
        .U64("server.merges", merges)
        .U64("server.distills", distills)
        .U64("server.checkpoints", checkpoints);
    for (const FaultCounter& c : kFaultCounters) {
      o.U64(c.metric, comm.faults().*c.member);
    }
    o.Num("clock.sim_seconds", clock)
        .Num("queue.depth", static_cast<double>(queue_depth))
        .Num("round.merged", static_cast<double>(round_merged))
        .Num("round.down_scalars", static_cast<double>(round_down_scalars))
        .Num("round.up_scalars", static_cast<double>(round_up_scalars))
        .Num("train.loss_mean", loss_mean)
        .Num("sync.replica_hit_rate", replica_hit_rate)
        .Num("eval.recall", eval_recall)
        .Num("eval.ndcg", eval_ndcg)
        .Raw("round.seconds", round_seconds->ToJson());
    if (staleness) o.Raw("async.staleness", staleness->ToJson());
    return o.Build();
  }
};

/// Resolves cfg.num_threads (0 = hardware concurrency) to a thread count.
size_t EffectiveThreads(const ExperimentConfig& cfg) {
  if (cfg.num_threads > 0) return cfg.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Where an S-typed scorer writes `n` scores bound for the evaluator's
/// double contract: fp64 writes `out` in place; fp32 writes thread-local
/// float scratch (bounded by kEvalStreamBlock) that UpcastScores then
/// widens into `out`.
template <typename S>
S* ScoreScratch(double* out, size_t n) {
  if constexpr (std::is_same_v<S, double>) {
    return out;
  } else {
    thread_local std::vector<S> scratch;
    scratch.resize(n);
    return scratch.data();
  }
}

template <typename S>
void UpcastScores(const S* scores, size_t n, double* out) {
  if constexpr (!std::is_same_v<S, double>) {
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(scores[i]);
  }
}

/// Ids scored per block pushed into the top-K sink: a multiple of the
/// scorer's own FFN block, so block scoring splits nothing the scorer
/// batches.
constexpr size_t kEvalStreamBlock = 8 * Scorer::kScoreBlock;

/// Streams one user's scores into the top-K sink, kEvalStreamBlock ids at
/// a time: over the catalogue [0, table.rows()) when `candidates` is null,
/// over the candidate list otherwise. Each block is scored by ScoreRange
/// (catalogue) or ScoreBatch (id list), or per item by Score when
/// `use_batched` is off. Per-user state (prefix, pu_) survives across
/// calls, so each block yields the exact per-item logits of one whole-list
/// pass while the thread-local block holds at most kEvalStreamBlock scores.
/// Requires a prior BeginUser on `sc`.
template <typename S>
void StreamScores(const ScorerT<S>& sc, const MatrixT<S>& table,
                  const FeedForwardNetT<S>& theta, bool use_batched,
                  const std::vector<ItemId>* candidates, TopKSelector* sink) {
  thread_local std::vector<double> block;
  const size_t n = candidates != nullptr ? candidates->size() : table.rows();
  block.resize(std::min(kEvalStreamBlock, n));
  S* scores = ScoreScratch<S>(block.data(), block.size());
  for (size_t first = 0; first < n; first += kEvalStreamBlock) {
    const size_t bs = std::min(kEvalStreamBlock, n - first);
    const ItemId* ids =
        candidates != nullptr ? candidates->data() + first : nullptr;
    if (!use_batched) {
      for (size_t i = 0; i < bs; ++i) {
        scores[i] = sc.Score(table, theta,
                             ids != nullptr ? ids[i]
                                            : static_cast<ItemId>(first + i));
      }
    } else if (ids != nullptr) {
      sc.ScoreBatch(table, theta, ids, bs, scores);
    } else {
      sc.ScoreRange(table, theta, static_cast<ItemId>(first), bs, scores);
    }
    UpcastScores(scores, bs, block.data());
    if (ids != nullptr) {
      sink->PushIds(ids, block.data(), bs);
    } else {
      sink->Push(static_cast<ItemId>(first), block.data(), bs);
    }
  }
}

/// fp64 state as a scorer over scalar S sees it: fp64 borrows `src`, fp32
/// casts it into `*cast` (the metrics pipeline and top-K sink stay fp64).
template <typename S>
const MatrixT<S>& ScalarView(const Matrix& src, MatrixT<S>* cast) {
  if constexpr (std::is_same_v<S, double>) {
    return src;
  } else {
    cast->AssignCast(src);
    return *cast;
  }
}

template <typename S>
const FeedForwardNetT<S>& ScalarView(const FeedForwardNet& src,
                                     FeedForwardNetT<S>* cast) {
  if constexpr (std::is_same_v<S, double>) {
    return src;
  } else {
    cast->AssignCastFrom(src);
    return *cast;
  }
}

/// A client's persistent double user embedding as an S row.
template <typename S>
const S* ScalarRow(const Matrix& user_embedding, std::vector<S>* cast) {
  const double* row = user_embedding.Row(0);
  if constexpr (std::is_same_v<S, double>) {
    return row;
  } else {
    cast->resize(user_embedding.cols());
    for (size_t d = 0; d < cast->size(); ++d) {
      (*cast)[d] = static_cast<S>(row[d]);
    }
    return cast->data();
  }
}

/// Evaluates through `with_user(u, thread_slot, score)`, which begins user
/// u's scorer on that thread and calls score(scorer, table, theta) with the
/// backend's scalar; the scores stream block by block into the top-K sink.
template <typename WithUser>
GroupedEval EvaluateUsers(const Evaluator& evaluator, bool use_batched,
                          ThreadPool* pool, const WithUser& with_user) {
  return evaluator.Evaluate(
      Evaluator::StreamScoreFn([&](UserId u, size_t thread_slot,
                                   const std::vector<ItemId>* candidates,
                                   TopKSelector* sink) {
        with_user(u, thread_slot, [&](const auto& sc, const auto& table,
                                      const auto& theta) {
          StreamScores(sc, table, theta, use_batched, candidates, sink);
        });
      }),
      pool);
}

/// Federated evaluation state over the working scalar S: one Scorer per
/// (executing thread, server slot), constructed once and reused for every
/// evaluated user (construction allocates per-width scratch). fp64 scores
/// the server tables directly; fp32 refreshes float casts of every slot's
/// table and Θ once per pass and casts each user row into per-thread
/// scratch.
template <typename S>
struct EvalState {
  std::vector<std::vector<ScorerT<S>>> scorers;  // [thread slot][server slot]
  std::vector<std::vector<S>> user_rows;         // [thread slot]
  std::vector<MatrixT<S>> table_casts;           // fp32 only
  std::vector<FeedForwardNetT<S>> theta_casts;   // fp32 only
  std::vector<const MatrixT<S>*> tables;         // this pass's scored state
  std::vector<const FeedForwardNetT<S>*> thetas;

  EvalState() = default;
  EvalState(size_t num_threads, const ShardedServer& server, BaseModel model)
      : scorers(num_threads),
        user_rows(num_threads),
        table_casts(server.num_slots()),
        theta_casts(server.num_slots()),
        tables(server.num_slots()),
        thetas(server.num_slots()) {
    for (std::vector<ScorerT<S>>& per_thread : scorers) {
      per_thread.reserve(server.num_slots());
      for (size_t s = 0; s < server.num_slots(); ++s) {
        per_thread.emplace_back(model, server.width(s));
      }
    }
  }
};

MethodSetup BuildSetup(const ExperimentConfig& cfg, Method method) {
  MethodSetup s;
  const auto& dims = cfg.dims;
  auto homogeneous = [&](size_t width) {
    s.widths = {width};
    for (int g = 0; g < kNumGroups; ++g) {
      s.slot_of_group[g] = 0;
      s.tasks_of_group[g] = {LocalTaskSpec{0, width}};
    }
  };
  switch (method) {
    case Method::kAllSmall:
      homogeneous(dims[0]);
      break;
    case Method::kAllLarge:
      homogeneous(dims[2]);
      break;
    case Method::kAllLargeExclusive:
      homogeneous(dims[2]);
      s.excluded[static_cast<int>(Group::kSmall)] = true;
      break;
    case Method::kClusteredFedRec:
    case Method::kDirectlyAggregate:
    case Method::kStandalone:
      s.widths = {dims[0], dims[1], dims[2]};
      s.shared_aggregation = (method == Method::kDirectlyAggregate);
      for (int g = 0; g < kNumGroups; ++g) {
        s.slot_of_group[g] = static_cast<size_t>(g);
        s.tasks_of_group[g] = {
            LocalTaskSpec{static_cast<size_t>(g), dims[g]}};
      }
      break;
    case Method::kHeteFedRec:
      s.widths = {dims[0], dims[1], dims[2]};
      s.shared_aggregation = true;
      for (int g = 0; g < kNumGroups; ++g) {
        s.slot_of_group[g] = static_cast<size_t>(g);
        if (cfg.unified_dual_task) {
          // Eq. 11: one objective per width Ns..Ng over shared storage.
          for (int t = 0; t <= g; ++t) {
            s.tasks_of_group[g].push_back(
                LocalTaskSpec{static_cast<size_t>(t), dims[t]});
          }
        } else {
          s.tasks_of_group[g] = {
              LocalTaskSpec{static_cast<size_t>(g), dims[g]}};
        }
        // Eq. 14: DDR applies to medium and large clients.
        s.apply_ddr[g] = cfg.decorrelation && g > 0;
      }
      s.reskd = cfg.ensemble_distillation;
      break;
  }
  return s;
}

/// One screened client of a dispatch batch: the key salting its network,
/// fault and corruption draws, and the fault drawn with it.
struct Dispatched {
  UserId user;
  uint64_t key;
  FaultKind fault;
};

/// \brief One federated run: the shared executor core plus two schedules.
///
/// Both schedules drive one client pipeline — Screen (gate, availability,
/// fault draw) into batch_, TrainBatch, AccountDownload, Deliver (upload
/// faults), then TryMerge (sync) or an AsyncAggregator submission — plus
/// the same distillation and evaluation, and differ only in *when* merges
/// happen:
///
///   SyncEpoch  — the paper's synchronous protocol, i.e. the degenerate
///     schedule of the event loop: a whole batch dispatches at one virtual
///     instant, a barrier closes the round (duration = the slowest merged
///     completion), merges land in batch order and the version advances
///     once per round. Bit-identical to the pre-async implementation.
///   AsyncEpoch — merge-on-arrival through AsyncAggregator: dispatches
///     fill free in-flight slots, completions merge strictly in virtual
///     completion-time order with staleness weighting w(s) = 1/(1+s)^alpha,
///     and the version advances once per merge (docs/SYNC.md).
class FederatedRun {
 public:
  FederatedRun(const ExperimentConfig& cfg, const Dataset& dataset,
               const GroupAssignment& groups, Method method)
      : cfg_(cfg),
        dataset_(dataset),
        groups_(groups),
        setup_(BuildSetup(cfg, method)),
        method_(method),
        root_(cfg.seed),
        evaluator_(MakeEvaluator(cfg, dataset, groups)) {
    if (setup_.widths.size() > 1) {
      HFR_CHECK_LT(cfg_.dims[0], cfg_.dims[1]);
      HFR_CHECK_LT(cfg_.dims[1], cfg_.dims[2]);
    }

    ShardedServer::Options server_opts;
    server_opts.widths = setup_.widths;
    server_opts.ffn_hidden = cfg_.ffn_hidden;
    server_opts.num_items = dataset_.num_items();
    server_opts.embed_init_std = cfg_.embed_init_std;
    server_opts.aggregation = cfg_.aggregation;
    server_opts.shared_aggregation = setup_.shared_aggregation;
    server_opts.seed = root_.Fork(1).Next();
    // server_shards 0 and 1 both mean one shard; any count gives the same
    // tables bit-for-bit.
    server_opts.num_shards = std::max<size_t>(1, cfg_.server_shards);
    server_ = std::make_unique<ShardedServer>(server_opts);

    clients_.resize(dataset_.num_users());
    for (size_t u = 0; u < clients_.size(); ++u) {
      Group g = groups_.of(static_cast<UserId>(u));
      size_t width = setup_.widths[setup_.slot_of_group[static_cast<int>(g)]];
      InitClient(&clients_[u], static_cast<UserId>(u), g, width,
                 cfg_.embed_init_std, root_);
    }

    // One LocalTrainer per executing thread (scratch buffers are not
    // shareable); slot t of the pool uses trainers[t].
    const size_t n_threads = EffectiveThreads(cfg_);
    pool_ = std::make_unique<ThreadPool>(n_threads - 1);
    trainers_.reserve(pool_->num_slots());
    for (size_t t = 0; t < pool_->num_slots(); ++t) {
      trainers_.push_back(
          std::make_unique<LocalTrainer>(dataset_, cfg_.base_model));
    }
    queue_ = std::make_unique<ClientQueue>(
        dataset_.num_users(), cfg_.clients_per_round, cfg_.straggler_slack);
    sched_rng_ = root_.Fork(2);
    kd_rng_ = root_.Fork(3);
    kd_opts_.kd_items = cfg_.kd_items;
    kd_opts_.steps = cfg_.kd_steps;
    kd_opts_.lr = cfg_.kd_lr;
    kd_opts_.backend = cfg_.compute_backend;

    // Delta-sync machinery (docs/SYNC.md). With full_downloads the replica
    // bookkeeping is skipped entirely — the default path stays the paper's.
    delta_sync_ = !cfg_.full_downloads;
    if (delta_sync_) {
      SyncService::Options sync_opts;
      sync_opts.verify_values = cfg_.sync_verify_replicas;
      sync_opts.replica_cap = cfg_.sync_replica_cap;
      sync_ = std::make_unique<SyncService>(dataset_.num_users(), sync_opts);
    }
    NetworkOptions net_opts;
    net_opts.availability = cfg_.availability;
    net_opts.bandwidth_bytes_per_sec = cfg_.net_bandwidth;
    net_opts.bandwidth_sigma = cfg_.net_bandwidth_sigma;
    net_opts.latency_seconds = cfg_.net_latency;
    net_opts.latency_sigma = cfg_.net_latency_sigma;
    net_opts.compute_seconds_per_sample = cfg_.net_compute_per_sample;
    net_opts.seed = root_.Fork(5).Next();
    net_ = std::make_unique<SimulatedNetwork>(net_opts);
    // Over-selection: rank completions by simulated time, merge the first
    // clients_per_round (a deadline alone also activates the ranking).
    over_select_ = cfg_.straggler_slack > 0 || cfg_.round_deadline > 0.0;

    // Robustness layer (docs/ROBUSTNESS.md). All three pieces stay null on
    // the default configuration, so the fault-free path is bit-identical to
    // a build without them (Fork is const, so the seeds drawn below never
    // perturb root_'s other streams).
    if (AnyFault(cfg_)) {
      FaultOptions fault_opts;
      fault_opts.upload_loss = cfg_.fault_upload_loss;
      fault_opts.download_loss = cfg_.fault_download_loss;
      fault_opts.crash = cfg_.fault_crash;
      fault_opts.duplicate = cfg_.fault_duplicate;
      fault_opts.corrupt = cfg_.fault_corrupt;
      fault_opts.seed = root_.Fork(6).Next();
      injector_ = std::make_unique<FaultInjector>(fault_opts);
    }
    if (HasClientGate(cfg_)) {
      BackoffOptions gate_opts;
      gate_opts.retry_base_seconds = cfg_.fault_retry_base;
      gate_opts.retry_cap_seconds = cfg_.fault_retry_cap;
      gate_opts.quarantine_base_seconds = cfg_.fault_quarantine_base;
      gate_opts.quarantine_cap_seconds = cfg_.fault_quarantine_cap;
      gate_opts.jitter = cfg_.fault_jitter;
      gate_opts.retry_max = cfg_.fault_retry_max;
      gate_opts.seed = root_.Fork(7).Next();
      gate_ = std::make_unique<ClientGate>(dataset_.num_users(), gate_opts);
    }
    if (cfg_.admission_control) {
      AdmissionOptions admit_opts;
      admit_opts.max_row_norm = cfg_.admit_max_row_norm;
      admit_opts.outlier_z = cfg_.admit_outlier_z;
      admission_ = std::make_unique<AdmissionController>(server_->num_slots(),
                                                         admit_opts);
      server_->SetAdmission(admission_.get());
    }

    if (cfg_.compute_backend == ComputeBackend::kFp64) {
      eval_.emplace<EvalState<double>>(pool_->num_slots(), *server_,
                                       cfg_.base_model);
    } else {
      eval_.emplace<EvalState<float>>(pool_->num_slots(), *server_,
                                      cfg_.base_model);
    }

    if (cfg_.async_mode) {
      async_inflight_ = cfg_.async_inflight > 0 ? cfg_.async_inflight
                                                : cfg_.clients_per_round;
      AsyncAggregator::Options agg_opts;
      agg_opts.staleness_alpha = cfg_.async_staleness_alpha;
      agg_opts.max_staleness = cfg_.async_max_staleness;
      // RESKD's per-round trigger becomes a per-N-merges cadence.
      agg_opts.distill_every =
          setup_.reskd ? (cfg_.async_distill_every > 0
                              ? cfg_.async_distill_every
                              : cfg_.clients_per_round)
                       : 0;
      agg_ = std::make_unique<AsyncAggregator>(server_.get(), agg_opts);
    }

    result_.comm.set_wire_scalar_bytes(cfg_.wire_scalar_bytes);
    SetupTelemetry();
  }

  /// Runs to completion, first restoring `resume` when it is not null.
  ExperimentResult Run(const RunState* resume) {
    if (resume != nullptr) LoadRun(*resume);
    for (int epoch = start_epoch_; epoch <= cfg_.global_epochs; ++epoch) {
      if (!resume_mid_epoch_) {
        loss_sum_ = 0.0;
        loss_count_ = 0;
      }
      if (cfg_.async_mode) {
        AsyncEpoch(epoch);
      } else {
        SyncEpoch(epoch);
      }
      if (result_.stopped) {
        // The debug kill hook simulates a crash: no evaluation, no final
        // model checkpoint — the last *run* checkpoint is the survivor a
        // resumed process picks up. Telemetry still flushes what it saw.
        result_.simulated_seconds = sim_clock_;
        result_.train_seconds = timer_.Seconds();
        TelemetryFinish();
        return std::move(result_);
      }

      const bool last = (epoch == cfg_.global_epochs);
      if ((cfg_.eval_every > 0 && epoch % cfg_.eval_every == 0) || last) {
        EpochPoint point;
        point.epoch = epoch;
        point.eval = RunEvaluation();
        point.mean_train_loss =
            loss_count_ > 0 ? loss_sum_ / static_cast<double>(loss_count_)
                            : 0.0;
        point.simulated_seconds = sim_clock_;
        if (cfg_.eval_every > 0) result_.history.push_back(point);
        if (last) result_.final_eval = point.eval;
        TelemetryEval(point);
      }
      // Async runs checkpoint at epoch boundaries, where the event queue
      // has fully drained (the sync schedule checkpoints per round inside
      // SyncEpoch instead).
      if (cfg_.checkpoint_every > 0 && cfg_.async_mode && !last) {
        WriteRunCheckpoint(epoch + 1, /*mid_epoch=*/false);
      }
    }

    {
      const Matrix& largest = server_->table(server_->num_slots() - 1);
      // Corrupted updates merged without admission control can poison the
      // tables with NaN/Inf; the eigen solver CHECKs on a non-finite
      // covariance, so report NaN collapse stats instead of aborting.
      bool finite = true;
      for (double v : largest.data()) {
        if (!std::isfinite(v)) {
          finite = false;
          break;
        }
      }
      if (finite) {
        std::vector<double> eig =
            SymmetricEigenvalues(CovarianceMatrix(largest));
        result_.collapse_variance = Variance(eig);
        double mean = Mean(eig);
        result_.collapse_cv =
            mean > 0 ? result_.collapse_variance / (mean * mean) : 0.0;
      } else {
        result_.collapse_variance = std::numeric_limits<double>::quiet_NaN();
        result_.collapse_cv = result_.collapse_variance;
      }
    }
    if (!cfg_.checkpoint_path.empty()) {
      Status st = SaveServerCheckpoint(cfg_.checkpoint_path, *server_,
                                       BaseModelName(cfg_.base_model));
      if (!st.ok()) {
        HFR_LOG(Warning) << "checkpoint save failed: " << st.ToString();
      }
    }
    result_.simulated_seconds = sim_clock_;
    result_.train_seconds = timer_.Seconds();
    TelemetryFinish();
    return std::move(result_);
  }

 private:
  int GroupOf(UserId u) const { return static_cast<int>(clients_[u].group); }
  size_t SlotOf(UserId u) const { return setup_.slot_of_group[GroupOf(u)]; }
  const std::vector<LocalTaskSpec>& TasksOf(UserId u) const {
    return setup_.tasks_of_group[GroupOf(u)];
  }

  /// Local training of one client against the current server tables. A
  /// crash still runs the device (its RNG stream advances, so a resumed run
  /// replays the identical draw) but loses the local work: the private
  /// embedding reverts, and the update is discarded at upload.
  /// Client-local, so parallel-safe.
  void TrainOne(UserId u, size_t slot_idx, FaultKind fk,
                LocalUpdateResult* out) {
    HFR_PROFILE("train");
    ClientState& client = clients_[u];
    const int g = GroupOf(u);
    const auto& tasks = setup_.tasks_of_group[g];
    std::vector<const FeedForwardNet*> thetas;
    thetas.reserve(tasks.size());
    for (const auto& task : tasks) {
      thetas.push_back(&server_->theta(task.slot));
    }

    LocalTrainerOptions lopt;
    lopt.local_epochs = cfg_.local_epochs;
    lopt.lr = cfg_.lr;
    lopt.apply_ddr = setup_.apply_ddr[g];
    lopt.alpha = cfg_.alpha;
    lopt.ddr_sample_rows = cfg_.ddr_sample_rows;
    lopt.validation_fraction = cfg_.local_validation_fraction;
    lopt.use_sparse = cfg_.use_sparse_updates;
    lopt.use_batched = cfg_.use_batched_scoring;
    lopt.sparse_comm_accounting = cfg_.sparse_comm_accounting;
    lopt.backend = cfg_.compute_backend;

    Matrix saved;
    if (fk == FaultKind::kCrash) saved = client.user_embedding;
    *out = trainers_[slot_idx]->Train(&client, server_->table(SlotOf(u)),
                                      thetas, tasks, lopt);
    if (fk == FaultKind::kCrash) client.user_embedding = std::move(saved);
  }

  /// Download accounting for one trained client, in deterministic dispatch
  /// order (the replica commit must be deterministic). Returns the scalars
  /// the active protocol actually ships down; also records CommStats.
  size_t AccountDownload(UserId u, const LocalUpdateResult& update) {
    HFR_PROFILE("sync");
    const size_t slot = SlotOf(u);
    const Matrix& table = server_->table(slot);
    // update.params_down is the dense accounting: |V| + |Θ...|.
    const size_t theta_params = update.params_down - table.size();
    size_t shipped = update.params_down;
    // Dense clients read the whole table, so they hold no subscription.
    if (delta_sync_ && cfg_.use_sparse_updates) {
      SyncPlan plan = sync_->Sync(u, slot, update.read_rows, table,
                                  server_->versions(), theta_params);
      shipped = plan.params;
      metrics_.rows_subscribed += plan.subscribed_rows;
      metrics_.rows_shipped += plan.shipped_rows;
    }
    result_.comm.RecordDownload(
        clients_[u].group,
        cfg_.sparse_comm_accounting ? shipped : update.params_down);
    return shipped;
  }

  /// Merge bookkeeping both schedules share: the accepted upload, the
  /// epoch's loss mean and the client's cleared failure streak.
  void CountMerge(UserId u, size_t params_up, double train_loss) {
    result_.comm.RecordUpload(clients_[u].group, params_up);
    loss_sum_ += train_loss;
    loss_count_++;
    if (gate_) gate_->OnSuccess(u);
  }

  /// Schedules a failed transfer's retry: capped exponential backoff on the
  /// virtual clock, giving the client up (until the next epoch refill) once
  /// retry_max consecutive failures accumulate.
  void FailAndRequeue(UserId u, double now) {
    FaultStats* f = result_.comm.mutable_faults();
    if (gate_ && !gate_->RetryAfterFailure(u, now)) {
      f->gave_up++;
      return;
    }
    f->retries++;
    queue_->Requeue(u);
  }

  /// Admission control rejected the client's update: quarantine it so it
  /// re-enters (much later) with a fresh download.
  void Reject(UserId u, bool nonfinite, double now) {
    FaultStats* f = result_.comm.mutable_faults();
    if (nonfinite) {
      f->rejected_nonfinite++;
      TraceFault("reject_nonfinite", "admission", u, now);
    } else {
      f->rejected_outlier++;
      TraceFault("reject_outlier", "admission", u, now);
    }
    f->quarantines++;
    if (gate_) gate_->Quarantine(u, now);
    queue_->Requeue(u);
  }

  /// Admission gate in front of the merge into the open round's
  /// accumulators. Returns true iff the update merged.
  bool TryMerge(UserId u, LocalUpdateResult* update, double now) {
    if (server_->admission_enabled()) {
      const AdmissionDecision decision = server_->Admit(TasksOf(u), update);
      result_.comm.mutable_faults()->rows_clipped += decision.rows_clipped;
      if (decision.verdict != AdmissionVerdict::kAccept) {
        Reject(u, decision.verdict == AdmissionVerdict::kRejectNonFinite, now);
        return false;
      }
    }
    HFR_PROFILE("merge");
    const double weight =
        cfg_.aggregation == AggregationMode::kDataWeighted
            ? static_cast<double>(dataset_.TrainItems(u).size())
            : 1.0;
    server_->UploadDelta(TasksOf(u), *update, weight);
    CountMerge(u, update->params_up, update->train_loss);
    return true;
  }

  /// A crash or upload loss: the download happened (the replica committed)
  /// but no update will ever arrive, so the client retries after backoff.
  /// Returns true when `fk` lost the upload.
  bool LoseUpload(UserId u, FaultKind fk, double now) {
    if (fk != FaultKind::kCrash && fk != FaultKind::kUploadLoss) return false;
    FaultStats* f = result_.comm.mutable_faults();
    if (fk == FaultKind::kCrash) {
      f->crashed++;
      TraceFault("crash", "fault", u, now);
    } else {
      f->upload_lost++;
      TraceFault("upload_loss", "fault", u, now);
    }
    FailAndRequeue(u, now);
    return true;
  }

  /// Sends one trained client's upload through its drawn fault: loses it
  /// or applies the in-flight faults. A duplicate is delivered twice and
  /// deduped by the server by (client, round id), so the redundant copy
  /// shows up only in the fault counters; a corrupted update reaches
  /// admission damaged. Returns true when the update reaches the server.
  bool Deliver(const Dispatched& d, double now, LocalUpdateResult* update) {
    FaultStats* f = result_.comm.mutable_faults();
    if (LoseUpload(d.user, d.fault, now)) return false;
    if (d.fault == FaultKind::kDuplicate) {
      f->duplicates++;
      TraceFault("duplicate", "fault", d.user, now);
    } else if (d.fault == FaultKind::kCorrupt) {
      f->corrupted++;
      TraceFault("corrupt", "fault", d.user, now);
      injector_->Corrupt(d.user, d.key, update);
    }
    return true;
  }

  /// Simulated wall-clock seconds of one full participation: what the wire
  /// actually carries down (`down_scalars`, from AccountDownload) and up
  /// (packed touched rows on the sparse path, the dense table and Θ
  /// otherwise), plus local compute. The participation key salts the
  /// latency draw.
  double ClientFinishSeconds(const Dispatched& d, size_t down_scalars,
                             const LocalUpdateResult& up) const {
    const size_t theta_params =
        up.params_down - server_->table(SlotOf(d.user)).size();
    const size_t up_scalars = cfg_.use_sparse_updates
                                  ? up.v_delta.ParamCount() + theta_params
                                  : up.params_down;
    return net_->FinishSeconds(d.user, d.key,
                               down_scalars * cfg_.wire_scalar_bytes,
                               up_scalars * cfg_.wire_scalar_bytes,
                               up.train_samples);
  }

  /// Screens one queued client for dispatch at virtual instant `now` and
  /// appends it to batch_ when it trains. The checks run in order:
  /// excluded group, backoff gate, participation key, availability, fault
  /// draw, download loss. "All Large/Exclusive" excludes data-poor clients
  /// from the federation entirely: they receive the global model for
  /// inference but never train, so even their private embeddings stay at
  /// initialization (the severity of the paper's Table II drop). Clients
  /// backing off or offline re-enter the queue for a later attempt. The
  /// key salting the participation's draws is the round id under the
  /// synchronous schedule and a fresh dispatch sequence number under the
  /// asynchronous one. Returns true when the backoff gate held the client.
  bool Screen(UserId u, double now) {
    if (setup_.excluded[GroupOf(u)]) return false;
    if (gate_ && !gate_->Ready(u, now)) {
      queue_->Requeue(u);
      return true;
    }
    const uint64_t key =
        cfg_.async_mode ? dispatch_seq_++ : server_->versions().round();
    if (!net_->Online(u, key)) {
      queue_->Requeue(u);
      return false;
    }
    const FaultKind fk =
        injector_ ? injector_->Draw(u, key) : FaultKind::kNone;
    if (fk == FaultKind::kDownloadLoss) {
      // The model never reaches the client: no download accounting, no
      // training — the client retries after backoff.
      result_.comm.mutable_faults()->download_lost++;
      TraceFault("download_loss", "fault", u, now);
      FailAndRequeue(u, now);
      return false;
    }
    batch_.push_back({u, key, fk});
    return false;
  }

  /// Trains batch_[first, end) against the current tables into their
  /// update slots, in parallel on the pool (inline when it has no
  /// workers), then counts each trained client's skipped optimizer steps,
  /// whatever later becomes of its upload. Each client mutates only its
  /// own ClientState, its thread's LocalTrainer scratch and its own slot
  /// while the server and dataset stay read-only, so updates are
  /// bit-identical for every thread count.
  void TrainBatch(size_t first, size_t end) {
    updates_.resize(batch_.size());
    pool_->ParallelFor(end - first, [&](size_t i, size_t slot_idx) {
      const Dispatched& d = batch_[first + i];
      TrainOne(d.user, slot_idx, d.fault, &updates_[first + i]);
    });
    FaultStats* f = result_.comm.mutable_faults();
    for (size_t k = first; k < end; ++k) {
      f->nonfinite_grad_steps += updates_[k].nonfinite_grad_steps;
    }
  }

  /// The synchronous round protocol (the paper's), unchanged semantics on
  /// the default path: barrier rounds over the shuffled queue, optional
  /// over-selection, optional fault injection / admission control.
  void SyncEpoch(int epoch) {
    if (resume_mid_epoch_) {
      // Queue contents, loss accumulators and the round budget were
      // restored from the run checkpoint; re-shuffling would diverge.
      resume_mid_epoch_ = false;
    } else {
      queue_->BeginEpoch(&sched_rng_);
      // With availability < 1 offline clients requeue, so an epoch can take
      // more than the nominal number of rounds; the budget bounds the tail
      // (P(still queued) decays geometrically) so a tiny p cannot hang a
      // run.
      round_budget_ = 10 * queue_->rounds_per_epoch() + 10;
    }
    while (!queue_->Exhausted() && round_budget_ > 0) {
      --round_budget_;
      const std::vector<UserId> selected = queue_->NextRound();
      server_->BeginRound();
      batch_.clear();
      // Earliest instant a client the backoff gate held may retry.
      double retry_at = std::numeric_limits<double>::infinity();
      for (UserId u : selected) {
        if (Screen(u, sim_clock_)) {
          retry_at = std::min(retry_at, gate_->ReadyAt(u));
        }
      }

      // The round's barrier in simulated time: the server applies the
      // aggregate only once its slowest *merged* client has finished.
      double round_seconds = 0.0;
      size_t merged_count = 0;
      // While the round is open sim_clock_ is the round's start instant;
      // every trace event inside the round is stamped with it, and the
      // barrier-close events below with round_start + round_seconds.
      const double round_start = sim_clock_;
      auto count_merged = [&](UserId u, double finish) {
        round_seconds = std::max(round_seconds, finish);
        ++merged_count;
        if (trace_) trace_round_merges_.push_back(u);
      };

      if (!over_select_) {
        // Updates merge into the server in batch order. A pool with
        // workers trains the whole batch first; a serial one trains and
        // merges one client at a time so only one update is ever live.
        const size_t chunk = pool_->num_workers() == 0 ? 1 : batch_.size();
        for (size_t first = 0; first < batch_.size(); first += chunk) {
          const size_t end = std::min(batch_.size(), first + chunk);
          TrainBatch(first, end);
          for (size_t k = first; k < end; ++k) {
            const Dispatched& d = batch_[k];
            // Taken out of its slot, the update is freed once handled.
            LocalUpdateResult update = std::move(updates_[k]);
            const size_t shipped = AccountDownload(d.user, update);
            if (Deliver(d, sim_clock_, &update) &&
                TryMerge(d.user, &update, sim_clock_)) {
              const double fin = ClientFinishSeconds(d, shipped, update);
              count_merged(d.user, fin);
              TraceTransfer(d.user, round_start, fin, /*merged=*/true);
            }
          }
        }
      } else {
        // Over-selection: every selected client downloads and trains (its
        // replica, embedding and RNG advance), but only the first
        // clients_per_round simulated completions merge — in batch order,
        // so results stay thread-count independent. Stragglers and
        // deadline misses are discarded and re-queued; crashed and
        // upload-lost clients never complete, so they leave the ranking
        // entirely.
        TrainBatch(0, batch_.size());
        const size_t n = batch_.size();
        std::vector<double> finish(n);
        std::vector<uint8_t> eligible(n, 1);
        for (size_t k = 0; k < n; ++k) {
          const size_t down_scalars =
              AccountDownload(batch_[k].user, updates_[k]);
          finish[k] = ClientFinishSeconds(batch_[k], down_scalars, updates_[k]);
          if (LoseUpload(batch_[k].user, batch_[k].fault, sim_clock_)) {
            eligible[k] = 0;
          }
        }
        std::vector<size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return finish[a] != finish[b] ? finish[a] < finish[b] : a < b;
        });
        std::vector<uint8_t> merged(n, 0);
        size_t taken = 0;
        bool deadline_cut = false;
        for (size_t k : order) {
          if (!eligible[k]) continue;
          if (taken >= cfg_.clients_per_round) break;
          if (cfg_.round_deadline > 0.0 && finish[k] > cfg_.round_deadline) {
            deadline_cut = true;
            break;  // order is sorted: everyone later missed it too
          }
          merged[k] = 1;
          taken++;
        }
        for (size_t k = 0; k < n; ++k) {
          if (!eligible[k]) continue;
          const Dispatched& d = batch_[k];
          // Stragglers transferred too (their download is on the wire);
          // the merged flag separates the two populations in the trace.
          TraceTransfer(d.user, round_start, finish[k], merged[k] != 0);
          if (!merged[k]) {
            queue_->Requeue(d.user);
          } else if (Deliver(d, sim_clock_, &updates_[k]) &&
                     TryMerge(d.user, &updates_[k], sim_clock_)) {
            count_merged(d.user, finish[k]);
          }
        }
        if (deadline_cut) {
          // The quota went unfilled because clients missed the deadline:
          // the server waited the deadline out before closing the round.
          round_seconds = cfg_.round_deadline;
        }
      }
      if (merged_count == 0 && std::isfinite(retry_at)) {
        // Nothing merged while the gate held selected clients: the round
        // lasts until the earliest of them may retry, or the virtual
        // clock would stand still and their backoff never expire.
        round_seconds = std::max(round_seconds, retry_at - round_start);
      }
      updates_.clear();
      server_->FinishRound();
      if (setup_.reskd) {
        server_->Distill(kd_opts_, &kd_rng_);
        ++metrics_.distills;
      }
      sim_clock_ += round_seconds;
      ++rounds_done_;
      if (trace_) {
        // Barrier close: the round span, then the merges it applied and the
        // distillation, all at the close instant (ts stays monotone — every
        // in-round event above was stamped with round_start).
        JsonObj args;
        args.U64("round", rounds_done_)
            .U64("merged", merged_count)
            .U64("queue", queue_->pending());
        trace_->Complete("round", "server", round_start, round_seconds,
                         kServerTrack, args.Build());
        for (const UserId u : trace_round_merges_) {
          JsonObj margs;
          margs.U64("user", u);
          trace_->Instant("merge", "server", sim_clock_, kServerTrack,
                          margs.Build());
        }
        if (setup_.reskd) {
          trace_->Instant("distill", "server", sim_clock_, kServerTrack);
        }
      }
      trace_round_merges_.clear();
      TelemetryRound(epoch, round_seconds, merged_count);
      if (cfg_.debug_stop_after_rounds > 0 &&
          rounds_done_ >= cfg_.debug_stop_after_rounds) {
        // Simulated crash: the round that just completed is never
        // checkpointed, exactly like a kill between rounds.
        result_.stopped = true;
        return;
      }
      if (cfg_.checkpoint_every > 0 &&
          rounds_done_ % cfg_.checkpoint_every == 0) {
        WriteRunCheckpoint(epoch, /*mid_epoch=*/true);
      }
    }
    if (!queue_->Exhausted()) {
      // Offline draws requeue clients, and so does over-selection: a client
      // that misses the round deadline every round never merges.
      std::ostringstream cause;
      cause << "availability=" << cfg_.availability;
      if (cfg_.straggler_slack > 0 || cfg_.round_deadline > 0) {
        cause << ", straggler_slack=" << cfg_.straggler_slack
              << ", round_deadline=" << cfg_.round_deadline;
      }
      HFR_LOG(Warning) << "epoch " << epoch
                       << " round budget exhausted with " << queue_->pending()
                       << " clients still queued (" << cause.str()
                       << "); dropping them until next epoch";
    }
  }

  /// Fills free in-flight slots from the queue at the current virtual
  /// instant. Offline clients requeue (a fresh availability draw at their
  /// next dispatch attempt); excluded groups never dispatch. A client the
  /// backoff gate holds costs no budget, and a pass ends once every queued
  /// client in a row was held. With nothing in flight, the dispatch
  /// instant moves to the earliest retry of a held client, and a batch
  /// that lost every upload dispatches again: no merge is left to trigger
  /// the next dispatch, so the epoch would end with the queue undrained.
  void AsyncDispatch(size_t* budget) {
    do {
      HFR_CHECK_GE(async_inflight_, agg_->in_flight());
      const size_t free_slots = async_inflight_ - agg_->in_flight();
      const double now = agg_->clock_seconds();
      batch_.clear();
      double retry_at = std::numeric_limits<double>::infinity();
      size_t held_in_row = 0;
      while (batch_.size() < free_slots && !queue_->Exhausted() &&
             *budget > 0 && held_in_row < queue_->pending()) {
        const UserId u = queue_->PopNext();
        if (Screen(u, now)) {
          retry_at = std::min(retry_at, gate_->ReadyAt(u));
          ++held_in_row;
        } else {
          --*budget;
          held_in_row = 0;
        }
      }
      if (!batch_.empty()) {
        SubmitBatch(now);
      } else if (agg_->empty() && std::isfinite(retry_at)) {
        agg_->AdvanceClock(retry_at);
      } else {
        return;
      }
    } while (agg_->empty());
  }

  /// Trains batch_, dispatched at virtual instant `now`, in parallel
  /// against the current tables — every client of one dispatch batch
  /// downloads the same model version, which is what dispatching at one
  /// virtual instant means — and submits each upload its fault spares.
  void SubmitBatch(double now) {
    // In-flight updates must coexist (they are "on the wire"), unlike the
    // synchronous serial path's one live update; on the default sparse
    // path each holds only its touched rows.
    const uint64_t version = server_->versions().round();
    TrainBatch(0, batch_.size());
    // Replica commits and the completion events in dispatch order.
    for (size_t k = 0; k < batch_.size(); ++k) {
      const Dispatched& d = batch_[k];
      const size_t shipped = AccountDownload(d.user, updates_[k]);
      if (!Deliver(d, now, &updates_[k])) continue;
      const double finish = now + ClientFinishSeconds(d, shipped, updates_[k]);
      if (trace_) {
        JsonObj args;
        args.U64("user", d.user).U64("seq", d.key);
        trace_->Complete("transfer", "net", now, finish - now,
                         GroupTrack(clients_[d.user].group), args.Build());
      }
      agg_->Submit(d.user, &TasksOf(d.user), std::move(updates_[k]), version,
                   finish);
    }
    updates_.clear();
  }

  /// Merge-on-arrival: completions pop in virtual-time order and merge (or
  /// drop) immediately; freed slots re-dispatch every async_dispatch_batch
  /// merges. The epoch ends when the queue is drained and every in-flight
  /// completion has arrived — the virtual clock runs on across epochs.
  void AsyncEpoch(int epoch) {
    queue_->BeginEpoch(&sched_rng_);
    // Dispatch-attempt budget, same role as the sync round budget: with
    // availability < 1 (or a tight staleness cap) clients requeue, and the
    // geometric retry tail must not be able to hang a run.
    size_t budget = 10 * dataset_.num_users() + 10 * async_inflight_;
    AsyncDispatch(&budget);
    size_t since_dispatch = 0;
    while (!agg_->empty()) {
      AsyncAggregator::Outcome out =
          agg_->MergeNext(kd_opts_, setup_.reskd ? &kd_rng_ : nullptr);
      const Group g = clients_[out.user].group;
      result_.comm.mutable_faults()->rows_clipped += out.rows_clipped;
      if (out.merged) {
        CountMerge(out.user, out.params_up, out.train_loss);
        ++rounds_done_;
        if (tel_) metrics_.staleness->Observe(static_cast<double>(out.staleness));
        if (trace_) {
          JsonObj args;
          args.U64("user", out.user)
              .U64("staleness", out.staleness)
              .Num("weight", out.weight);
          trace_->Instant("merge", "server", out.finish_seconds, kServerTrack,
                          args.Build());
        }
        // The async "round" is a merge batch: every clients_per_round-th
        // merge closes one for the metrics stream.
        if (++async_merges_in_row_ >= cfg_.clients_per_round) {
          FlushAsyncRound(epoch);
        }
        if (cfg_.debug_stop_after_rounds > 0 &&
            rounds_done_ >= cfg_.debug_stop_after_rounds) {
          // Simulated crash mid-epoch: in-flight events are simply lost.
          sim_clock_ = agg_->clock_seconds();
          result_.stopped = true;
          return;
        }
      } else if (out.rejected) {
        Reject(out.user, out.rejected_nonfinite, out.finish_seconds);
      } else {
        // Dropped by the staleness cap: the work is discarded and the
        // client re-queued for a fresh download, like a sync straggler.
        result_.comm.RecordDropped(g);
        if (trace_) {
          JsonObj args;
          args.U64("user", out.user).U64("staleness", out.staleness);
          trace_->Instant("drop", "server", out.finish_seconds,
                          GroupTrack(g), args.Build());
        }
        queue_->Requeue(out.user);
      }
      if (out.distilled) ++metrics_.distills;
      if (out.distilled && trace_) {
        trace_->Instant("distill", "server", out.finish_seconds, kServerTrack);
      }
      if (++since_dispatch >= cfg_.async_dispatch_batch || agg_->empty()) {
        AsyncDispatch(&budget);
        since_dispatch = 0;
      }
    }
    if (!queue_->Exhausted()) {
      HFR_LOG(Warning) << "epoch " << epoch
                       << " async dispatch budget exhausted with "
                       << queue_->pending()
                       << " clients still queued (availability="
                       << cfg_.availability
                       << "); dropping them until next epoch";
    }
    sim_clock_ = agg_->clock_seconds();
    // Close the partial merge batch so the epoch's tail still reports.
    FlushAsyncRound(epoch);
  }

  /// Emits the open async merge batch as one metrics round (no-op when
  /// nothing merged since the last row).
  void FlushAsyncRound(int epoch) {
    if (async_merges_in_row_ == 0) return;
    const double now = agg_->clock_seconds();
    const size_t merged = async_merges_in_row_;
    async_merges_in_row_ = 0;
    const double duration = now - async_row_clock_;
    async_row_clock_ = now;
    sim_clock_ = now;
    TelemetryRound(epoch, duration, merged);
  }

  GroupedEval RunEvaluation() {
    HFR_PROFILE("eval");
    return std::visit([this](auto& state) { return Evaluate(&state); },
                      eval_);
  }

  template <typename S>
  GroupedEval Evaluate(EvalState<S>* st) {
    // The server state mutates between passes, so the fp32 casts refresh
    // once per pass; fp64 borrows the tables.
    for (size_t s = 0; s < server_->num_slots(); ++s) {
      st->tables[s] = &ScalarView(server_->table(s), &st->table_casts[s]);
      st->thetas[s] = &ScalarView(server_->theta(s), &st->theta_casts[s]);
    }
    return EvaluateUsers(
        evaluator_, cfg_.use_batched_scoring, pool_.get(),
        [this, st](UserId u, size_t thread_slot, const auto& score) {
          const size_t slot = SlotOf(u);
          ScorerT<S>& sc = st->scorers[thread_slot][slot];
          sc.BeginUser(ScalarRow(clients_[u].user_embedding,
                                 &st->user_rows[thread_slot]),
                       *st->tables[slot], dataset_.TrainItems(u));
          score(sc, *st->tables[slot], *st->thetas[slot]);
        });
  }

  /// Writes the full run state to checkpoint_path + ".run" with an atomic
  /// rename (docs/ROBUSTNESS.md "Crash-consistent resume").
  void WriteRunCheckpoint(int next_epoch, bool mid_epoch) {
    HFR_PROFILE("checkpoint");
    ++metrics_.checkpoints;
    if (trace_) {
      trace_->Instant("checkpoint", "server", sim_clock_, kServerTrack);
    }
    RunState st;
    st.fingerprint = ConfigFingerprint(cfg_, MethodName(method_));
    st.method = MethodName(method_);
    st.base_model = BaseModelName(cfg_.base_model);
    st.next_epoch = next_epoch;
    st.mid_epoch = mid_epoch;
    st.round_budget = round_budget_;
    st.rounds_done = rounds_done_;
    st.dispatch_seq = dispatch_seq_;
    st.loss_sum = loss_sum_;
    st.loss_count = loss_count_;
    st.sim_clock = sim_clock_;
    st.sched_rng = sched_rng_.SaveState();
    st.kd_rng = kd_rng_.SaveState();
    st.client_rngs.reserve(clients_.size());
    st.client_embeddings.reserve(clients_.size());
    for (const ClientState& c : clients_) {
      st.client_rngs.push_back(c.rng.SaveState());
      st.client_embeddings.push_back(c.user_embedding);
    }
    st.server = server_->Snapshot();
    for (UserId u : queue_->PendingSnapshot()) {
      st.queue_pending.push_back(static_cast<uint64_t>(u));
    }
    if (agg_) {
      st.async_clock = agg_->clock_seconds();
      st.async_next_seq = agg_->next_seq();
      st.async_merged = agg_->merged_updates();
      st.async_dropped = agg_->dropped_updates();
    }
    if (gate_) st.gate_state = gate_->Export();
    if (admission_) st.admission_history = admission_->ExportHistory();
    st.comm_counters = result_.comm.ExportCounters();
    st.history = result_.history;
    if (sync_) {
      st.replicas.resize(clients_.size());
      std::vector<uint32_t> rows;
      std::vector<uint64_t> row_versions;
      for (size_t u = 0; u < clients_.size(); ++u) {
        const ClientReplica& rep = sync_->replica(static_cast<UserId>(u));
        ReplicaSnapshot& snap = st.replicas[u];
        snap.slot_plus_one =
            rep.slot() == ClientReplica::kNoSlot ? 0 : rep.slot() + 1;
        rep.ExportRows(&rows, &row_versions);
        snap.rows.assign(rows.begin(), rows.end());
        snap.versions = row_versions;
      }
    }
    const Status saved = SaveRunState(cfg_.checkpoint_path + ".run", st);
    if (!saved.ok()) {
      HFR_LOG(Warning) << "run checkpoint save failed: " << saved.ToString();
    }
  }

  /// Restores `st`, the state WriteRunCheckpoint wrote. Create loads it,
  /// reporting a file that does not load or carries blocks this
  /// configuration does not restore, and LoadRunState bounds every index
  /// used here. An experiment mismatch is fatal — resuming a different run
  /// would silently produce garbage.
  void LoadRun(RunState st) {
    HFR_CHECK_EQ(st.fingerprint, ConfigFingerprint(cfg_, MethodName(method_)))
        << " — the checkpoint was written under a different experiment "
           "configuration";
    HFR_CHECK(st.method == MethodName(method_));
    HFR_CHECK(st.base_model == BaseModelName(cfg_.base_model));
    HFR_CHECK_EQ(st.server.tables.size(), server_->num_slots());
    HFR_CHECK_EQ(st.client_rngs.size(), clients_.size());

    start_epoch_ = st.next_epoch;
    resume_mid_epoch_ = st.mid_epoch;
    round_budget_ = st.round_budget;
    rounds_done_ = st.rounds_done;
    dispatch_seq_ = st.dispatch_seq;
    loss_sum_ = st.loss_sum;
    loss_count_ = static_cast<size_t>(st.loss_count);
    sim_clock_ = st.sim_clock;
    sched_rng_.RestoreState(st.sched_rng);
    kd_rng_.RestoreState(st.kd_rng);
    for (size_t u = 0; u < clients_.size(); ++u) {
      clients_[u].rng.RestoreState(st.client_rngs[u]);
      HFR_CHECK_EQ(st.client_embeddings[u].cols(),
                   clients_[u].user_embedding.cols());
      clients_[u].user_embedding = std::move(st.client_embeddings[u]);
    }
    server_->RestoreSnapshot(std::move(st.server));
    std::vector<UserId> pending;
    pending.reserve(st.queue_pending.size());
    for (uint64_t u : st.queue_pending) {
      pending.push_back(static_cast<UserId>(u));
    }
    queue_->RestorePending(pending);
    if (agg_) {
      agg_->RestoreState(st.async_clock, st.async_next_seq,
                         static_cast<size_t>(st.async_merged),
                         static_cast<size_t>(st.async_dropped));
    }
    if (gate_) gate_->Restore(st.gate_state);
    if (admission_) admission_->RestoreHistory(st.admission_history);
    result_.comm.RestoreCounters(st.comm_counters);
    result_.history = std::move(st.history);
    for (size_t u = 0; u < st.replicas.size(); ++u) {
      const ReplicaSnapshot& snap = st.replicas[u];
      ClientReplica* rep = sync_->mutable_replica(static_cast<UserId>(u));
      if (snap.slot_plus_one > 0) {
        rep->set_slot(static_cast<size_t>(snap.slot_plus_one - 1));
      }
      // Replaying Hold in export order (coldest first when capped)
      // rebuilds the identical LRU recency list.
      for (size_t k = 0; k < snap.rows.size(); ++k) {
        rep->Hold(static_cast<uint32_t>(snap.rows[k]), snap.versions[k]);
      }
    }
  }

  // --- telemetry (docs/OBSERVABILITY.md) --------------------------------
  // Pure observation: nothing below may touch an RNG stream, the virtual
  // clock or any trained value — a telemetry-on run is bit-identical to a
  // telemetry-off one (tests/core/telemetry_equivalence_test.cc). All
  // emission happens on the deterministic main/merge thread.

  static constexpr int kServerTrack = 0;
  static int GroupTrack(Group g) { return 1 + static_cast<int>(g); }

  void SetupTelemetry() {
    if (cfg_.profile) {
      Profiler::Get().Reset();
      Profiler::Get().Enable(true);
    }
    if (cfg_.metrics_out.empty() && cfg_.trace_out.empty() && !cfg_.profile) {
      return;
    }
    TelemetryOptions topt;
    topt.metrics_path = cfg_.metrics_out;
    topt.trace_path = cfg_.trace_out;
    topt.profile = cfg_.profile;
    StatusOr<std::unique_ptr<Telemetry>> tel = Telemetry::Create(topt);
    HFR_CHECK(tel.ok()) << tel.status().ToString();
    tel_ = std::move(tel).value();
    trace_ = tel_->trace();
    metrics_.round_seconds.emplace(
        std::vector<double>{1, 2, 5, 10, 30, 60, 120, 300});
    if (cfg_.async_mode) {
      metrics_.staleness.emplace(
          std::vector<double>{0, 1, 2, 4, 8, 16, 32, 64});
    }
    if (trace_) {
      trace_->SetTrackName(kServerTrack, "server");
      for (int g = 0; g < kNumGroups; ++g) {
        trace_->SetTrackName(1 + g,
                             "clients/" + GroupName(static_cast<Group>(g)));
      }
    }
    if (tel_->metrics_on()) {
      JsonObj meta;
      meta.Str("type", "meta")
          .I64("version", 1)
          .Str("method", MethodName(method_))
          .Str("dataset", cfg_.dataset)
          .Num("data_scale", cfg_.data_scale)
          .U64("seed", cfg_.seed)
          .Bool("async", cfg_.async_mode)
          .U64("clients_per_round", cfg_.clients_per_round)
          .I64("epochs", cfg_.global_epochs)
          .Bool("resumed", cfg_.resume_run);
      tel_->WriteRow(meta.Build());
    }
  }

  /// Instant event for an injected fault / admission rejection on the
  /// client's group track.
  void TraceFault(const char* kind, const char* category, UserId u,
                  double ts) {
    if (!trace_) return;
    JsonObj args;
    args.U64("user", u);
    trace_->Instant(kind, category, ts, GroupTrack(clients_[u].group),
                    args.Build());
  }

  /// One synchronous-round client transfer on its group track, spanning the
  /// round start to the client's simulated finish.
  void TraceTransfer(UserId u, double start, double duration, bool merged) {
    if (!trace_) return;
    JsonObj args;
    args.U64("user", u).Bool("merged", merged);
    trace_->Complete("transfer", "net", start, duration,
                     GroupTrack(clients_[u].group), args.Build());
  }

  /// Round close (sync round / async merge batch): snapshot the per-round
  /// traffic, update the round gauges and stream one "round" row. The
  /// virtual clock (sim_clock_) has already advanced to the close instant.
  void TelemetryRound(int epoch, double duration, size_t merged) {
    if (!tel_ && !cfg_.track_round_comm) return;
    const CommRound rc = result_.comm.SnapshotRound();
    if (cfg_.track_round_comm) result_.round_comm.push_back(rc);
    if (!tel_) return;
    RunMetrics& m = metrics_;
    ++m.rounds;
    m.merges += merged;
    m.queue_depth = queue_->pending();
    m.round_merged = merged;
    m.round_down_scalars = rc.DownParams();
    m.round_up_scalars = rc.UpParams();
    m.loss_mean =
        loss_count_ > 0 ? loss_sum_ / static_cast<double>(loss_count_) : 0.0;
    // Replica cache hit rate: subscribed rows the round did NOT have to
    // ship (fresh in the client replica) over rows subscribed.
    const uint64_t sub = m.rows_subscribed - rows_sub_seen_;
    const uint64_t ship = m.rows_shipped - rows_ship_seen_;
    rows_sub_seen_ = m.rows_subscribed;
    rows_ship_seen_ = m.rows_shipped;
    m.replica_hit_rate =
        sub > 0 ? 1.0 - static_cast<double>(ship) / static_cast<double>(sub)
                : 0.0;
    m.round_seconds->Observe(duration);
    if (tel_->metrics_on()) {
      JsonObj row;
      row.U64("round", m.rounds);
      row.Str("type", "round")
          .I64("epoch", epoch)
          .Num("clock", sim_clock_)
          .Num("duration", duration)
          .U64("merged", merged)
          .U64("queue", queue_->pending())
          .Raw("metrics", m.ToJson(result_.comm, sim_clock_));
      tel_->WriteRow(row.Build());
    }
  }

  void TelemetryEval(const EpochPoint& point) {
    if (!tel_) return;
    metrics_.eval_recall = point.eval.overall.recall;
    metrics_.eval_ndcg = point.eval.overall.ndcg;
    if (trace_) {
      JsonObj args;
      args.Num("recall", point.eval.overall.recall)
          .Num("ndcg", point.eval.overall.ndcg);
      trace_->Instant("eval", "server", sim_clock_, kServerTrack,
                      args.Build());
    }
    if (!tel_->metrics_on()) return;
    std::string groups = "[";
    for (int g = 0; g < kNumGroups; ++g) {
      if (g) groups += ',';
      const EvalResult& e = point.eval.per_group[g];
      JsonObj go;
      go.Str("group", GroupName(static_cast<Group>(g)))
          .Num("recall", e.recall)
          .Num("ndcg", e.ndcg)
          .U64("users", e.users);
      groups += go.Build();
    }
    groups += ']';
    JsonObj row;
    row.Str("type", "eval")
        .I64("epoch", point.epoch)
        .Num("clock", point.simulated_seconds)
        .Num("recall", point.eval.overall.recall)
        .Num("ndcg", point.eval.overall.ndcg)
        .Num("loss", point.mean_train_loss)
        .Raw("groups", groups);
    tel_->WriteRow(row.Build());
  }

  /// End of run (normal or debug-kill): profile table, summary row, flush.
  /// Wall-clock profile numbers are nondeterministic, so they are confined
  /// to "profile" rows and stderr — never the round/summary rows the
  /// determinism tests byte-compare.
  void TelemetryFinish() {
    if (cfg_.profile) {
      const std::vector<Profiler::PhaseStat> stats = Profiler::Get().Collect();
      Profiler::Get().Enable(false);
      HFR_LOG(Info) << "phase profile (wall seconds):\n"
                    << Profiler::Render(stats);
      if (tel_ && tel_->metrics_on()) {
        for (const Profiler::PhaseStat& s : stats) {
          JsonObj row;
          row.Str("type", "profile")
              .Str("path", s.path)
              .U64("calls", s.calls)
              .Num("total_s", s.total_seconds)
              .Num("self_s", s.self_seconds);
          tel_->WriteRow(row.Build());
        }
      }
    }
    if (!tel_) return;
    if (tel_->metrics_on()) {
      JsonObj row;
      row.Str("type", "summary")
          .U64("rounds", metrics_.rounds)
          .U64("merges", metrics_.merges)
          .Num("clock", sim_clock_)
          .Num("recall", result_.final_eval.overall.recall)
          .Num("ndcg", result_.final_eval.overall.ndcg)
          .U64("total_scalars", result_.comm.TotalTransmitted())
          .U64("total_bytes", result_.comm.TotalBytes())
          .U64("dropped", result_.comm.TotalDropped())
          .Raw("metrics", metrics_.ToJson(result_.comm, sim_clock_));
      tel_->WriteRow(row.Build());
    }
    const Status flushed = tel_->Flush();
    if (!flushed.ok()) {
      HFR_LOG(Warning) << "telemetry flush failed: " << flushed.ToString();
    }
  }

  const ExperimentConfig& cfg_;
  const Dataset& dataset_;
  const GroupAssignment& groups_;
  MethodSetup setup_;
  Method method_;
  Timer timer_;  // wall clock, started at construction like the old loop
  Rng root_;
  Evaluator evaluator_;

  std::unique_ptr<ShardedServer> server_;
  std::vector<ClientState> clients_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<LocalTrainer>> trainers_;
  std::unique_ptr<ClientQueue> queue_;
  Rng sched_rng_{0};
  Rng kd_rng_{0};
  DistillationOptions kd_opts_;
  bool delta_sync_ = false;
  std::unique_ptr<SyncService> sync_;
  std::unique_ptr<SimulatedNetwork> net_;
  bool over_select_ = false;
  // Evaluation state of the active backend (fp64 or fp32_simd).
  std::variant<EvalState<double>, EvalState<float>> eval_;

  // Robustness layer (docs/ROBUSTNESS.md); all null on default configs.
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ClientGate> gate_;
  std::unique_ptr<AdmissionController> admission_;

  // Run-checkpoint / kill-hook state (docs/ROBUSTNESS.md).
  int start_epoch_ = 1;           // first epoch to run (resume skips ahead)
  bool resume_mid_epoch_ = false; // continue a checkpointed epoch's queue
  uint64_t rounds_done_ = 0;      // completed rounds (sync) / merges (async)
  uint64_t round_budget_ = 0;     // remaining sync-epoch round budget

  // Async schedule state.
  std::unique_ptr<AsyncAggregator> agg_;
  size_t async_inflight_ = 0;
  uint64_t dispatch_seq_ = 0;  // monotone across epochs; salts net draws

  // The clients Screen admitted to the open sync round or async dispatch,
  // and their updates (aligned by index).
  std::vector<Dispatched> batch_;
  std::vector<LocalUpdateResult> updates_;

  ExperimentResult result_;
  double loss_sum_ = 0.0;
  size_t loss_count_ = 0;
  double sim_clock_ = 0.0;

  // Telemetry (null / empty when every telemetry flag is off).
  std::unique_ptr<Telemetry> tel_;
  TraceRecorder* trace_ = nullptr;  // borrowed from tel_; null when off
  RunMetrics metrics_;
  std::vector<UserId> trace_round_merges_;  // merged users of the open round
  size_t async_merges_in_row_ = 0;  // merges since the last async batch row
  double async_row_clock_ = 0.0;    // clock at the last async batch close
  uint64_t rows_sub_seen_ = 0;      // row-subscription counters already
  uint64_t rows_ship_seen_ = 0;     // folded into the hit-rate gauge
};

}  // namespace

Evaluator MakeEvaluator(const ExperimentConfig& cfg, const Dataset& dataset,
                        const GroupAssignment& groups) {
  return Evaluator(dataset, groups, cfg.top_k, cfg.eval_user_sample,
                   cfg.seed ^ 0xe5a1ULL, cfg.eval_candidate_sample,
                   cfg.use_batched_topk);
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config, Dataset dataset,
                                   GroupAssignment groups,
                                   std::shared_ptr<const RunState> resume)
    : config_(std::move(config)),
      dataset_(std::move(dataset)),
      groups_(std::move(groups)),
      resume_(std::move(resume)) {}

StatusOr<std::unique_ptr<ExperimentRunner>> ExperimentRunner::Create(
    const ExperimentConfig& config) {
  HFR_RETURN_NOT_OK(config.Validate());
  std::shared_ptr<const RunState> resume;
  if (config.resume_run) {
    auto state = LoadRunState(config.checkpoint_path + ".run");
    if (!state.ok()) return state.status();
    // The configuration decides which robustness and delta-sync blocks a
    // run restores; a file carrying others is damaged or from another run.
    if (state->gate_state.empty() == HasClientGate(config) ||
        state->admission_history.empty() == config.admission_control ||
        state->replicas.empty() != config.full_downloads) {
      return Status::InvalidArgument(
          "run state: its gate, admission or replica block does not match "
          "the configuration");
    }
    resume = std::make_shared<const RunState>(std::move(state).value());
  }
  auto data_cfg = DatasetConfigByName(config.dataset, config.data_scale);
  if (!data_cfg.ok()) return data_cfg.status();
  std::vector<Interaction> interactions = GenerateInteractions(*data_cfg);
  SplitOptions split;
  split.seed = config.seed ^ 0x5eedULL;
  auto ds = Dataset::FromInteractions(interactions, data_cfg->num_users,
                                      data_cfg->num_items, split);
  if (!ds.ok()) return ds.status();
  auto groups = AssignGroups(*ds, config.group_fractions);
  if (!groups.ok()) return groups.status();
  return std::unique_ptr<ExperimentRunner>(
      new ExperimentRunner(config, std::move(ds).value(),
                           std::move(groups).value(), std::move(resume)));
}

ExperimentResult ExperimentRunner::Run(Method method) const {
  if (method == Method::kStandalone) return RunStandalone();
  return RunFederated(method);
}

ExperimentResult ExperimentRunner::RunFederated(Method method) const {
  FederatedRun run(config_, dataset_, groups_, method);
  return run.Run(resume_.get());
}

ExperimentResult ExperimentRunner::RunStandalone() const {
  const ExperimentConfig& cfg = config_;
  // Standalone has no rounds or network, so only the phase profiler
  // applies; the metrics/trace outputs are federated-run features.
  if (cfg.profile) {
    Profiler::Get().Reset();
    Profiler::Get().Enable(true);
  }
  Timer timer;
  Rng root(cfg.seed);
  Rng init_rng = root.Fork(4);
  const bool fp32 = cfg.compute_backend != ComputeBackend::kFp64;

  // Standalone users never interact, so evaluation (train + score per
  // user) parallelizes over users like the federated eval does; each
  // thread slot owns a LocalTrainer (scratch is not shareable).
  ThreadPool pool(EffectiveThreads(cfg) - 1);
  std::vector<std::unique_ptr<LocalTrainer>> locals;
  locals.reserve(pool.num_slots());
  for (size_t t = 0; t < pool.num_slots(); ++t) {
    locals.push_back(std::make_unique<LocalTrainer>(dataset_, cfg.base_model));
  }
  const Evaluator evaluator = MakeEvaluator(cfg, dataset_, groups_);

  // Train-and-score each evaluated user in isolation: no parameters are
  // ever exchanged, which is exactly the baseline's premise. Training
  // budget matches federated clients: global_epochs x local_epochs local
  // passes over the user's own data.
  auto train_user = [&](UserId u, size_t thread_slot, Matrix* table,
                        FeedForwardNet* theta, ClientState* client) {
    LocalTrainer& local = *locals[thread_slot];
    Group g = groups_.of(u);
    size_t width = cfg.dims[static_cast<int>(g)];
    *table = Matrix(dataset_.num_items(), width);
    Rng user_init = init_rng.Fork(u);
    InitNormal(table, cfg.embed_init_std, &user_init);
    *theta = FeedForwardNet(2 * width,
                            {cfg.ffn_hidden[0], cfg.ffn_hidden[1]});
    theta->InitXavier(&user_init);

    InitClient(client, u, g, width, cfg.embed_init_std, root);

    std::vector<LocalTaskSpec> tasks = {LocalTaskSpec{0, width}};
    LocalTrainerOptions lopt;
    lopt.local_epochs = cfg.global_epochs * cfg.local_epochs;
    lopt.lr = cfg.lr;
    lopt.apply_ddr = false;
    lopt.use_sparse = cfg.use_sparse_updates;
    lopt.use_batched = cfg.use_batched_scoring;
    lopt.sparse_comm_accounting = cfg.sparse_comm_accounting;
    lopt.backend = cfg.compute_backend;
    // Training runs inside the evaluator's `score` scope; its own scope
    // leaves `score`'s self time to the scoring.
    HFR_PROFILE("train");
    LocalUpdateResult update =
        local.Train(client, *table, {theta}, tasks, lopt);
    update.v_delta.AddScaledTo(table, 1.0);
    theta->AddScaled(update.theta_deltas[0], 1.0);
  };

  // Trains user u, then scores it through the backend's scalar: fp32
  // scores float casts of its table, Θ and user row (training itself
  // already ran in float via lopt.backend).
  auto with_user = [&](UserId u, size_t thread_slot, const auto& score) {
    Matrix table;
    FeedForwardNet theta;
    ClientState client;
    train_user(u, thread_slot, &table, &theta, &client);
    auto score_as = [&](auto scalar) {
      using S = decltype(scalar);
      MatrixT<S> table_cast;
      FeedForwardNetT<S> theta_cast;
      std::vector<S> user_cast;
      const MatrixT<S>& t = ScalarView(table, &table_cast);
      ScorerT<S> sc(cfg.base_model, table.cols());
      sc.BeginUser(ScalarRow(client.user_embedding, &user_cast), t,
                   dataset_.TrainItems(u));
      score(sc, t, ScalarView(theta, &theta_cast));
    };
    if (fp32) {
      score_as(float{});
    } else {
      score_as(double{});
    }
  };

  ExperimentResult result;
  result.final_eval =
      EvaluateUsers(evaluator, cfg.use_batched_scoring, &pool, with_user);
  result.train_seconds = timer.Seconds();
  if (cfg.profile) {
    const std::vector<Profiler::PhaseStat> stats = Profiler::Get().Collect();
    Profiler::Get().Enable(false);
    HFR_LOG(Info) << "phase profile (wall seconds):\n"
                  << Profiler::Render(stats);
  }
  return result;
}

}  // namespace hetefedrec
