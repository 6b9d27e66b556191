#include "bench/e2e/measure.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "src/core/decorrelation.h"
#include "src/core/trainer.h"
#include "src/math/backend.h"
#include "src/math/init.h"
#include "src/math/sparse.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/rss.h"
#include "src/util/telemetry/json.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/timer.h"

#ifndef HFR_E2E_BUILD_TYPE
#define HFR_E2E_BUILD_TYPE "unknown"
#endif
#ifndef HFR_E2E_CXX_FLAGS
#define HFR_E2E_CXX_FLAGS "unknown"
#endif

namespace hetefedrec::bench::e2e {
namespace {

// Measured mode: each repeat sets up a fresh runner and runs it once, and
// the medians are reported. Set-up takes 5-30 ms on three workloads and
// about 0.25 s on the fourth, so before each Run it repeats until this
// budget (or count) is spent; spreading the samples over the whole
// measurement keeps a sub-second burst of machine noise from moving the
// median. The first repeat warms caches and the allocator and is not timed.
constexpr size_t kMinRuns = 3;
constexpr double kSetupBatchSeconds = 0.2;
constexpr size_t kMaxSetupBatch = 20;
// The thread count the traced run checks the one-thread result against.
constexpr size_t kContractThreads = 2;
// Profile totals must match the Timer readings, and the layers must cover
// the traced run, within this share.
constexpr double kProfileTolerance = 0.02;
// The isolated DDR arm: calls per width, and its time budget per width.
constexpr size_t kDdrMinCalls = 20;
constexpr size_t kDdrMaxCalls = 400;
constexpr double kDdrSeconds = 0.25;
constexpr double kMiB = 1024.0 * 1024.0;

// Profile scope names the layers own (src/ opens them; the bench opens
// "setup" and "run").
const char* const kLayerScopes[] = {"train", "forward", "backward", "adam",
                                    "merge", "apply",   "distill",  "sync",
                                    "eval",  "score",   "topk"};

double Median(std::vector<double> v) {
  HFR_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonNumber(&out, v[i]);
  }
  return out + "]";
}

/// The outputs of one run that the repo's contracts pin: equal across
/// repeats, thread counts and tracing.
struct Outcome {
  double ndcg = 0.0;
  double recall = 0.0;
  double collapse_cv = 0.0;
  double sim_s = 0.0;
  size_t wire_bytes = 0;
  size_t rounds = 0;
  size_t downloads = 0;
  size_t merged = 0;

  bool operator==(const Outcome& o) const {
    return ndcg == o.ndcg && recall == o.recall &&
           collapse_cv == o.collapse_cv && sim_s == o.sim_s &&
           wire_bytes == o.wire_bytes && rounds == o.rounds &&
           downloads == o.downloads && merged == o.merged;
  }

  std::string ToJson() const {
    JsonObj o;
    o.Num("ndcg", ndcg)
        .Num("recall", recall)
        .Num("collapse_cv", collapse_cv)
        .Num("sim_s", sim_s)
        .U64("wire_bytes", wire_bytes)
        .U64("rounds", rounds)
        .U64("downloads", downloads)
        .U64("merged", merged);
    return o.Build();
  }
};

Outcome OutcomeOf(const ExperimentResult& r) {
  Outcome o;
  o.ndcg = r.final_eval.overall.ndcg;
  o.recall = r.final_eval.overall.recall;
  o.collapse_cv = r.collapse_cv;
  o.sim_s = r.simulated_seconds;
  o.wire_bytes = r.comm.TotalBytes();
  o.rounds = r.round_comm.size();
  for (int g = 0; g < kNumGroups; ++g) {
    o.downloads += r.comm.Downloads(static_cast<Group>(g));
    o.merged += r.comm.Participations(static_cast<Group>(g));
  }
  return o;
}

std::unique_ptr<ExperimentRunner> CreateRunner(const ExperimentConfig& cfg) {
  StatusOr<std::unique_ptr<ExperimentRunner>> created =
      ExperimentRunner::Create(cfg);
  HFR_CHECK(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

std::string ReferenceSetup(const ExperimentConfig& cfg) {
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
#ifdef HFR_HAVE_AVX2_TU
  constexpr bool kAvx2Tu = true;
#else
  constexpr bool kAvx2Tu = false;
#endif
#ifdef __VERSION__
  const char* compiler = __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  JsonObj o;
  o.Str("build_type", HFR_E2E_BUILD_TYPE)
      .Str("cxx_flags", HFR_E2E_CXX_FLAGS)
      .Bool("optimized", kOptimized)
      .Bool("ndebug", kNdebug)
      .Str("compiler", compiler)
      .Str("compute_backend", ComputeBackendName(cfg.compute_backend))
      .Bool("avx2_tu", kAvx2Tu)
      .Bool("cpu_fp32_simd", CpuSupportsFp32Simd())
      // Without it an fp32_simd workload silently runs the scalar fp32
      // kernels, about 2x slower than fp64.
      .Bool("fp32_simd_active",
            cfg.compute_backend == ComputeBackend::kFp32Simd &&
                CpuSupportsFp32Simd())
      .U64("threads", cfg.num_threads)
      .U64("hardware_concurrency", std::thread::hardware_concurrency())
      .U64("seed", cfg.seed);
  return o.Build();
}

class Checks {
 public:
  explicit Checks(std::vector<std::string>* failures) : failures_(failures) {}

  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_->push_back(what);
  }

  /// |measured - reference| <= kProfileTolerance * reference.
  void ExpectClose(double measured, double reference, const std::string& what) {
    Expect(std::fabs(measured - reference) <= kProfileTolerance * reference,
           what + ": " + std::to_string(measured) + " vs " +
               std::to_string(reference));
  }

  void ExpectSame(const Outcome& a, const Outcome& b, const std::string& what) {
    Expect(a == b, what + ": " + a.ToJson() + " vs " + b.ToJson());
  }

 private:
  std::vector<std::string>* failures_;
};

void MeasureEndToEnd(const Workload& w, const ExperimentConfig& cfg,
                     double seconds, Measurement* m, JsonObj* report) {
  Checks checks(&m->check_failures);
  std::vector<double> setup_s;
  std::vector<double> run_s;
  Outcome first;
  {
    std::unique_ptr<ExperimentRunner> warm_up = CreateRunner(cfg);
    first = OutcomeOf(warm_up->Run(w.method));
    m->attempted += first.downloads;
    m->failed += first.downloads - first.merged;
  }
  // Stop before a repeat that would end past `seconds` of wall time.
  const Timer elapsed;
  double longest_repeat_s = 0.0;
  while (run_s.size() < kMinRuns ||
         elapsed.Seconds() + longest_repeat_s <= seconds) {
    const Timer repeat;
    // Only one runner is alive at a time, so peak RSS is a single run's.
    std::unique_ptr<ExperimentRunner> runner;
    double batch_s = 0.0;
    for (size_t n = 0; n < kMaxSetupBatch && batch_s < kSetupBatchSeconds;
         ++n) {
      runner.reset();
      Timer timer;
      runner = CreateRunner(cfg);
      setup_s.push_back(timer.Seconds());
      batch_s += setup_s.back();
    }
    Timer timer;
    const ExperimentResult result = runner->Run(w.method);
    run_s.push_back(timer.Seconds());
    const Outcome o = OutcomeOf(result);
    checks.ExpectSame(o, first, "repeat " + std::to_string(run_s.size()) +
                                    " differs from the warm-up run");
    m->attempted += o.downloads;
    m->failed += o.downloads - o.merged;
    longest_repeat_s = std::max(longest_repeat_s, repeat.Seconds());
  }
  const double peak_rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  checks.Expect(first.rounds > 0, "no rounds recorded");
  checks.Expect(peak_rss_mb > 0.0, "peak RSS probe unavailable");

  const double run = Median(run_s);
  m->metrics = {
      {"setup_s", "s", Median(setup_s)},
      {"run_s", "s", run},
      {"rounds_per_s", "1/s", static_cast<double>(first.rounds) / run},
      {"client_updates_per_s", "1/s", static_cast<double>(first.merged) / run},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"ndcg_at_20", "ratio", first.ndcg},
      {"recall_at_20", "ratio", first.recall},
      {"collapse_cv", "ratio", first.collapse_cv},
      {"wire_mb", "MiB", static_cast<double>(first.wire_bytes) / kMiB},
      {"sim_s", "s", first.sim_s},
  };
  report->Raw("setup_s_samples", JsonArray(setup_s))
      .Raw("run_s_samples", JsonArray(run_s))
      .Raw("outcome", first.ToJson());
}

/// Median wall time of one DecorrelationLossAndGrad call, on the overlay and
/// gradient store the client trainer uses for the workload's backend, over
/// a fresh `rows x width` table with `sample_rows` sampled rows.
template <typename TableT, typename GradT>
double DdrCallMicros(const Matrix& base, const ExperimentConfig& cfg,
                     Rng* rng) {
  TableT table;
  GradT grad;
  std::vector<double> us;
  double spent = 0.0;
  while (us.size() < kDdrMinCalls ||
         (spent < kDdrSeconds && us.size() < kDdrMaxCalls)) {
    table.Reset(&base);
    grad.Reset(base.rows(), base.cols());
    Timer timer;
    DecorrelationLossAndGrad(table, cfg.alpha, cfg.ddr_sample_rows, rng,
                             &grad);
    const double s = timer.Seconds();
    us.push_back(s * 1e6);
    spent += s;
  }
  return Median(us);
}

double DdrCallMicros(const ExperimentConfig& cfg, size_t rows, size_t width) {
  Rng rng(cfg.seed ^ 0xdd5ULL);
  Matrix base(rows, width);
  InitNormal(&base, cfg.embed_init_std, &rng);
  if (cfg.compute_backend == ComputeBackend::kFp64) {
    return DdrCallMicros<RowOverlayTable, SparseRowStore>(base, cfg, &rng);
  }
  return DdrCallMicros<RowOverlayTableF, SparseRowStoreF>(base, cfg, &rng);
}

struct PhaseSum {
  uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

void MeasureTraced(const Workload& w, const ExperimentConfig& cfg,
                   Measurement* m, JsonObj* report) {
  Checks checks(&m->check_failures);
  ExperimentConfig one_thread = cfg;
  one_thread.num_threads = 1;
  ExperimentConfig contract_threads = cfg;
  contract_threads.num_threads = kContractThreads;

  // Untraced references: more than one thread, then one thread.
  Outcome at_contract_threads;
  {
    std::unique_ptr<ExperimentRunner> runner = CreateRunner(contract_threads);
    at_contract_threads = OutcomeOf(runner->Run(w.method));
  }
  Outcome untraced;
  double untraced_s = 0.0;
  {
    std::unique_ptr<ExperimentRunner> runner = CreateRunner(one_thread);
    Timer timer;
    const ExperimentResult result = runner->Run(w.method);
    untraced_s = timer.Seconds();
    untraced = OutcomeOf(result);
  }

  // Traced: the bench's own scopes around the two public calls; every
  // scope inside src/ nests under them because all work runs on this
  // thread.
  Profiler& profiler = Profiler::Get();
  profiler.Reset();
  profiler.Enable(true);
  std::unique_ptr<ExperimentRunner> runner;
  ExperimentResult traced;
  double setup_timer_s = 0.0;
  double run_timer_s = 0.0;
  {
    HFR_PROFILE("setup");
    Timer timer;
    runner = CreateRunner(one_thread);
    setup_timer_s = timer.Seconds();
  }
  {
    HFR_PROFILE("run");
    Timer timer;
    traced = runner->Run(w.method);
    run_timer_s = timer.Seconds();
  }
  profiler.Enable(false);
  const std::vector<Profiler::PhaseStat> stats = profiler.Collect();

  const Outcome traced_outcome = OutcomeOf(traced);
  checks.ExpectSame(untraced, at_contract_threads,
                    "1 thread differs from " +
                        std::to_string(kContractThreads) + " threads");
  checks.ExpectSame(traced_outcome, untraced, "traced differs from untraced");
  m->attempted = at_contract_threads.downloads + untraced.downloads +
                 traced_outcome.downloads;
  m->failed = m->attempted - at_contract_threads.merged - untraced.merged -
              traced_outcome.merged;

  std::map<std::string, PhaseSum> by_name;
  std::string profile = "[";
  for (const Profiler::PhaseStat& s : stats) {
    const std::string name = s.path.substr(s.path.rfind('/') + 1);
    if (s.depth == 0) {
      checks.Expect(name == "setup" || name == "run",
                    "profile scope '" + s.path + "' outside setup/run");
    }
    PhaseSum& sum = by_name[name];
    sum.calls += s.calls;
    sum.total_s += s.total_seconds;
    sum.self_s += s.self_seconds;
    JsonObj row;
    row.Str("path", s.path)
        .U64("calls", s.calls)
        .Num("total_s", s.total_seconds)
        .Num("self_s", s.self_seconds);
    if (profile.size() > 1) profile += ',';
    profile += row.Build();
  }
  profile += ']';

  const PhaseSum& run = by_name["run"];
  double attributed_s = run.self_s;
  for (const char* scope : kLayerScopes) attributed_s += by_name[scope].self_s;
  checks.ExpectClose(by_name["setup"].total_s, setup_timer_s,
                     "profiled setup vs Timer");
  checks.ExpectClose(run.total_s, run_timer_s, "profiled run vs Timer");
  checks.ExpectClose(attributed_s, run_timer_s,
                     "layer self-times + unattributed vs traced wall time");

  // Isolated DDR arm. Eq. 14: HeteFedRec applies DDR on the medium and
  // large clients, at their own widths, once per local epoch.
  const ExperimentConfig& c = one_thread;
  const size_t items = runner->dataset().num_items();
  const double call_us_medium = DdrCallMicros(c, items, c.dims[1]);
  const double call_us_large = DdrCallMicros(c, items, c.dims[2]);
  const bool ddr_on = w.method == Method::kHeteFedRec && c.decorrelation;
  double ddr_calls = 0.0;
  double ddr_est_s = 0.0;
  if (ddr_on) {
    const double epochs = static_cast<double>(c.local_epochs);
    const double medium = epochs * static_cast<double>(
                                       traced.comm.Downloads(Group::kMedium));
    const double large = epochs * static_cast<double>(
                                      traced.comm.Downloads(Group::kLarge));
    ddr_calls = medium + large;
    ddr_est_s = (medium * call_us_medium + large * call_us_large) * 1e-6;
  }

  size_t down_scalars = 0;
  size_t up_scalars = 0;
  for (int g = 0; g < kNumGroups; ++g) {
    down_scalars += traced.comm.DownParams(static_cast<Group>(g));
    up_scalars += traced.comm.UpParams(static_cast<Group>(g));
  }

  const PhaseSum& train = by_name["train"];
  const PhaseSum& eval = by_name["eval"];
  const PhaseSum& score = by_name["score"];
  const PhaseSum& apply = by_name["apply"];
  const PhaseSum& distill = by_name["distill"];
  auto per = [](double seconds, uint64_t calls) {
    return calls > 0 ? seconds * 1e6 / static_cast<double>(calls) : 0.0;
  };
  m->metrics = {
      {"client.forward_s", "s", by_name["forward"].total_s},
      {"client.backward_s", "s", by_name["backward"].total_s},
      {"client.adam_s", "s", by_name["adam"].total_s},
      {"client.calls", "count", static_cast<double>(train.calls)},
      {"client.us_per_update", "us", per(train.total_s, train.calls)},
      {"client.train.self_s", "s", train.self_s},
      {"ddr.call_us.medium", "us", call_us_medium},
      {"ddr.call_us.large", "us", call_us_large},
      {"ddr.calls", "count", ddr_calls},
      {"ddr.est_s", "s", ddr_est_s},
      {"client.train.other_s", "s", train.self_s - ddr_est_s},
      {"eval_s", "s", eval.total_s},
      {"eval.score_s", "s", score.total_s},
      {"eval.topk_s", "s", by_name["topk"].total_s},
      {"eval.users", "count", static_cast<double>(score.calls)},
      {"eval.us_per_user", "us", per(eval.total_s, score.calls)},
      {"server.merge_s", "s", by_name["merge"].self_s},
      {"server.apply_s", "s", apply.total_s},
      {"server.apply.calls", "count", static_cast<double>(apply.calls)},
      {"server.distill_s", "s", distill.total_s},
      {"server.distill.calls", "count", static_cast<double>(distill.calls)},
      {"server.us_per_apply", "us", per(apply.total_s, apply.calls)},
      {"sync.plan_s", "s", by_name["sync"].total_s},
      {"comm.down_scalars", "count", static_cast<double>(down_scalars)},
      {"comm.up_scalars", "count", static_cast<double>(up_scalars)},
      {"data.setup_s", "s", by_name["setup"].total_s},
      {"loop.unattributed_s", "s", run.self_s},
      {"trace.overhead_pct", "%",
       100.0 * (run_timer_s - untraced_s) / untraced_s},
  };
  report->Num("untraced_run_s", untraced_s)
      .Num("traced_run_s", run_timer_s)
      .Num("traced_setup_s", setup_timer_s)
      .Num("attributed_s", attributed_s)
      .Raw("outcome", traced_outcome.ToJson())
      .Raw("profile", profile);
}

}  // namespace

Measurement Measure(const Workload& workload, const MeasureOptions& options) {
  ExperimentConfig cfg = workload.config;
  cfg.seed = options.seed;
  Measurement m;
  JsonObj report;
  report.Str("workload", workload.name)
      .Str("mode", options.trace ? "traced" : "measured")
      .Raw("reference_setup", ReferenceSetup(cfg));
  if (options.trace) {
    MeasureTraced(workload, cfg, &m, &report);
  } else {
    MeasureEndToEnd(workload, cfg, options.seconds, &m, &report);
  }

  Checks checks(&m.check_failures);
  for (const Metric& metric : m.metrics) {
    checks.Expect(std::isfinite(metric.value), metric.name + " is not finite");
  }
  checks.Expect(m.attempted > 0, "no client update was attempted");
  // A run whose checks fail counts every attempted update as failed.
  if (!m.correct()) m.failed = m.attempted;

  JsonObj metrics;
  for (const Metric& metric : m.metrics) {
    metrics.Num(metric.name.c_str(), metric.value);
  }
  std::string failures = "[";
  for (const std::string& f : m.check_failures) {
    if (failures.size() > 1) failures += ',';
    AppendJsonString(&failures, f);
  }
  failures += ']';
  report.Raw("metrics", metrics.Build())
      .U64("updates_attempted", m.attempted)
      .U64("updates_failed", m.failed)
      .Raw("check_failures", failures);
  m.report = report.Build();
  return m;
}

}  // namespace hetefedrec::bench::e2e
