// The named workloads of bench_e2e, one entry per workload.
//
// Each workload spells out every ExperimentConfig field, so the benchmark
// never moves when a library default or a bench `--scale` preset changes;
// only an edit here does. The four workloads share the bench shape (4
// global epochs, 64 clients per round, 256 DDR sample rows, 300 evaluated
// users, 1 thread) and differ where each one stresses a different layer:
// see README.md for the measured phase shares.
//
// One Run takes about 2 s, so a measured run of 25 s takes a median over
// about ten Runs. One thread keeps the timing steady on a shared host: at
// two threads each sync round waits for the slower worker, and the Run time
// moved by 25 % within a minute where one thread moved by 5 %. Traced
// mode still checks the result against a two-thread run.
#ifndef HETEFEDREC_BENCH_E2E_WORKLOADS_H_
#define HETEFEDREC_BENCH_E2E_WORKLOADS_H_

#include <string>
#include <vector>

#include "src/core/config.h"

namespace hetefedrec::bench::e2e {

/// One closed-loop workload: a method run to completion on one config.
struct Workload {
  std::string name;
  Method method = Method::kHeteFedRec;
  ExperimentConfig config;
};

/// The shared bench shape with every field set. Workloads override fields.
inline ExperimentConfig BenchShape() {
  ExperimentConfig c;
  // data
  c.dataset = "ml";
  c.data_scale = 0.06;
  // model
  c.base_model = BaseModel::kNcf;
  c.dims = {8, 16, 32};
  c.ffn_hidden = {8, 8};
  c.embed_init_std = 0.1;
  // grouping
  c.group_fractions = {5.0, 3.0, 2.0};
  // federated training
  c.global_epochs = 4;
  c.local_epochs = 2;
  c.clients_per_round = 64;
  c.lr = 0.001;
  c.aggregation = AggregationMode::kMean;
  c.local_validation_fraction = 0.0;
  // HeteFedRec components
  c.unified_dual_task = true;
  c.decorrelation = true;
  c.ensemble_distillation = true;
  c.alpha = 1.0;
  c.ddr_sample_rows = 256;
  c.kd_items = 32;
  c.kd_steps = 2;
  c.kd_lr = 0.001;
  // execution
  c.use_sparse_updates = true;
  c.sparse_comm_accounting = false;
  c.use_batched_scoring = true;
  c.use_batched_topk = true;
  c.num_threads = 1;
  c.compute_backend = ComputeBackend::kFp64;
  c.server_shards = 0;
  // delta sync and simulated network
  c.full_downloads = true;
  c.sync_verify_replicas = false;
  c.sync_replica_cap = 0;
  c.availability = 1.0;
  c.straggler_slack = 0;
  c.round_deadline = 0.0;
  c.net_bandwidth = 1.25e6;
  c.net_bandwidth_sigma = 0.0;
  c.net_latency = 0.05;
  c.net_latency_sigma = 0.0;
  c.net_compute_per_sample = 0.0;
  c.wire_scalar_bytes = 8;
  // asynchronous aggregation
  c.async_mode = false;
  c.async_staleness_alpha = 0.5;
  c.async_max_staleness = 0;
  c.async_distill_every = 0;
  c.async_inflight = 0;
  c.async_dispatch_batch = 1;
  // evaluation
  c.top_k = 20;
  c.eval_every = 0;
  c.eval_user_sample = 300;
  c.eval_candidate_sample = 0;
  // faults, admission and checkpoints: all off, so no operation fails
  c.fault_upload_loss = 0.0;
  c.fault_download_loss = 0.0;
  c.fault_crash = 0.0;
  c.fault_duplicate = 0.0;
  c.fault_corrupt = 0.0;
  c.fault_retry_max = 5;
  c.fault_retry_base = 1.0;
  c.fault_retry_cap = 60.0;
  c.fault_quarantine_base = 5.0;
  c.fault_quarantine_cap = 300.0;
  c.fault_jitter = 0.5;
  c.admission_control = false;
  c.admit_max_row_norm = 0.0;
  c.admit_outlier_z = 0.0;
  c.checkpoint_every = 0;
  c.resume_run = false;
  c.debug_stop_after_rounds = 0;
  // telemetry: the bench drives the profiler itself; round_comm gives the
  // round count behind rounds_per_s
  c.metrics_out = "";
  c.trace_out = "";
  c.profile = false;
  c.track_round_comm = true;
  c.seed = 7;
  c.checkpoint_path = "";
  return c;
}

// The paper's headline cell: client kernels (forward, backward, adam)
// dominate, DDR is second, server/eval/sync are small.
inline Workload HfrMlNcf() {
  Workload w;
  w.name = "hfr-ml-ncf";
  w.method = Method::kHeteFedRec;
  w.config = BenchShape();
  return w;
}

// The same code path at the paper's Douban widths, where DDR's
// O(sample * N^2) is the largest single phase.
inline Workload HfrDoubanWide() {
  Workload w;
  w.name = "hfr-douban-wide";
  w.method = Method::kHeteFedRec;
  w.config = BenchShape();
  w.config.dataset = "douban";
  w.config.dims = {32, 64, 128};
  return w;
}

// The Fig. 7 convergence protocol: evaluating every user each epoch
// dominates; bypasses DDR and RESKD; the only large set-up.
inline Workload AllSmallAnimeCurve() {
  Workload w;
  w.name = "allsmall-anime-curve";
  w.method = Method::kAllSmall;
  w.config = BenchShape();
  w.config.dataset = "anime";
  w.config.data_scale = 0.25;
  w.config.base_model = BaseModel::kLightGcn;
  w.config.global_epochs = 2;
  w.config.eval_every = 1;
  w.config.eval_user_sample = 0;
  return w;
}

// Merge-on-arrival server (one apply per arrival) beside delta-sync reads;
// the only async and the only fp32_simd workload.
inline Workload HfrAnimeAsyncDelta() {
  Workload w;
  w.name = "hfr-anime-async-delta";
  w.method = Method::kHeteFedRec;
  w.config = BenchShape();
  w.config.dataset = "anime";
  w.config.base_model = BaseModel::kLightGcn;
  w.config.async_mode = true;
  w.config.full_downloads = false;
  w.config.availability = 0.8;
  w.config.net_bandwidth_sigma = 1.0;
  w.config.compute_backend = ComputeBackend::kFp32Simd;
  w.config.wire_scalar_bytes = 4;
  w.config.eval_every = 2;
  return w;
}

/// Every workload, in the order BENCHMARK.json lists them.
inline std::vector<Workload> AllWorkloads() {
  return {HfrMlNcf(), HfrDoubanWide(), AllSmallAnimeCurve(),
          HfrAnimeAsyncDelta()};
}

}  // namespace hetefedrec::bench::e2e

#endif  // HETEFEDREC_BENCH_E2E_WORKLOADS_H_
