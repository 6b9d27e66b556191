#include "src/core/config.h"

#include "src/util/cli.h"

namespace hetefedrec {

Status ApplyExperimentFlags(const CommandLine& cli,
                            ExperimentConfig* config) {
  config->seed = cli.GetUint64("seed");
  config->num_threads = static_cast<size_t>(cli.GetInt("threads"));
  config->use_sparse_updates = !cli.GetBool("dense_updates");
  config->use_batched_scoring = !cli.GetBool("scalar_scoring");
  config->use_batched_topk = !cli.GetBool("scalar_topk");
  config->eval_candidate_sample =
      static_cast<size_t>(cli.GetInt("eval_candidates"));
  config->sync_replica_cap = static_cast<size_t>(cli.GetInt("replica_cap"));
  config->sparse_comm_accounting = cli.GetBool("sparse_comm");
  config->full_downloads = !cli.GetBool("delta_downloads");
  config->availability = cli.GetDouble("availability");
  config->straggler_slack = static_cast<size_t>(cli.GetInt("straggler_slack"));
  config->round_deadline = cli.GetDouble("round_deadline");

  auto backend = ComputeBackendByName(cli.GetString("compute_backend"));
  if (!backend.ok()) return backend.status();
  config->compute_backend = *backend;
  const std::string wire_format = cli.GetString("wire_format");
  if (wire_format == "auto") {
    config->wire_scalar_bytes =
        config->compute_backend == ComputeBackend::kFp64 ? 8 : 4;
  } else {
    auto wire = WireScalarBytesByName(wire_format);
    if (!wire.ok()) return wire.status();
    config->wire_scalar_bytes = *wire;
  }
  config->server_shards = static_cast<size_t>(cli.GetInt("server_shards"));

  config->net_bandwidth = cli.GetDouble("net_bandwidth");
  config->net_bandwidth_sigma = cli.GetDouble("net_bandwidth_sigma");
  config->net_latency = cli.GetDouble("net_latency");
  config->net_latency_sigma = cli.GetDouble("net_latency_sigma");
  config->net_compute_per_sample = cli.GetDouble("net_compute");

  config->async_mode = cli.GetBool("async");
  config->async_staleness_alpha = cli.GetDouble("async_alpha");
  config->async_max_staleness =
      static_cast<size_t>(cli.GetInt("async_max_staleness"));
  config->async_dispatch_batch =
      static_cast<size_t>(cli.GetInt("async_dispatch_batch"));
  config->async_inflight = static_cast<size_t>(cli.GetInt("async_inflight"));
  config->async_distill_every =
      static_cast<size_t>(cli.GetInt("async_distill_every"));

  config->fault_upload_loss = cli.GetDouble("fault_upload_loss");
  config->fault_download_loss = cli.GetDouble("fault_download_loss");
  config->fault_crash = cli.GetDouble("fault_crash");
  config->fault_duplicate = cli.GetDouble("fault_duplicate");
  config->fault_corrupt = cli.GetDouble("fault_corrupt");
  config->fault_retry_max = static_cast<size_t>(cli.GetInt("fault_retry_max"));
  config->fault_retry_base = cli.GetDouble("fault_retry_base");
  config->fault_retry_cap = cli.GetDouble("fault_retry_cap");
  config->fault_quarantine_base = cli.GetDouble("fault_quarantine_base");
  config->fault_quarantine_cap = cli.GetDouble("fault_quarantine_cap");
  config->fault_jitter = cli.GetDouble("fault_jitter");
  config->admission_control = cli.GetBool("admission");
  config->admit_max_row_norm = cli.GetDouble("admit_max_row_norm");
  config->admit_outlier_z = cli.GetDouble("admit_outlier_z");

  config->checkpoint_every =
      static_cast<size_t>(cli.GetInt("checkpoint_every"));
  config->resume_run = cli.GetBool("resume");
  config->debug_stop_after_rounds =
      static_cast<size_t>(cli.GetUint64("stop_after_rounds"));
  config->metrics_out = cli.GetString("metrics_out");
  config->trace_out = cli.GetString("trace_out");
  config->profile = cli.GetBool("profile");

  const std::string agg = cli.GetString("agg");
  if (agg == "mean") {
    config->aggregation = AggregationMode::kMean;
  } else if (agg == "sum") {
    config->aggregation = AggregationMode::kSum;
  } else if (agg == "weighted") {
    config->aggregation = AggregationMode::kDataWeighted;
  } else {
    return Status::InvalidArgument("unknown --agg '" + agg + "'");
  }
  return Status::OK();
}

std::string MethodName(Method m) {
  switch (m) {
    case Method::kAllSmall:
      return "All Small";
    case Method::kAllLarge:
      return "All Large";
    case Method::kAllLargeExclusive:
      return "All Large/Exclusive";
    case Method::kStandalone:
      return "Standalone";
    case Method::kClusteredFedRec:
      return "Clustered FedRec";
    case Method::kDirectlyAggregate:
      return "Directly Aggregate";
    case Method::kHeteFedRec:
      return "HeteFedRec(Ours)";
  }
  return "?";
}

StatusOr<Method> MethodByName(const std::string& name) {
  if (name == "all_small") return Method::kAllSmall;
  if (name == "all_large") return Method::kAllLarge;
  if (name == "all_large_exclusive") return Method::kAllLargeExclusive;
  if (name == "standalone") return Method::kStandalone;
  if (name == "clustered") return Method::kClusteredFedRec;
  if (name == "direct") return Method::kDirectlyAggregate;
  if (name == "hetefedrec") return Method::kHeteFedRec;
  return Status::InvalidArgument(
      "unknown method '" + name +
      "' (expected all_small|all_large|all_large_exclusive|standalone|"
      "clustered|direct|hetefedrec)");
}

StatusOr<size_t> WireScalarBytesByName(const std::string& name) {
  if (name == "fp64") return size_t{8};
  if (name == "fp32") return size_t{4};
  if (name == "fp16") return size_t{2};
  return Status::InvalidArgument("unknown wire format '" + name +
                                 "' (expected fp64|fp32|fp16)");
}

bool IsHeterogeneous(Method m) {
  switch (m) {
    case Method::kStandalone:
    case Method::kClusteredFedRec:
    case Method::kDirectlyAggregate:
    case Method::kHeteFedRec:
      return true;
    default:
      return false;
  }
}

Status ExperimentConfig::Validate() const {
  // Strict: every multi-width method needs three distinct slot widths.
  if (dims[0] == 0 || dims[0] >= dims[1] || dims[1] >= dims[2]) {
    return Status::InvalidArgument(
        "dims (--dims) must satisfy 0 < Ns < Nm < Nl");
  }
  if (data_scale <= 0.0 || data_scale > 1.0) {
    return Status::InvalidArgument("data_scale must be in (0, 1]");
  }
  if (global_epochs <= 0 || local_epochs <= 0) {
    return Status::InvalidArgument("epoch counts must be positive");
  }
  if (clients_per_round == 0) {
    return Status::InvalidArgument("clients_per_round must be positive");
  }
  if (lr <= 0.0) return Status::InvalidArgument("lr must be positive");
  if (alpha < 0.0) return Status::InvalidArgument("alpha must be >= 0");
  if (kd_items == 0 && ensemble_distillation) {
    return Status::InvalidArgument("kd_items must be positive with RESKD on");
  }
  if (kd_steps < 0 || kd_lr < 0.0) {
    return Status::InvalidArgument("kd_steps/kd_lr must be non-negative");
  }
  if (top_k == 0) return Status::InvalidArgument("top_k must be positive");
  if (eval_candidate_sample > 0 && eval_candidate_sample < top_k) {
    // A candidate pool smaller than the list length would silently report
    // metrics over truncated rankings, incomparable with full evaluation.
    return Status::InvalidArgument(
        "eval_candidate_sample must be 0 (full catalogue) or >= top_k");
  }
  if (local_validation_fraction < 0.0 || local_validation_fraction >= 1.0) {
    return Status::InvalidArgument(
        "local_validation_fraction must be in [0, 1)");
  }
  double frac_total =
      group_fractions[0] + group_fractions[1] + group_fractions[2];
  if (frac_total <= 0.0) {
    return Status::InvalidArgument("group fractions must sum to > 0");
  }
  if (availability <= 0.0 || availability > 1.0) {
    return Status::InvalidArgument("availability must be in (0, 1]");
  }
  // Catches negative CLI ints cast through size_t (2^64-ish values).
  if (num_threads > 4096) {
    return Status::InvalidArgument("num_threads is implausibly large");
  }
  if (server_shards > 4096) {
    return Status::InvalidArgument(
        "server_shards is implausibly large (negative CLI value?)");
  }
  if (eval_candidate_sample > (size_t{1} << 32)) {
    return Status::InvalidArgument(
        "eval_candidate_sample is implausibly large (negative CLI value?)");
  }
  if (sync_replica_cap > (size_t{1} << 32)) {
    return Status::InvalidArgument(
        "sync_replica_cap is implausibly large (negative CLI value?)");
  }
  if (straggler_slack > 16 * clients_per_round) {
    return Status::InvalidArgument(
        "straggler_slack must be <= 16 x clients_per_round");
  }
  if (round_deadline < 0.0) {
    return Status::InvalidArgument("round_deadline must be >= 0");
  }
  if (net_bandwidth <= 0.0) {
    return Status::InvalidArgument("net_bandwidth must be positive");
  }
  if (net_bandwidth_sigma < 0.0 || net_latency < 0.0 ||
      net_latency_sigma < 0.0 || net_compute_per_sample < 0.0) {
    return Status::InvalidArgument("network parameters must be >= 0");
  }
  if (wire_scalar_bytes != 2 && wire_scalar_bytes != 4 &&
      wire_scalar_bytes != 8) {
    return Status::InvalidArgument(
        "wire_scalar_bytes must be 2 (fp16), 4 (fp32) or 8 (fp64)");
  }
  if (async_staleness_alpha < 0.0) {
    return Status::InvalidArgument("async_staleness_alpha must be >= 0");
  }
  if (async_dispatch_batch == 0) {
    return Status::InvalidArgument("async_dispatch_batch must be >= 1");
  }
  if (async_mode && aggregation == AggregationMode::kDataWeighted) {
    // Async merges apply one update at a time with its staleness weight;
    // there is no round population to normalize data-size weights against.
    return Status::InvalidArgument(
        "async_mode does not support data-weighted aggregation");
  }
  // Catch negative CLI ints cast through size_t (2^64-ish values).
  if (async_inflight > (size_t{1} << 32) ||
      async_distill_every > (size_t{1} << 32) ||
      async_max_staleness > (size_t{1} << 32) ||
      async_dispatch_batch > (size_t{1} << 32)) {
    return Status::InvalidArgument(
        "async_* knob is implausibly large (negative CLI value?)");
  }
  const std::array<double, 5> fault_rates = {
      fault_upload_loss, fault_download_loss, fault_crash, fault_duplicate,
      fault_corrupt};
  double fault_total = 0.0;
  for (double rate : fault_rates) {
    if (rate < 0.0 || rate > 1.0) {
      return Status::InvalidArgument("fault_* rates must be in [0, 1]");
    }
    fault_total += rate;
  }
  if (fault_total > 1.0) {
    // The rates partition a single uniform draw; a sum above 1 would
    // silently truncate the last segments.
    return Status::InvalidArgument("fault_* rates must sum to <= 1");
  }
  if (fault_retry_max < 1) {
    return Status::InvalidArgument("fault_retry_max must be >= 1");
  }
  if (fault_retry_max > (size_t{1} << 32)) {
    return Status::InvalidArgument(
        "fault_retry_max is implausibly large (negative CLI value?)");
  }
  if (fault_retry_base <= 0.0 || fault_quarantine_base <= 0.0) {
    return Status::InvalidArgument(
        "fault retry/quarantine base delays must be positive");
  }
  if (fault_retry_cap < fault_retry_base ||
      fault_quarantine_cap < fault_quarantine_base) {
    return Status::InvalidArgument(
        "fault retry/quarantine caps must be >= their base delays");
  }
  if (fault_jitter < 0.0 || fault_jitter > 1.0) {
    return Status::InvalidArgument("fault_jitter must be in [0, 1]");
  }
  if (!admission_control && (admit_max_row_norm > 0.0 || admit_outlier_z > 0.0)) {
    return Status::InvalidArgument(
        "admit_* thresholds require admission_control");
  }
  if (admit_max_row_norm < 0.0 || admit_outlier_z < 0.0) {
    return Status::InvalidArgument("admit_* thresholds must be >= 0");
  }
  if (checkpoint_every > (size_t{1} << 32)) {
    return Status::InvalidArgument(
        "checkpoint_every is implausibly large (negative CLI value?)");
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every requires checkpoint_path");
  }
  if (resume_run && checkpoint_path.empty()) {
    return Status::InvalidArgument("resume_run requires checkpoint_path");
  }
  if (resume_run && sync_verify_replicas) {
    // The verify cache (replica row bytes) is not serialized, so a resumed
    // audit run would immediately CHECK-fail on the first skipped row.
    return Status::InvalidArgument(
        "resume_run is incompatible with sync_verify_replicas");
  }
  if (debug_stop_after_rounds > (size_t{1} << 32)) {
    return Status::InvalidArgument(
        "debug_stop_after_rounds is implausibly large (negative CLI value?)");
  }
  return Status::OK();
}

}  // namespace hetefedrec
