#include "src/core/run_state.h"

#include <cstring>
#include <sstream>

#include "src/core/checkpoint.h"

namespace hetefedrec {

namespace {

// RunStateLayout's writer: appends each value as one word and keeps the
// first failed check.
class BodyWriter {
 public:
  template <class T>
  void Field(const T& x) {
    words.push_back(static_cast<uint64_t>(x));
  }
  void Field(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    words.push_back(bits);
  }
  template <class V>
  uint64_t Size(const V& v) {
    words.push_back(v.size());
    return v.size();
  }
  void Row(const Matrix& m) {
    Size(m.data());
    for (double x : m.data()) Field(x);
  }
  void Check(bool ok, const char* what) {
    if (!ok && error.empty()) error = what;
  }

  std::vector<uint64_t> words;
  std::string error;
};

// RunStateLayout's reader. After the first failure every read yields 0,
// so the layout runs to its end without allocating or indexing further.
class BodyReader {
 public:
  explicit BodyReader(const std::vector<uint64_t>& words) : words_(words) {}

  template <class T>
  void Field(T& x) {
    const uint64_t w = Next();
    x = static_cast<T>(w);
    Check(static_cast<uint64_t>(x) == w, "field value");
  }
  void Field(double& x) {
    const uint64_t w = Next();
    std::memcpy(&x, &w, sizeof(x));
  }
  template <class V>
  uint64_t Size(V& v) {
    v.resize(Count());
    return v.size();
  }
  void Row(Matrix& m) {
    m = Matrix(1, Count());
    for (double& x : m.data()) Field(x);
  }
  void Check(bool ok, const char* what) {
    if (!ok && error_.empty()) {
      error_ = std::string(what) + " after " + std::to_string(pos_) +
               " body words";
    }
  }

  Status Finish() const {
    if (!error_.empty()) {
      return Status::InvalidArgument("run state: bad " + error_);
    }
    if (pos_ != words_.size()) {
      return Status::InvalidArgument("run state: words left after the body");
    }
    return Status::OK();
  }

 private:
  uint64_t Next() {
    Check(pos_ < words_.size(), "body length");
    return error_.empty() ? words_[pos_++] : 0;
  }

  // An element takes at least one word, so the words left bound a count
  // before anything is allocated for it.
  uint64_t Count() {
    const uint64_t n = Next();
    Check(n <= words_.size() - pos_, "count");
    return error_.empty() ? n : 0;
  }

  const std::vector<uint64_t>& words_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

uint64_t ConfigFingerprint(const ExperimentConfig& c,
                           const std::string& method_name) {
  // Every field that can change the trained bits or the accounting joins
  // the digest. Deliberately excluded: num_threads (thread-invariant by
  // construction), checkpoint_path/checkpoint_every/resume_run (IO
  // plumbing), debug_stop_after_rounds (the kill hook itself), and the
  // telemetry fields metrics_out/trace_out/profile/track_round_comm (pure
  // observation — a resumed run may toggle them freely).
  std::ostringstream s;
  s << method_name << '|' << c.dataset << '|' << c.data_scale << '|'
    << static_cast<int>(c.base_model) << '|' << c.dims[0] << ',' << c.dims[1]
    << ',' << c.dims[2] << '|' << c.ffn_hidden[0] << ',' << c.ffn_hidden[1]
    << '|' << c.embed_init_std << '|' << c.group_fractions[0] << ','
    << c.group_fractions[1] << ',' << c.group_fractions[2] << '|'
    << c.global_epochs << '|' << c.local_epochs << '|' << c.clients_per_round
    << '|' << c.lr << '|' << static_cast<int>(c.aggregation) << '|'
    << c.local_validation_fraction << '|' << c.unified_dual_task << '|'
    << c.decorrelation << '|' << c.ensemble_distillation << '|' << c.alpha
    << '|' << c.ddr_sample_rows << '|' << c.kd_items << '|' << c.kd_steps
    << '|' << c.kd_lr << '|' << c.use_sparse_updates << '|'
    << c.sparse_comm_accounting << '|' << c.use_batched_scoring << '|'
    << c.use_batched_topk << '|' << c.full_downloads << '|'
    << c.sync_replica_cap << '|' << c.availability << '|'
    << c.straggler_slack << '|' << c.round_deadline << '|' << c.net_bandwidth
    << '|' << c.net_bandwidth_sigma << '|' << c.net_latency << '|'
    << c.net_latency_sigma << '|' << c.net_compute_per_sample << '|'
    << c.wire_scalar_bytes << '|' << c.async_mode << '|'
    << c.async_staleness_alpha << '|' << c.async_max_staleness << '|'
    << c.async_distill_every << '|' << c.async_inflight << '|'
    << c.async_dispatch_batch << '|' << c.top_k << '|' << c.eval_every << '|'
    << c.eval_user_sample << '|' << c.eval_candidate_sample << '|' << c.seed
    << '|' << c.fault_upload_loss << '|' << c.fault_download_loss << '|'
    << c.fault_crash << '|' << c.fault_duplicate << '|' << c.fault_corrupt
    << '|' << c.fault_retry_max << '|' << c.fault_retry_base << '|'
    << c.fault_retry_cap << '|' << c.fault_quarantine_base << '|'
    << c.fault_quarantine_cap << '|' << c.fault_jitter << '|'
    << c.admission_control << '|' << c.admit_max_row_norm << '|'
    << c.admit_outlier_z << '|' << c.server_shards << '|'
    // Only the float-vs-double choice joins the digest: both fp32 kernel
    // sets give the same bits, so a run may resume on a CPU with or
    // without AVX2+FMA without drift.
    << (c.compute_backend != ComputeBackend::kFp64);
  return Fnv1a64(s.str());
}

Status SaveRunState(const std::string& path, const RunState& state) {
  if (state.server.tables.empty()) {
    return Status::InvalidArgument("run state has no server slots");
  }
  BodyWriter body;
  RunStateLayout(body, state);
  if (!body.error.empty()) {
    return Status::InvalidArgument("run state: bad " + body.error);
  }
  std::ostringstream out;
  HFR_RETURN_NOT_OK(WriteCheckpointHeader(&out));
  HFR_RETURN_NOT_OK(WriteMeta(&out, "kind", "run_state"));
  HFR_RETURN_NOT_OK(
      WriteMeta(&out, "format", std::to_string(kRunStateFormat)));
  HFR_RETURN_NOT_OK(WriteMeta(&out, "method", state.method));
  HFR_RETURN_NOT_OK(WriteMeta(&out, "base_model", state.base_model));
  HFR_RETURN_NOT_OK(
      WriteSlots(&out, state.server.tables, state.server.thetas));
  HFR_RETURN_NOT_OK(WriteU64Vector(&out, body.words));
  HFR_RETURN_NOT_OK(WriteEnd(&out));
  return WriteCheckedFile(path, out.str());
}

StatusOr<RunState> LoadRunState(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  std::istringstream in(*bytes);
  HFR_RETURN_NOT_OK(ReadCheckpointHeader(&in));
  auto kind = ReadMeta(&in, "kind");
  if (!kind.ok()) return kind.status();
  if (*kind != "run_state") {
    return Status::InvalidArgument("not a run-state checkpoint");
  }
  // The format is read before the checksum, so a file of another format
  // (v2 files have no trailer) is refused by name.
  auto format = ReadMeta(&in, "format");
  if (!format.ok()) return format.status();
  if (*format != std::to_string(kRunStateFormat)) {
    return Status::InvalidArgument(
        "unsupported run-state format " + *format + " (this build reads " +
        std::to_string(kRunStateFormat) + ")");
  }
  HFR_RETURN_NOT_OK(VerifyDigest(*bytes));

  RunState state;
  auto method = ReadMeta(&in, "method");
  if (!method.ok()) return method.status();
  state.method = std::move(method).value();
  auto base_model = ReadMeta(&in, "base_model");
  if (!base_model.ok()) return base_model.status();
  state.base_model = std::move(base_model).value();
  HFR_RETURN_NOT_OK(
      ReadSlots(&in, &state.server.tables, &state.server.thetas));
  auto words = ReadU64Vector(&in);
  if (!words.ok()) return words.status();
  BodyReader body(*words);
  RunStateLayout(body, state);
  HFR_RETURN_NOT_OK(body.Finish());
  HFR_RETURN_NOT_OK(ReadEnd(&in));
  return state;
}

}  // namespace hetefedrec
