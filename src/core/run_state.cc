#include "src/core/run_state.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/core/checkpoint.h"

namespace hetefedrec {

namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

double Unbits(uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

void PackRng(const RngState& r, std::vector<uint64_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(r.s[i]);
  out->push_back(r.origin_seed);
  out->push_back(Bits(r.cached_normal));
  out->push_back(r.has_cached_normal ? 1 : 0);
}

constexpr size_t kRngWords = 7;

RngState UnpackRng(const uint64_t* w) {
  RngState r;
  for (int i = 0; i < 4; ++i) r.s[i] = w[i];
  r.origin_seed = w[4];
  r.cached_normal = Unbits(w[5]);
  r.has_cached_normal = w[6] != 0;
  return r;
}

// One EpochPoint = epoch + 2 doubles + 4 EvalResults x 3 words.
constexpr size_t kPointWords = 3 + 4 * 3;

void PackEval(const EvalResult& e, std::vector<uint64_t>* out) {
  out->push_back(Bits(e.recall));
  out->push_back(Bits(e.ndcg));
  out->push_back(e.users);
}

EvalResult UnpackEval(const uint64_t* w) {
  EvalResult e;
  e.recall = Unbits(w[0]);
  e.ndcg = Unbits(w[1]);
  e.users = static_cast<size_t>(w[2]);
  return e;
}

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
    // fp32 and fp32_simd are results-identical by construction, so only
    // the float-vs-double choice joins the digest — a run may resume under
    // the other fp32 flavor (or after an AVX2 fallback) without drift.
    << (c.compute_backend != ComputeBackend::kFp64);
  const std::string text = s.str();
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status SaveRunState(const std::string& path, const RunState& state) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp);
    HFR_RETURN_NOT_OK(WriteCheckpointHeader(&out));
    HFR_RETURN_NOT_OK(WriteMeta(&out, "kind", "run_state"));
    HFR_RETURN_NOT_OK(
        WriteMeta(&out, "format", std::to_string(kRunStateFormat)));
    HFR_RETURN_NOT_OK(WriteMeta(&out, "method", state.method));
    HFR_RETURN_NOT_OK(WriteMeta(&out, "base_model", state.base_model));

    const ServerSnapshot& server = state.server;
    const uint64_t num_slots = server.tables.size();
    const uint64_t num_clients = state.client_rngs.size();
    std::vector<uint64_t> scalars = {
        state.fingerprint,    state.next_epoch,
        state.mid_epoch,      state.round_budget,
        state.rounds_done,    state.dispatch_seq,
        Bits(state.loss_sum), state.loss_count,
        Bits(state.sim_clock), Bits(state.async_clock),
        state.async_next_seq, state.async_merged,
        state.async_dropped,  server.version_round,
        num_slots,            num_clients,
        state.has_replicas};
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, scalars));

    std::vector<uint64_t> rngs;
    rngs.reserve(2 * kRngWords + num_clients * kRngWords);
    PackRng(state.sched_rng, &rngs);
    PackRng(state.kd_rng, &rngs);
    for (const RngState& r : state.client_rngs) PackRng(r, &rngs);
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, rngs));

    std::vector<uint64_t> embeds;
    for (const Matrix& e : state.client_embeddings) {
      embeds.push_back(e.cols());
      for (double v : e.data()) embeds.push_back(Bits(v));
    }
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, embeds));

    for (size_t s = 0; s < num_slots; ++s) {
      HFR_RETURN_NOT_OK(WriteMatrix(&out, server.tables[s]));
      HFR_RETURN_NOT_OK(WriteFfn(&out, server.thetas[s]));
    }
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, server.version_floors));
    for (size_t s = 0; s < num_slots; ++s) {
      HFR_RETURN_NOT_OK(WriteU64Vector(&out, server.versions[s]));
    }
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, state.queue_pending));
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, state.comm_counters));
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, state.gate_state));

    std::vector<uint64_t> admission;
    admission.push_back(state.admission_history.size());
    for (const std::vector<double>& window : state.admission_history) {
      admission.push_back(window.size());
      for (double n : window) admission.push_back(Bits(n));
    }
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, admission));

    std::vector<uint64_t> hist;
    hist.reserve(state.history.size() * kPointWords);
    for (const EpochPoint& p : state.history) {
      hist.push_back(static_cast<uint64_t>(p.epoch));
      hist.push_back(Bits(p.mean_train_loss));
      hist.push_back(Bits(p.simulated_seconds));
      PackEval(p.eval.overall, &hist);
      for (const EvalResult& e : p.eval.per_group) PackEval(e, &hist);
    }
    HFR_RETURN_NOT_OK(WriteU64Vector(&out, hist));

    if (state.has_replicas) {
      std::vector<uint64_t> reps;
      for (const ReplicaSnapshot& r : state.replicas) {
        reps.push_back(r.slot_plus_one);
        reps.push_back(r.rows.size());
        for (size_t i = 0; i < r.rows.size(); ++i) {
          reps.push_back(r.rows[i]);
          reps.push_back(r.versions[i]);
        }
      }
      HFR_RETURN_NOT_OK(WriteU64Vector(&out, reps));
    }
    HFR_RETURN_NOT_OK(WriteEnd(&out));
    if (!out.good()) return Status::IOError("run-state write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

StatusOr<RunState> LoadRunState(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  HFR_RETURN_NOT_OK(ReadCheckpointHeader(&in));
  RunState state;
  for (const char* expected_key :
       {"kind", "format", "method", "base_model"}) {
    auto meta = ReadMeta(&in);
    if (!meta.ok()) return meta.status();
    if (meta->first != expected_key) {
      return Status::InvalidArgument("run state: expected meta key " +
                                     std::string(expected_key) + ", got " +
                                     meta->first);
    }
    if (meta->first == "kind" && meta->second != "run_state") {
      return Status::InvalidArgument("not a run-state checkpoint");
    }
    if (meta->first == "format" &&
        meta->second != std::to_string(kRunStateFormat)) {
      return Status::InvalidArgument("unsupported run-state format " +
                                     meta->second);
    }
    if (meta->first == "method") state.method = meta->second;
    if (meta->first == "base_model") state.base_model = meta->second;
  }

  auto scalars = ReadU64Vector(&in);
  if (!scalars.ok()) return scalars.status();
  if (scalars->size() != 17) {
    return Status::InvalidArgument("run state: bad scalar block");
  }
  const std::vector<uint64_t>& sc = *scalars;
  state.fingerprint = sc[0];
  state.next_epoch = sc[1];
  state.mid_epoch = sc[2];
  state.round_budget = sc[3];
  state.rounds_done = sc[4];
  state.dispatch_seq = sc[5];
  state.loss_sum = Unbits(sc[6]);
  state.loss_count = sc[7];
  state.sim_clock = Unbits(sc[8]);
  state.async_clock = Unbits(sc[9]);
  state.async_next_seq = sc[10];
  state.async_merged = sc[11];
  state.async_dropped = sc[12];
  state.server.version_round = sc[13];
  const uint64_t num_slots = sc[14];
  const uint64_t num_clients = sc[15];
  state.has_replicas = sc[16];
  if (num_slots == 0 || num_slots > 16) {
    return Status::InvalidArgument("run state: slot count implausible");
  }

  auto rngs = ReadU64Vector(&in);
  if (!rngs.ok()) return rngs.status();
  if (rngs->size() != (2 + num_clients) * kRngWords) {
    return Status::InvalidArgument("run state: bad RNG block");
  }
  state.sched_rng = UnpackRng(rngs->data());
  state.kd_rng = UnpackRng(rngs->data() + kRngWords);
  state.client_rngs.reserve(num_clients);
  for (uint64_t u = 0; u < num_clients; ++u) {
    state.client_rngs.push_back(
        UnpackRng(rngs->data() + (2 + u) * kRngWords));
  }

  auto embeds = ReadU64Vector(&in);
  if (!embeds.ok()) return embeds.status();
  {
    size_t i = 0;
    state.client_embeddings.reserve(num_clients);
    for (uint64_t u = 0; u < num_clients; ++u) {
      if (i >= embeds->size()) {
        return Status::InvalidArgument("run state: bad embedding block");
      }
      const uint64_t width = (*embeds)[i++];
      if (width > 4096 || i + width > embeds->size()) {
        return Status::InvalidArgument("run state: bad embedding block");
      }
      Matrix e(1, width);
      for (uint64_t d = 0; d < width; ++d) {
        e(0, d) = Unbits((*embeds)[i++]);
      }
      state.client_embeddings.push_back(std::move(e));
    }
    if (i != embeds->size()) {
      return Status::InvalidArgument("run state: bad embedding block");
    }
  }

  for (uint64_t s = 0; s < num_slots; ++s) {
    auto table = ReadMatrix(&in);
    if (!table.ok()) return table.status();
    auto theta = ReadFfn(&in);
    if (!theta.ok()) return theta.status();
    state.server.tables.push_back(std::move(table).value());
    state.server.thetas.push_back(std::move(theta).value());
  }

  auto floors = ReadU64Vector(&in);
  if (!floors.ok()) return floors.status();
  if (floors->size() != num_slots) {
    return Status::InvalidArgument("run state: bad version floors");
  }
  state.server.version_floors = std::move(floors).value();
  for (uint64_t s = 0; s < num_slots; ++s) {
    auto versions = ReadU64Vector(&in);
    if (!versions.ok()) return versions.status();
    state.server.versions.push_back(std::move(versions).value());
  }

  auto queue = ReadU64Vector(&in);
  if (!queue.ok()) return queue.status();
  state.queue_pending = std::move(queue).value();

  auto comm = ReadU64Vector(&in);
  if (!comm.ok()) return comm.status();
  state.comm_counters = std::move(comm).value();

  auto gate = ReadU64Vector(&in);
  if (!gate.ok()) return gate.status();
  state.gate_state = std::move(gate).value();

  auto admission = ReadU64Vector(&in);
  if (!admission.ok()) return admission.status();
  {
    const std::vector<uint64_t>& a = *admission;
    size_t i = 0;
    if (a.empty()) {
      return Status::InvalidArgument("run state: bad admission block");
    }
    const uint64_t windows = a[i++];
    for (uint64_t w = 0; w < windows; ++w) {
      if (i >= a.size()) {
        return Status::InvalidArgument("run state: bad admission block");
      }
      const uint64_t n = a[i++];
      if (i + n > a.size()) {
        return Status::InvalidArgument("run state: bad admission block");
      }
      std::vector<double> window(n);
      for (uint64_t k = 0; k < n; ++k) window[k] = Unbits(a[i++]);
      state.admission_history.push_back(std::move(window));
    }
  }

  auto hist = ReadU64Vector(&in);
  if (!hist.ok()) return hist.status();
  if (hist->size() % kPointWords != 0) {
    return Status::InvalidArgument("run state: bad history block");
  }
  for (size_t i = 0; i < hist->size(); i += kPointWords) {
    const uint64_t* w = hist->data() + i;
    EpochPoint p;
    p.epoch = static_cast<int>(w[0]);
    p.mean_train_loss = Unbits(w[1]);
    p.simulated_seconds = Unbits(w[2]);
    p.eval.overall = UnpackEval(w + 3);
    for (size_t g = 0; g < p.eval.per_group.size(); ++g) {
      p.eval.per_group[g] = UnpackEval(w + 6 + 3 * g);
    }
    state.history.push_back(p);
  }

  if (state.has_replicas) {
    auto reps = ReadU64Vector(&in);
    if (!reps.ok()) return reps.status();
    const std::vector<uint64_t>& r = *reps;
    size_t i = 0;
    for (uint64_t u = 0; u < num_clients; ++u) {
      if (i + 2 > r.size()) {
        return Status::InvalidArgument("run state: bad replica block");
      }
      ReplicaSnapshot snap;
      snap.slot_plus_one = r[i++];
      const uint64_t n = r[i++];
      if (i + 2 * n > r.size()) {
        return Status::InvalidArgument("run state: bad replica block");
      }
      snap.rows.reserve(n);
      snap.versions.reserve(n);
      for (uint64_t k = 0; k < n; ++k) {
        snap.rows.push_back(r[i++]);
        snap.versions.push_back(r[i++]);
      }
      state.replicas.push_back(std::move(snap));
    }
    if (i != r.size()) {
      return Status::InvalidArgument("run state: bad replica block");
    }
  }

  auto end = PeekTag(&in);
  if (!end.ok()) return end.status();
  if (*end != RecordTag::kEnd) {
    return Status::InvalidArgument("run state missing end sentinel");
  }
  return state;
}

}  // namespace hetefedrec
