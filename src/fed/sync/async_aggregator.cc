#include "src/fed/sync/async_aggregator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/logging.h"
#include "src/util/telemetry/profiler.h"

namespace hetefedrec {

AsyncAggregator::AsyncAggregator(ShardedServer* server,
                                 const Options& options)
    : server_(server), options_(options) {
  HFR_CHECK(server != nullptr);
  HFR_CHECK_GE(options.staleness_alpha, 0.0);
}

double AsyncAggregator::StalenessWeight(uint64_t staleness) const {
  if (staleness == 0 || options_.staleness_alpha == 0.0) return 1.0;
  return std::pow(1.0 + static_cast<double>(staleness),
                  -options_.staleness_alpha);
}

bool AsyncAggregator::Later(const Event& a, const Event& b) {
  // std::push_heap builds a max-heap; invert so the *earliest* event pops.
  if (a.finish != b.finish) return a.finish > b.finish;
  return a.seq > b.seq;
}

void AsyncAggregator::Submit(UserId user,
                             const std::vector<LocalTaskSpec>* tasks,
                             LocalUpdateResult update,
                             uint64_t download_version,
                             double finish_seconds) {
  HFR_CHECK(tasks != nullptr && !tasks->empty());
  HFR_CHECK_GE(finish_seconds, clock_);
  Event e;
  e.finish = finish_seconds;
  e.seq = next_seq_++;
  e.download_version = download_version;
  e.user = user;
  e.tasks = tasks;
  e.update = std::move(update);
  events_.push_back(std::move(e));
  std::push_heap(events_.begin(), events_.end(), Later);
}

AsyncAggregator::Outcome AsyncAggregator::MergeNext(
    const DistillationOptions& kd_options, Rng* kd_rng) {
  HFR_PROFILE("merge");
  HFR_CHECK(!events_.empty());
  std::pop_heap(events_.begin(), events_.end(), Later);
  Event e = std::move(events_.back());
  events_.pop_back();
  HFR_CHECK_GE(e.finish, clock_);
  clock_ = e.finish;

  const uint64_t now = server_->versions().round();
  HFR_CHECK_GE(now, e.download_version);
  const uint64_t staleness = now - e.download_version;

  Outcome out;
  out.user = e.user;
  out.finish_seconds = e.finish;
  out.staleness = staleness;
  out.train_loss = e.update.train_loss;
  out.params_up = e.update.params_up;

  if (options_.max_staleness > 0 && staleness > options_.max_staleness) {
    ++dropped_;
    return out;  // merged = false, weight = 0
  }

  if (server_->admission_enabled()) {
    const AdmissionDecision decision = server_->Admit(*e.tasks, &e.update);
    out.rows_clipped = decision.rows_clipped;
    if (decision.verdict != AdmissionVerdict::kAccept) {
      out.rejected = true;
      out.rejected_nonfinite =
          decision.verdict == AdmissionVerdict::kRejectNonFinite;
      return out;  // merged = false; the caller quarantines the client
    }
  }

  out.weight = StalenessWeight(staleness);
  server_->ApplyUpdate(*e.tasks, e.update, out.weight);
  out.merged = true;
  ++merged_;

  if (options_.distill_every > 0 && kd_rng != nullptr &&
      merged_ % options_.distill_every == 0) {
    server_->Distill(kd_options, kd_rng);
    out.distilled = true;
  }
  return out;
}

void AsyncAggregator::AdvanceClock(double seconds) {
  HFR_CHECK(events_.empty());
  clock_ = std::max(clock_, seconds);
}

void AsyncAggregator::RestoreState(double clock_seconds, uint64_t next_seq,
                                   size_t merged, size_t dropped) {
  HFR_CHECK(events_.empty());
  clock_ = clock_seconds;
  next_seq_ = next_seq;
  merged_ = merged;
  dropped_ = dropped;
}

}  // namespace hetefedrec
