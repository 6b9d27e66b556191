// Streaming power-law client generator (million-user workloads).
//
// The calibrated synthetic generators (src/data/synthetic.h) materialize
// the whole interaction log before training starts — fine at paper scale,
// impossible at the ROADMAP's million-user scale where the log would dwarf
// RAM. `ClientStream` removes the materialization: each client's
// interaction set is a *pure function of (seed, user id)*, generated on
// demand in O(items-per-user · log num_items) time and O(1) extra memory.
// The only precomputed state is the item-popularity CDF — O(num_items)
// doubles, independent of the user count — so streaming 1M+ clients
// through server rounds (bench/stream_round.h, driven by bench_sharding)
// holds peak RSS at catalogue scale, never log scale (asserted by
// tests/data/stream_test.cc).
//
// Generative model (the two knobs the scale-out bench cares about):
//   - Item popularity is Zipf: P(item rank r) ∝ 1/(r+1)^popularity_exponent.
//     Hot rows concentrate in the low item ids, which is exactly the skew
//     an item-range-sharded server must survive (bench_sharding reports
//     per-shard upload balance under it).
//   - Per-user interaction counts are Pareto with tail index size_exponent:
//     count = min_items · U^(-1/size_exponent), clamped to max_items — the
//     heavy-tailed client-data skew that motivates model heterogeneity.
//
// Determinism: two passes over the same (seed, user id) return
// byte-identical clients, in any order, from any thread (`Get` is const
// and forks a private RNG stream per user).
#ifndef HETEFEDREC_DATA_STREAM_H_
#define HETEFEDREC_DATA_STREAM_H_

#include <cstdint>
#include <vector>

#include "src/data/types.h"
#include "src/util/rng.h"

namespace hetefedrec {

/// \brief Parameters of the streaming generator.
struct StreamConfig {
  size_t num_users = 1'000'000;
  size_t num_items = 100'000;
  /// Zipf exponent of item popularity (higher = hotter head).
  double popularity_exponent = 1.05;
  /// Pareto tail index of per-user interaction counts (lower = heavier
  /// tail). Must be > 0.
  double size_exponent = 1.6;
  size_t min_items_per_user = 4;
  size_t max_items_per_user = 256;
  uint64_t seed = 1;
};

/// \brief One generated client: its distinct interacted items, ascending.
struct StreamClient {
  UserId user = 0;
  /// Distinct item rows, strictly ascending — directly usable as a
  /// SparseRowUpdate row set or a delta-sync subscription.
  std::vector<uint32_t> items;
};

/// \brief On-demand client generator; see file header.
class ClientStream {
 public:
  explicit ClientStream(const StreamConfig& config);

  size_t num_users() const { return config_.num_users; }
  size_t num_items() const { return config_.num_items; }
  const StreamConfig& config() const { return config_; }

  /// Generates client `u`. Pure in (config().seed, u): same seed, same
  /// client, byte for byte — across passes, orders and threads.
  StreamClient Get(UserId u) const;

  /// Draws one item id from the popularity distribution using `rng`
  /// (exposed for tests that fit the exponent).
  uint32_t SampleItem(Rng* rng) const;

  /// The Pareto interaction count client `u` draws (before item dedup);
  /// exposed for tests that fit the tail index.
  size_t SampleCount(UserId u) const;

 private:
  StreamConfig config_;
  Rng root_;
  /// Normalized popularity CDF over items, cdf_[r] = P(rank <= r). The only
  /// O(num_items) state; shared read-only by all Get calls.
  std::vector<double> pop_cdf_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_DATA_STREAM_H_
