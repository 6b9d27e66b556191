// Server-side bookkeeping of one client's cached row state.
//
// Under delta sync the server must know, per client, which rows the client
// already holds and at which version, so each participation ships only the
// subscribed rows whose version advanced. A `ClientReplica` is exactly that
// record: (slot, row → held version), plus — optionally, for verification —
// the row bytes the client would hold, so tests can assert the protocol is
// lossless (a row the server decides not to ship must be bit-identical to
// the live table).
//
// Memory is proportional to the rows the client has ever subscribed to
// (its interacted items + sampled negatives), not the catalogue — and with
// a capacity set, to min(rows subscribed, capacity): the replica evicts its
// least recently used rows and the protocol simply re-ships them on the
// next subscription (a miss looks exactly like a never-held row).
#ifndef HETEFEDREC_FED_SYNC_REPLICA_H_
#define HETEFEDREC_FED_SYNC_REPLICA_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace hetefedrec {

/// \brief One client's cached (row → version [, values]) state with an
/// optional LRU capacity.
class ClientReplica {
 public:
  /// Sentinel "never shipped" version; any real version compares newer.
  static constexpr uint64_t kNeverHeld = ~uint64_t{0};

  /// Model slot this replica mirrors, or npos before the first sync.
  static constexpr size_t kNoSlot = ~size_t{0};
  size_t slot() const { return slot_; }
  void set_slot(size_t slot) { slot_ = slot; }

  /// Maximum rows held (0 = unlimited). Exceeding rows are evicted least
  /// recently used first; an evicted row reads as never held.
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity);

  size_t rows_held() const { return held_.size(); }

  /// Version the client holds for `row`, or kNeverHeld.
  uint64_t HeldVersion(uint32_t row) const {
    auto it = held_.find(row);
    return it == held_.end() ? kNeverHeld : it->second.version;
  }

  bool IsStale(uint32_t row, uint64_t current_version) const {
    const uint64_t held = HeldVersion(row);
    return held == kNeverHeld || held < current_version;
  }

  /// Records that the client now holds `row` at `version`, marks it most
  /// recently used, and evicts LRU rows beyond the capacity.
  void Hold(uint32_t row, uint64_t version);

  /// Marks a held row most recently used (a subscription read that needed
  /// no ship still pins the row's recency). No-op for unheld rows.
  void Touch(uint32_t row);

  /// Records the shipped bytes (verification mode only).
  void HoldValues(uint32_t row, const double* data, size_t width);

  /// Cached bytes for `row`, nullptr if values are not tracked for it.
  const double* Values(uint32_t row, size_t width) const;

  /// Drops everything — the client behaves as a first-time participant.
  void Invalidate();

  /// Held rows and versions for run checkpoints. A capped replica exports
  /// in LRU order, *coldest first*, so replaying them through `Hold` in
  /// order rebuilds the identical recency list; an uncapped one tracks no
  /// recency and exports in ascending row order. Verification-mode value
  /// caches are not exported.
  void ExportRows(std::vector<uint32_t>* rows,
                  std::vector<uint64_t>* versions) const;

 private:
  struct Entry {
    uint64_t version = 0;
    std::list<uint32_t>::iterator lru;  // position in lru_ (front = hottest)
  };

  void EvictOverCapacity();

  size_t slot_ = kNoSlot;
  size_t capacity_ = 0;
  // hfr-lint: iteration-order-safe(find/emplace/erase lookups, plus one walk in ExportRows for an uncapped replica, which sorts the rows it collects)
  std::unordered_map<uint32_t, Entry> held_;
  std::list<uint32_t> lru_;  // most recently used at the front
  // Verification mode: row → offset into values_. Slots of evicted rows are
  // recycled through free_value_pos_ so capped replicas stay bounded.
  // hfr-lint: iteration-order-safe(find/emplace/erase lookups only, never walked)
  std::unordered_map<uint32_t, size_t> value_pos_;
  std::vector<size_t> free_value_pos_;
  std::vector<double> values_;
};

}  // namespace hetefedrec

#endif  // HETEFEDREC_FED_SYNC_REPLICA_H_
