// The slot table of the out-of-core slot manager (Sec. 3.2-3.4): m RAM
// slots, the vector -> slot residency map and the replacement strategy, plus
// the bookkeeping behind every swap (free-slot-first claims, the candidate
// order handed to choose_victim, eviction and install accounting).
// OutOfCoreStore owns one over its FileBackend.
//
// The table does no I/O and takes no lock: OutOfCoreStore holds its mutex
// around every call (the member is PLFOC_GUARDED_BY it) and does the
// transfers itself. docs/storage-layer.md, section 6, has the design.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "ooc/audit.hpp"
#include "ooc/replacement.hpp"
#include "ooc/stats.hpp"
#include "util/aligned_buffer.hpp"
#include "util/checks.hpp"

namespace plfoc {

class SlotTier {
 public:
  /// A slot for an incoming vector: free (victim == kOocNoVector), or held
  /// by `victim`, which the caller writes back as needed and then evict()s.
  struct Claim {
    std::uint32_t slot = kOocNoSlot;
    std::uint32_t victim = kOocNoVector;
  };

  SlotTier(std::size_t vector_count, std::size_t slot_count,
           std::size_t width, const StrategyConfig& strategy);

  std::size_t size() const { return slots_.size(); }
  /// Slot buffer. Only swap_data() moves it, and only for an unpinned
  /// victim, so a pinned lease may keep using it after the store's lock is
  /// released.
  double* data(std::uint32_t slot) { return data_[slot]; }
  /// Give `slot` the buffer `spare` and return the one it held (a
  /// write-behind victim's content leaves the slot with it).
  double* swap_data(std::uint32_t slot, double* spare) {
    PLFOC_CHECK(slots_[slot].pins == 0);
    return std::exchange(data_[slot], spare);
  }
  OocSlot& operator[](std::uint32_t slot) { return slots_[slot]; }
  /// Slot holding `vector`, or kOocNoSlot.
  std::uint32_t slot_of(std::uint32_t vector) const {
    return vector_slot_[vector];
  }
  ReplacementStrategy& strategy() { return *strategy_; }
  const ReplacementStrategy& strategy() const { return *strategy_; }
  /// The table and the map, for StoreAuditor::check_table.
  const std::vector<OocSlot>& slots() const { return slots_; }
  const std::vector<std::uint32_t>& vector_slots() const {
    return vector_slot_;
  }

  /// The first free slot; else the strategy's victim among the resident,
  /// unpinned vectors, offered in slot order. Throws Error when every slot
  /// is pinned.
  Claim claim(std::uint32_t incoming);

  /// Make `vector` resident in the free `slot` (map entry, then on_load).
  void install(std::uint32_t vector, std::uint32_t slot);

  /// Evict the resident, unpinned `vector` once its write-back (if any) is
  /// done: counts stats.evictions, then detach()es it.
  void evict(std::uint32_t vector, OocStats& stats);
  /// Drop `vector` without counting an eviction (an undone install):
  /// on_evict, then clear its map entry and its slot record, pins and dirty
  /// bit included.
  void detach(std::uint32_t vector);

 private:
  AlignedBuffer arena_;
  std::vector<double*> data_;  ///< per slot: its buffer
  std::vector<OocSlot> slots_;
  /// Per vector: slot or kOocNoSlot.
  std::vector<std::uint32_t> vector_slot_;
  std::unique_ptr<ReplacementStrategy> strategy_;
};

}  // namespace plfoc
