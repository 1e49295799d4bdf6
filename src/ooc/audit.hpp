// Machine-checked invariants for the out-of-core slot table (Sec. 3.2-3.4).
//
// The slot table is the piece of state whose silent corruption is costliest:
// every acquire, eviction and write-back mutates it, and a wrong entry
// redirects vector-level file I/O, corrupting the on-disk vector file and
// every likelihood computed from it. StoreAuditor is an
// oracle for that state: OutOfCoreStore (when built with -DPLFOC_AUDIT=ON)
// reports every mutation — acquire, release, evict, write-back — and the
// auditor cross-checks the full table after each one:
//
//  * residency is a bijection: every resident vector maps to exactly one slot
//    and that slot maps back to the vector; no vector occupies two slots;
//  * pinned slots are never selected as replacement victims;
//  * dirty flags match write-backs: a vector with un-written-back
//    modifications is never dropped, and a slot's dirty bit always agrees
//    with the auditor's shadow model of pending modifications;
//  * read skipping only ever elides the swap-in read of a write-mode access —
//    in particular it never skips reading a vector that was ever written to
//    the backing file and is now being read;
//  * only a vector marked rebuildable is dropped (evicted dirty without a
//    write-back), and only a dropped vector is rebuilt.
//
// All checking methods return the violated invariant as a string (nullopt if
// the state is consistent) so tests can assert that corruption *is* detected;
// `enforce()` is the abort-on-violation wrapper the store uses in production
// audit builds. The auditor itself is always compiled (and unit-tested); only
// the hooks inside OutOfCoreStore are gated behind PLFOC_AUDIT.
//
// Thread safety: the auditor keeps shadow state and must be called under the
// store's slot-table mutex, exactly where the mutations it observes happen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ooc/stats.hpp"

namespace plfoc {

/// Sentinel values shared by the slot table and its auditor.
inline constexpr std::uint32_t kOocNoSlot = 0xFFFFFFFFu;
inline constexpr std::uint32_t kOocNoVector = 0xFFFFFFFFu;

/// One RAM slot of the out-of-core slot table.
struct OocSlot {
  std::uint32_t vector = kOocNoVector;  ///< resident vector, or kOocNoVector
  std::uint32_t pins = 0;               ///< live leases on the vector
  bool dirty = false;                   ///< modified since last write-back
};

class StoreAuditor {
 public:
  StoreAuditor(std::size_t vector_count, std::size_t slot_count);

  // -- Event recorders ------------------------------------------------------
  // Each records the event into the shadow model and returns the violated
  // invariant, or nullopt. Call under the store's mutex, in the order the
  // store performs the operations.

  /// An acquire completed. `write_mode` is AccessMode::kWrite;
  /// `read_skipped` means the access missed and the swap-in read was elided.
  [[nodiscard]] std::optional<std::string> record_acquire(std::uint32_t index,
                                                          bool write_mode,
                                                          bool read_skipped);

  /// The store wrote `index` back to the backing file (eviction write-back,
  /// flush, or unconditional paper-mode write).
  [[nodiscard]] std::optional<std::string> record_file_write(
      std::uint32_t index);

  /// `victim` (with `pins` live leases) was chosen for eviction;
  /// `write_back_scheduled` reports whether the store will write the victim
  /// back before dropping it, `dropped` whether it leaves unwritten because
  /// it was marked rebuildable (the two exclude each other). A dirty victim
  /// must leave one of these two ways. Call BEFORE the write-back and before
  /// the store's own consistency checks, so the auditor observes the
  /// pre-write-back pin/dirty state independently of them.
  [[nodiscard]] std::optional<std::string> record_evict(
      std::uint32_t victim, std::uint32_t pins, bool write_back_scheduled,
      bool dropped = false);

  /// `victim`, whose record_evict reported `dropped`, now leaves its slot
  /// unwritten. Separate from record_evict because the store decides a
  /// victim's exit before it evicts the victim.
  [[nodiscard]] std::optional<std::string> record_drop(std::uint32_t victim);

  /// The engine marked `index` rebuildable under its write lease.
  [[nodiscard]] std::optional<std::string> record_mark(std::uint32_t index);

  /// A read-mode miss of `index` was served by rebuilding it through the
  /// recovery hook. Only a dropped vector may be rebuilt; the rebuilt slot
  /// is newer than its (stale) file record, so the shadow model marks it
  /// dirty.
  [[nodiscard]] std::optional<std::string> record_rebuild(
      std::uint32_t index);

  /// A lease on `index` was released; `pins_before` is the pin count the
  /// slot held at the moment of release.
  [[nodiscard]] std::optional<std::string> record_release(
      std::uint32_t index, std::uint32_t pins_before);

  /// A verified read of `index` failed its checksum and the store attempted
  /// self-healing recomputation. `recovered` reports the outcome. A
  /// successful recovery leaves the slot holding content newer than the
  /// (corrupt) file record, so the shadow model marks the vector dirty —
  /// the slot must be written back before it can be dropped.
  [[nodiscard]] std::optional<std::string> record_recovery(std::uint32_t index,
                                                          bool recovered);

  // -- Full-table validation ------------------------------------------------

  /// Validate the complete slot table against the structural invariants and
  /// the shadow dirty model. O(slots + vectors).
  [[nodiscard]] std::optional<std::string> check_table(
      const std::vector<OocSlot>& slots,
      const std::vector<std::uint32_t>& vector_slot) const;

  /// Validate the store's counter object: algebraic identities
  /// (hits + misses == accesses, cold_misses <= misses, skipped_reads +
  /// recomputes <= misses, write_backs_avoided <= evictions,
  /// integrity_recoveries + integrity_unrecovered == integrity_failures,
  /// recovery_recomputes >= integrity_recoveries) and
  /// monotonicity against the previously checked snapshot — including the
  /// robustness and integrity counters, which must never run backwards
  /// mid-run. Call after every counter mutation; reset_stats_baseline()
  /// after a counter reset.
  [[nodiscard]] std::optional<std::string> check_stats(const OocStats& stats);

  /// Forget the monotonicity baseline (pairs with AncestralStore's
  /// reset_stats(), which legitimately zeroes the counters).
  void reset_stats_baseline() { last_stats_ = OocStats{}; }
  /// The store un-counted one queued write-back of `bytes` that failed
  /// (OutOfCoreStore's write-behind): lower the file_writes and
  /// bytes_written baselines by that one write, saturating at zero.
  void forget_write(std::uint64_t bytes);

  /// Abort with a diagnostic if `violation` holds a message. `when` labels
  /// the mutating operation ("acquire", "release", "evict", ...).
  void enforce(const std::optional<std::string>& violation,
               const char* when) const;

  std::size_t vector_count() const { return vector_count_; }
  std::size_t slot_count() const { return slot_count_; }
  /// True once `index` has ever been written to the backing file.
  bool ever_on_disk(std::uint32_t index) const;

 private:
  std::size_t vector_count_;
  std::size_t slot_count_;
  std::vector<bool> on_disk_;      ///< vector was ever written to the file
  std::vector<bool> shadow_dirty_; ///< modifications not yet written back
  std::vector<bool> marked_;       ///< rebuildable since the last write
  std::vector<bool> dropped_;      ///< evicted unwritten, not rebuilt since
  OocStats last_stats_;            ///< monotonicity baseline for check_stats
};

}  // namespace plfoc
