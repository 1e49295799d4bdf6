// Three-layer storage hierarchy — the paper's Sec. 5 outlook, implemented.
//
// "One may also envision a three-layer architecture, where ancestral
//  probability vectors partially reside on disk, in RAM, or the memory of an
//  accelerator card."
//
// TieredStore stacks a small *fast tier* (modelling accelerator/GPU device
// memory: the kernels may only compute on vectors residing there) on top of
// the familiar RAM slot tier, backed by the binary vector file:
//
//      fast tier (m_fast slots)   <- acquire() returns addresses here only
//        | promote / demote         (models PCIe transfers; no disk I/O)
//      RAM tier (m_ram slots)
//        | swap in / out            (real file reads/writes, read skipping)
//      vector file on disk
//
// Demotions from the fast tier fall to the RAM tier (possibly cascading a
// RAM->disk eviction); promotions prefer RAM residency over a disk read.
// Pinning applies to the fast tier (a computation's working triple must be
// on the accelerator), so m_fast >= 3. Each layer is one SlotTier
// (ooc/slot_tier.hpp) with its own replacement strategy instance; a vector
// is in the fast tier, in the RAM tier or on disk only. Transfer statistics
// are split per layer: stats() counts the disk layer exactly like
// OutOfCoreStore; tier_stats() counts host<->device traffic.
#pragma once

#include <vector>

#include "ooc/file_backend.hpp"
#include "ooc/slot_tier.hpp"
#include "ooc/storage.hpp"
#include "util/aligned_buffer.hpp"
#include "util/mutex.hpp"

namespace plfoc {

struct TieredStoreOptions {
  std::size_t fast_slots = 3;  ///< accelerator-memory vectors (>= 3)
  std::size_t ram_slots = 8;   ///< host-RAM vectors (>= 1)
  ReplacementPolicy fast_policy = ReplacementPolicy::kLru;
  ReplacementPolicy ram_policy = ReplacementPolicy::kRandom;
  bool read_skipping = true;
  std::uint64_t seed = 1;
  const Tree* tree = nullptr;  ///< for topological policies
  FileBackendOptions file;
};

/// Host<->device transfer counters (the middle layer of the hierarchy).
struct TierStats {
  std::uint64_t promotions = 0;    ///< RAM -> fast copies
  std::uint64_t demotions = 0;     ///< fast -> RAM copies
  std::uint64_t fast_hits = 0;     ///< acquire served from the fast tier
  std::uint64_t ram_hits = 0;      ///< promotion served from RAM (no disk read)
  std::uint64_t bytes_transferred = 0;
};

class TieredStore final : public AncestralStore {
 public:
  TieredStore(std::size_t count, std::size_t width, TieredStoreOptions options);

  const char* backend_name() const override { return "tiered"; }
  std::size_t fast_slots() const;
  std::size_t ram_slots() const;
  /// Copy of the host<->device transfer counters, taken under the slot-table
  /// lock. Returned by value: the counters are mutated under mutex_, so a
  /// reference would hand out unsynchronised state (the same defect class
  /// the PR 2 stats_snapshot() fix closed for OocStats).
  TierStats tier_stats() const;

  /// Write all dirty state (both tiers) back to the file.
  void flush() override;

  const FileBackend& file() const { return file_; }

  /// Counters plus the backing file's robustness counters (faults_injected /
  /// io_retries / io_exhausted), which live in backend atomics.
  OocStats stats_snapshot() const override;
  /// Also clears tier_stats() and the backing file's robustness counters.
  void reset_stats() override;

 protected:
  double* do_acquire(std::uint32_t index, AccessMode mode) override;
  void do_release(std::uint32_t index) override;

 private:
  /// Free a fast slot, demoting its occupant to RAM (which may evict the
  /// RAM tier's victim to disk).
  std::uint32_t obtain_fast_slot(std::uint32_t incoming)
      PLFOC_REQUIRES(mutex_);
  /// Evict the claimed RAM victim to disk, writing it back if dirty.
  void spill(const SlotTier::Claim& claim) PLFOC_REQUIRES(mutex_);
  /// Move the unpinned vector in fast slot `slot` into the free RAM slot
  /// `ram_slot`, copying its content from `src` (normally the fast slot).
  void demote(std::uint32_t slot, std::uint32_t ram_slot, const double* src)
      PLFOC_REQUIRES(mutex_);
  /// Disk read of `index` into fast slot `slot`, verified when `verified`
  /// (the result is kOk on unverified reads).
  VerifyResult read_into(std::uint32_t index, std::uint32_t slot,
                         bool verified) PLFOC_REQUIRES(mutex_);
  /// Async-engine disk-miss path: free a fast slot AND load `index` into it,
  /// overlapping the cascaded RAM-victim spill write (when one is needed)
  /// with the demand read as one engine batch. Counts file_reads/bytes_read
  /// like the sequential read; the caller still counts the promotion. On a
  /// spill failure the whole cascade is undone (both tiers keep their
  /// occupants) — the state the sequential spill's throw leaves.
  std::uint32_t swap_in_overlapped(std::uint32_t index, bool verified,
                                   VerifyResult* out_verify)
      PLFOC_REQUIRES(mutex_);

  /// Base-class counters re-exported under their capability (every mutation
  /// is provably under the slot-table lock).
  OocStats& stats_locked() PLFOC_REQUIRES(mutex_) { return stats_; }
  const OocStats& stats_locked() const PLFOC_REQUIRES(mutex_) {
    return stats_;
  }

  TieredStoreOptions options_;
  SlotTier fast_ PLFOC_GUARDED_BY(mutex_);  ///< leases pin these slots
  SlotTier ram_ PLFOC_GUARDED_BY(mutex_);   ///< never pinned
  /// One-vector staging buffer for promotions.
  AlignedBuffer bounce_ PLFOC_GUARDED_BY(mutex_);
  /// Overlapped-swap staging (async engines only): holds the demoting fast
  /// victim's content while the demand read reuses its fast slot — and
  /// doubles as the undo image if the cascaded spill write fails.
  std::vector<double> demote_scratch_ PLFOC_GUARDED_BY(mutex_);
  /// Vector ever accessed (cold-miss tracking).
  std::vector<bool> touched_ PLFOC_GUARDED_BY(mutex_);
  FileBackend file_;  ///< internally synchronised (backend atomics)
  TierStats tier_stats_ PLFOC_GUARDED_BY(mutex_);
  mutable Mutex mutex_;
};

}  // namespace plfoc
