// The out-of-core slot manager — the paper's core contribution (Sec. 3.2-3.4).
//
// All `count` ancestral probability vectors live in a binary backing file;
// only `m` RAM slots of w bytes each are allocated (m = f·n in the paper's
// experiments, or m chosen from a byte budget as with RAxML's -L flag).
// An acquire of a non-resident vector selects a victim slot through the
// configured replacement strategy (pinned slots excluded), swaps the victim
// out to the file, and the requested vector in — unless the access is
// write-only and read skipping elides the swap-in read.
//
// The slot table itself is one SlotTier (ooc/slot_tier.hpp); this class
// adds the backing file, read skipping, precision conversion and write-back
// policy around it.
//
// With drop_rebuildable, a victim the engine marked rebuildable (a cherry:
// both children are tips) leaves its slot without a write-back, and its
// next read-mode miss rebuilds it through the recovery hook instead of
// reading the file (docs/storage-layer.md, "dropping rebuildable vectors").
//
// Write-behind (docs/storage-layer.md, "Write-behind"): a victim written
// back on a miss that reads nothing hands its slot buffer, with its content,
// to a writer thread the store owns, and the slot takes one of
// kWriteBehindBuffers spare buffers instead. The writer checksums and
// writes the record while the engine computes. Every backend read and flush
// drains the queue first, and a drop's retire runs behind
// the queued writes, so the backend sees today's order of writes, reads and
// fault draws. A write that exhausts its retries is un-counted and stays
// queued; the next store call on the engine thread throws its IoError.
//
// Thread safety: all slot-table mutations are guarded by one mutex, so a
// stats_snapshot() from another thread sees a consistent table. Lease data
// pointers remain stable while pinned. The writer thread never takes that
// mutex; the queue has its own.
#pragma once

#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "ooc/audit.hpp"
#include "ooc/file_backend.hpp"
#include "ooc/replacement.hpp"
#include "ooc/slot_tier.hpp"
#include "ooc/storage.hpp"
#include "util/mutex.hpp"

namespace plfoc {

/// On-disk numeric precision of ancestral vectors. The paper's companion
/// technique (Berger & Stamatakis 2010, cited as [1]) halves PLF memory with
/// single-precision arithmetic and the paper notes the approaches compose:
/// kSingle stores vectors as floats on disk (half the file size and half the
/// transfer bytes) while RAM slots and kernels stay double. Swaps convert.
/// Results are no longer bit-identical to all-double runs (a controlled,
/// tested perturbation ~1e-7 relative per value); default remains kDouble.
enum class DiskPrecision { kDouble, kSingle };

struct OocStoreOptions {
  /// Number of RAM slots m (>= 3; the engine pins up to 3 vectors at once).
  std::size_t num_slots = 3;
  ReplacementPolicy policy = ReplacementPolicy::kRandom;
  /// Elide the swap-in read for write-only first accesses (Sec. 3.4).
  bool read_skipping = true;
  DiskPrecision disk_precision = DiskPrecision::kDouble;
  /// Paper behaviour: a swap always writes the victim back. With false,
  /// clean victims are dropped without a write (dirty-tracking extension).
  bool write_back_clean = true;
  /// Evict a vector marked rebuildable (mark_rebuildable) without writing
  /// it back, and rebuild it through the recovery hook on its next
  /// read-mode miss. Needs a recovery hook to take effect; off by default so
  /// raw stores keep the paper's access stream. Session sets it from
  /// SessionOptions::recompute_cherries.
  bool drop_rebuildable = false;
  std::uint64_t seed = 1;                  ///< Random strategy seed
  const Tree* tree = nullptr;              ///< required for kTopological
  FileBackendOptions file;                 ///< backing file configuration

  /// Convenience: slots from the paper's fraction parameter f (m = max(3, round(f·n))).
  static std::size_t slots_from_fraction(double f, std::size_t count);
  /// Convenience: slots from a RAM byte budget (RAxML's -L flag).
  static std::size_t slots_from_budget(std::uint64_t budget_bytes,
                                       std::size_t width_doubles);
};

class OutOfCoreStore final : public AncestralStore {
 public:
  /// Spare slot buffers of the write-behind queue: at most this many
  /// victims are in flight before an eviction waits for the writer.
  static constexpr std::size_t kWriteBehindBuffers = 2;
  /// RAM a store with `slots` slots of `width` doubles may allocate for
  /// vectors: the slots plus the write-behind buffers.
  static std::uint64_t memory_bytes(std::size_t slots, std::size_t width) {
    return static_cast<std::uint64_t>(slots + kWriteBehindBuffers) * width *
           sizeof(double);
  }

  OutOfCoreStore(std::size_t count, std::size_t width, OocStoreOptions options);
  /// Joins the writer; a file kept on close first gets the queued writes
  /// (short of a failed one).
  ~OutOfCoreStore() override;

  const char* backend_name() const override { return "out-of-core"; }
  std::size_t num_slots() const { return slot_count_; }
  const char* strategy_name() const;

  /// True if the vector is currently in a RAM slot. Waits for the queued
  /// write-behinds first (short of a failed one), so a vector reported
  /// non-resident has its record on file.
  bool is_resident(std::uint32_t index) const;

  /// Records the mark only under drop_rebuildable; `index` must be pinned
  /// by a write lease.
  void mark_rebuildable(std::uint32_t index) override;

  /// Write the queued write-behinds, then all resident dirty vectors, back
  /// to the file. Dropped vectors are not resident and keep their stale
  /// records.
  void flush() override;

  /// Counters are mutated under mutex_, so a concurrent snapshot must take
  /// the same lock. The robustness
  /// counters (faults_injected / io_retries / io_exhausted) are read fresh
  /// from the backing file, so a snapshot taken right after an IoError still
  /// reflects the failed transfer. Waits for the queued write-behinds (short
  /// of a failed one) first, so those counters include them.
  OocStats stats_snapshot() const override;

  /// Also clears the backing file's robustness counters (and, in audit
  /// builds, the auditor's counter-monotonicity baseline). Waits for the
  /// queued write-behinds first; a write still queued after a failure stays
  /// with the counters it was counted in.
  void reset_stats() override;

  /// Backing-file accounting (I/O op counts, modeled device time). Waits
  /// for the queued write-behinds first (short of a failed one), so the
  /// counters include them; a reference kept across later evictions reads
  /// the live counters.
  const FileBackend& file() const {
    (void)settle_writes();
    return file_;
  }
  FileBackend& file() {
    (void)settle_writes();
    return file_;
  }

  /// RAM for vectors, in bytes: the slots plus the write-behind buffers
  /// (allocated at the first write-behind).
  std::uint64_t slot_memory_bytes() const {
    return memory_bytes(slot_count_, width_);
  }

 protected:
  double* do_acquire(std::uint32_t index, AccessMode mode) override;
  void do_release(std::uint32_t index) override;

 private:
  static constexpr std::uint32_t kNoSlot = kOocNoSlot;
  static constexpr std::uint32_t kNoVector = kOocNoVector;

  /// How a claimed victim leaves its slot.
  enum class VictimExit {
    kDiscard,    ///< clean (and write_back_clean off): the record is current
    kWriteBack,  ///< written to the file first
    kDrop,       ///< marked rebuildable: left unwritten, its record retired
  };

  /// Pick (evicting if needed) a slot for `index`. A victim leaves by
  /// write-behind unless `need_read`: a read is about to wait for the
  /// queue anyway, so the victim is written on this thread after it.
  std::uint32_t obtain_slot(std::uint32_t index, bool need_read)
      PLFOC_REQUIRES(mutex_);
  /// How the claimed victim leaves; reports the eviction to the auditor.
  VictimExit victim_exit(const SlotTier::Claim& claim) PLFOC_REQUIRES(mutex_);
  /// Evict `victim` once its write-back (if any) is done or queued; a kDrop
  /// exit first retires its file record, behind any queued write of it.
  void evict(std::uint32_t victim, VictimExit exit) PLFOC_REQUIRES(mutex_);
  /// Account one vector write-back of `index`, done or queued.
  void count_file_write(std::uint32_t index) PLFOC_REQUIRES(mutex_);
  /// Async-engine demand-miss path: pick the slot AND perform the swap, with
  /// the victim write-back (staged from a scratch copy) and the demand read
  /// (into the freed slot) in flight together. On a write-back failure the
  /// victim is restored and stays resident — the exact state the sequential
  /// obtain_slot leaves when file_write throws. `verify` carries
  /// read_vector_verified semantics; the result lands in *out_verify.
  std::uint32_t swap_in_overlapped(std::uint32_t index, bool verify,
                                   VerifyResult* out_verify)
      PLFOC_REQUIRES(mutex_);
  /// Vector-level file transfer honouring disk_precision.
  /// `verify` (kRead-mode demand misses) checks the record against its
  /// checksum; the returned result is kOk on unverified reads. Write-mode
  /// paper-mode reads (read skipping off) load bytes that are about to be
  /// overwritten, so a corrupt record there must not fail a run that never
  /// consumes it — those reads stay unverified.
  VerifyResult file_read(std::uint32_t index, double* dst, bool verify)
      PLFOC_REQUIRES(mutex_);
  void file_write(std::uint32_t index, const double* src)
      PLFOC_REQUIRES(mutex_);
  /// A verified swap-in of `index` (installed and pinned once) failed its
  /// check. Runs recovery_hook_ with `lock` — the scoped acquisition of
  /// mutex_ — released, since the hook's child acquires re-enter this
  /// store; the pin keeps the slot stable meanwhile. The episode is counted
  /// under one lock hold. Healed: the slot is marked dirty, because the
  /// recomputed content supersedes the corrupt record. Otherwise the
  /// install is undone and IntegrityError is thrown.
  void recover_or_throw(MutexLock& lock, std::uint32_t index,
                        const VerifyResult& verify) PLFOC_REQUIRES(mutex_);
  /// A read-mode miss of a dropped `index` (installed and pinned once):
  /// rebuild it through recovery_hook_, unlocked as above. The rebuild
  /// replays a tip–tip newview, so failing is a bug and aborts. The slot is
  /// marked dirty: its file record is stale.
  void rebuild_dropped(MutexLock& lock, std::uint32_t index)
      PLFOC_REQUIRES(mutex_);
  /// Run recovery_hook_ into `index`'s pinned slot with `lock` released.
  /// Returns the hook's count, 0 when it threw. A CancelledError undoes the
  /// install (pin and residency) and propagates.
  std::uint64_t run_recovery_hook(MutexLock& lock, std::uint32_t index)
      PLFOC_REQUIRES(mutex_);
  /// Undo a failing acquire's install of `index`: its pin and residency
  /// must not outlive the throw (callers never see the lease).
  void undo_install(std::uint32_t index) PLFOC_REQUIRES(mutex_);
  /// kSingle: round a recomputed slot through float, so it matches what a
  /// disk round trip of the vector would have delivered.
  void round_to_disk_precision(double* data) const;

  // -- Write-behind (docs/storage-layer.md, "Write-behind") ---------------
  /// One queued backend call, in eviction order: the write-back of `index`
  /// from `buffer`, or (buffer null) a drop's retire_vector(index).
  struct QueuedWrite {
    std::uint32_t index = 0;
    double* buffer = nullptr;
    /// The write sits in stats_ (false once a failure un-counted it, or a
    /// reset_stats() zeroed the counters it was counted in).
    bool counted = true;
  };
  /// Queue the write-back of the claimed `victim` in `slot`: count it,
  /// then swap the slot's buffer for a spare. Starts the writer at the
  /// first call; waits while every spare is in flight.
  void write_behind(std::uint32_t victim, std::uint32_t slot)
      PLFOC_REQUIRES(mutex_);
  /// Engine side: wait until the queue is empty (or, with `for_spare`,
  /// until a spare buffer is free). A failed write is thrown as its IoError
  /// the first time a waiter sees it, and retried by the next waiter.
  void await_writes(bool for_spare) PLFOC_REQUIRES(mutex_);
  /// Throw a failed write no engine call has reported yet.
  void raise_write_failure() PLFOC_REQUIRES(mutex_);
  /// Un-count the failed head write and rethrow its IoError.
  [[noreturn]] void report_write_failure() PLFOC_REQUIRES(mutex_, wb_mutex_);
  /// Quiet wait for every call queued so far; false when a failed write
  /// parks the writer first. Never throws: the const observers and the
  /// destructor use it.
  bool settle_writes() const PLFOC_EXCLUDES(wb_mutex_);
  /// The writer thread: runs the queue head, pops it, returns its buffer.
  void writer_loop() PLFOC_EXCLUDES(wb_mutex_, mutex_);

  /// Base-class counters re-exported under their capability: every counter
  /// mutation in this store goes through here so the analysis can prove it
  /// happens with the slot-table lock held.
  OocStats& stats_locked() PLFOC_REQUIRES(mutex_) { return stats_; }
  const OocStats& stats_locked() const PLFOC_REQUIRES(mutex_) {
    return stats_;
  }

  OocStoreOptions options_;
  std::size_t slot_count_ = 0;  ///< tier_.size(); ctor-immutable
  SlotTier tier_ PLFOC_GUARDED_BY(mutex_);
#ifdef PLFOC_AUDIT
  /// Slot-table invariant oracle.
  StoreAuditor auditor_ PLFOC_GUARDED_BY(mutex_);
#endif
  /// Vector ever accessed (cold-miss tracking).
  std::vector<bool> touched_ PLFOC_GUARDED_BY(mutex_);
  /// Per vector: marked rebuildable since its last write-mode acquire.
  std::vector<bool> rebuildable_ PLFOC_GUARDED_BY(mutex_);
  /// Per vector: evicted by a kDrop exit and not rebuilt or rewritten since;
  /// its file record is stale, so no read path may load it.
  std::vector<bool> dropped_ PLFOC_GUARDED_BY(mutex_);
  /// Conversion buffer (kSingle only; the writer thread has its own).
  std::vector<float> float_scratch_ PLFOC_GUARDED_BY(mutex_);
  /// Overlapped-swap staging (async engines only): the victim's content is
  /// written back from this copy so the demand read can target the slot
  /// buffer concurrently — and so a failed write-back can restore the victim
  /// even after the read clobbered the slot.
  std::vector<double> evict_scratch_ PLFOC_GUARDED_BY(mutex_);
  /// kSingle overlapped swap: demand-read float staging (float_scratch_ is
  /// busy carrying the victim's write-back conversion).
  std::vector<float> swap_float_scratch_ PLFOC_GUARDED_BY(mutex_);
  FileBackend file_;  ///< internally synchronised (backend atomics)
  mutable Mutex mutex_;

  // Write-behind queue. Lock order: mutex_ before wb_mutex_; the writer
  // thread takes only wb_mutex_.
  mutable Mutex wb_mutex_ PLFOC_ACQUIRED_AFTER(mutex_);
  /// Wakes the writer on a push or a retry, and waiters on a completion or
  /// a failure.
  mutable CondVar wb_cv_;
  std::deque<QueuedWrite> wb_queue_ PLFOC_GUARDED_BY(wb_mutex_);
  std::vector<double*> wb_spares_ PLFOC_GUARDED_BY(wb_mutex_);  ///< free
  std::uint64_t wb_pushed_ PLFOC_GUARDED_BY(wb_mutex_) = 0;
  std::uint64_t wb_done_ PLFOC_GUARDED_BY(wb_mutex_) = 0;
  /// The head write's IoError while the writer is parked on it.
  std::exception_ptr wb_failure_ PLFOC_GUARDED_BY(wb_mutex_);
  /// An engine call has thrown wb_failure_; the next waiter retries.
  bool wb_reported_ PLFOC_GUARDED_BY(wb_mutex_) = false;
  bool wb_stop_ PLFOC_GUARDED_BY(wb_mutex_) = false;
  /// The spare buffers, allocated when the writer starts.
  AlignedBuffer wb_arena_ PLFOC_GUARDED_BY(mutex_);
  /// kSingle narrowing on the writer thread.
  std::vector<float> wb_float_scratch_;
  /// Started at the first write-behind (under mutex_), joined by the
  /// destructor.
  std::thread wb_thread_;
};

}  // namespace plfoc
