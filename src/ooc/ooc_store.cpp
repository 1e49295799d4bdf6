#include "ooc/ooc_store.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.hpp"

// Audit hooks: record every slot-table mutation with the invariant auditor
// and re-validate the whole table afterwards. All hook sites run under
// mutex_. Compiled out entirely unless configured with -DPLFOC_AUDIT=ON.
#ifdef PLFOC_AUDIT
#define PLFOC_AUDIT_EVENT(when, call) auditor_.enforce((call), (when))
#define PLFOC_AUDIT_TABLE(when) \
  auditor_.enforce(             \
      auditor_.check_table(tier_.slots(), tier_.vector_slots()), (when))
#else
#define PLFOC_AUDIT_EVENT(when, call) ((void)0)
#define PLFOC_AUDIT_TABLE(when) ((void)0)
#endif

namespace plfoc {

namespace {

// kSingle conversions between RAM slots (double) and disk records (float).
void narrow(const double* src, float* dst, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) dst[i] = static_cast<float>(src[i]);
}

void widen(const float* src, double* dst, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) dst[i] = static_cast<double>(src[i]);
}

}  // namespace

std::size_t OocStoreOptions::slots_from_fraction(double f, std::size_t count) {
  PLFOC_REQUIRE(f > 0.0, "RAM fraction f must be positive");
  const double m = std::round(f * static_cast<double>(count));
  return std::max<std::size_t>(3, static_cast<std::size_t>(m));
}

std::size_t OocStoreOptions::slots_from_budget(std::uint64_t budget_bytes,
                                               std::size_t width_doubles) {
  const std::uint64_t w = width_doubles * sizeof(double);
  PLFOC_REQUIRE(budget_bytes >= 3 * w,
                "RAM budget must hold at least 3 ancestral vectors (m >= 3)");
  return static_cast<std::size_t>(budget_bytes / w);
}

OutOfCoreStore::OutOfCoreStore(std::size_t count, std::size_t width,
                               OocStoreOptions options)
    : AncestralStore(count, width),
      options_(std::move(options)),
      slot_count_(std::min(options_.num_slots, count)),
      tier_(count, slot_count_, width,
            StrategyConfig{options_.policy, count, options_.seed,
                           options_.tree}),
#ifdef PLFOC_AUDIT
      auditor_(count, slot_count_),
#endif
      touched_(count, false),
      rebuildable_(count, false),
      dropped_(count, false),
      float_scratch_(options_.disk_precision == DiskPrecision::kSingle ? width
                                                                        : 0),
      file_(count,
            width * (options_.disk_precision == DiskPrecision::kSingle
                         ? sizeof(float)
                         : sizeof(double)),
            options_.file) {
  PLFOC_REQUIRE(options_.num_slots >= 3,
                "the out-of-core store needs at least 3 slots (m >= 3)");
  PLFOC_LOG(kInfo) << "out-of-core store: " << count << " vectors x " << width
                   << " doubles, " << slot_count_ << " slots + "
                   << kWriteBehindBuffers << " write-behind buffers ("
                   << (slot_memory_bytes() >> 20) << " MiB RAM), strategy="
                   << tier_.strategy().name();
}

OutOfCoreStore::~OutOfCoreStore() {
  if (!wb_thread_.joinable()) return;
  // A file that outlives the store gets the queued records, as evicted
  // victims always reached it; a write parked on a failure is given up,
  // never retried here. A file removed on close needs none of them.
  if (!options_.file.remove_on_close) (void)settle_writes();
  {
    MutexLock lock(wb_mutex_);
    wb_stop_ = true;
    wb_cv_.notify_all();
  }
  wb_thread_.join();
}

const char* OutOfCoreStore::strategy_name() const {
  // The strategy object is never replaced after construction, but the
  // pointer read still synchronises with mutations of the strategy's own
  // state, which happen under mutex_.
  MutexLock lock(mutex_);
  return tier_.strategy().name();
}

bool OutOfCoreStore::is_resident(std::uint32_t index) const {
  PLFOC_CHECK(index < count_);
  MutexLock lock(mutex_);
  (void)settle_writes();
  return tier_.slot_of(index) != kNoSlot;
}

VerifyResult OutOfCoreStore::file_read(std::uint32_t index, double* dst,
                                       bool verify) {
  await_writes(/*for_spare=*/false);
  VerifyResult result;
  const bool single = options_.disk_precision == DiskPrecision::kSingle;
  // Verification runs over the on-disk representation (floats for kSingle),
  // before widening — the checksum covers file bytes, not RAM content.
  void* record = single ? static_cast<void*>(float_scratch_.data()) : dst;
  if (verify)
    result = file_.read_vector_verified(index, record);
  else
    file_.read_vector(index, record);
  if (single) widen(float_scratch_.data(), dst, width_);
  ++stats_locked().file_reads;
  stats_locked().bytes_read += file_.bytes_per_vector();
  file_.copy_counters(stats_locked());
  return result;
}

void OutOfCoreStore::file_write(std::uint32_t index, const double* src) {
  if (options_.disk_precision == DiskPrecision::kDouble) {
    file_.write_vector(index, src);
  } else {
    narrow(src, float_scratch_.data(), width_);
    file_.write_vector(index, float_scratch_.data());
  }
  count_file_write(index);
  file_.copy_counters(stats_locked());
}

void OutOfCoreStore::count_file_write(
    [[maybe_unused]] std::uint32_t index) {  // only audit hooks read it
  ++stats_locked().file_writes;
  stats_locked().bytes_written += file_.bytes_per_vector();
  PLFOC_AUDIT_EVENT("file write", auditor_.record_file_write(index));
}

OutOfCoreStore::VictimExit OutOfCoreStore::victim_exit(
    const SlotTier::Claim& claim) {
  // The paper's implementation always writes the victim back; dirty tracking
  // (write_back_clean = false) is an ablation extension.
  VictimExit exit = VictimExit::kDiscard;
  if (options_.write_back_clean || tier_[claim.slot].dirty) {
    // A marked victim is cheaper to rebuild from its tips than to write,
    // but only a registered hook can rebuild it.
    const bool drop = options_.drop_rebuildable && recovery_hook_ &&
                      rebuildable_[claim.victim];
    exit = drop ? VictimExit::kDrop : VictimExit::kWriteBack;
  }
  // The auditor must see the victim's pin count and shadow dirty bit before
  // the tier's own pin assertion (SlotTier::evict) and before the write-back
  // clears the shadow state — otherwise it only re-checks values the store
  // already validated.
  PLFOC_AUDIT_EVENT("evict", auditor_.record_evict(
                                 claim.victim, tier_[claim.slot].pins,
                                 exit == VictimExit::kWriteBack,
                                 exit == VictimExit::kDrop));
  return exit;
}

void OutOfCoreStore::evict(std::uint32_t victim, VictimExit exit) {
  if (exit == VictimExit::kDrop) {
    ++stats_locked().write_backs_avoided;
    dropped_[victim] = true;
    {
      // Behind a queued write of the same record, or that write would make
      // the retired record current again.
      MutexLock lock(wb_mutex_);
      if (wb_queue_.empty()) {
        file_.retire_vector(victim);
      } else {
        wb_queue_.push_back({victim, nullptr});
        ++wb_pushed_;
      }
    }
    PLFOC_AUDIT_EVENT("drop", auditor_.record_drop(victim));
  }
  tier_.evict(victim, stats_locked());
}

std::uint32_t OutOfCoreStore::obtain_slot(std::uint32_t index,
                                          bool need_read) {
  const SlotTier::Claim claim = tier_.claim(index);
  if (claim.victim == kNoVector) return claim.slot;  // cold phase
  const VictimExit exit = victim_exit(claim);
  if (exit == VictimExit::kWriteBack) {
    if (need_read) {
      await_writes(/*for_spare=*/false);
      file_write(claim.victim, tier_.data(claim.slot));
    } else {
      write_behind(claim.victim, claim.slot);
    }
  }
  evict(claim.victim, exit);
  return claim.slot;
}

void OutOfCoreStore::write_behind(std::uint32_t victim, std::uint32_t slot) {
  if (!wb_thread_.joinable()) {
    wb_arena_ = AlignedBuffer(kWriteBehindBuffers * width_);
    if (options_.disk_precision == DiskPrecision::kSingle)
      wb_float_scratch_.resize(width_);
    {
      MutexLock lock(wb_mutex_);
      for (std::size_t k = 0; k < kWriteBehindBuffers; ++k)
        wb_spares_.push_back(wb_arena_.data() + k * width_);
    }
    wb_thread_ = std::thread([this] { writer_loop(); });
  }
  // A throw here leaves the victim resident, as a failed file_write does.
  await_writes(/*for_spare=*/true);
  count_file_write(victim);
  MutexLock lock(wb_mutex_);
  double* spare = wb_spares_.back();
  wb_spares_.pop_back();
  const bool writer_idle = wb_queue_.empty();
  wb_queue_.push_back({victim, tier_.swap_data(slot, spare)});
  ++wb_pushed_;
  if (writer_idle) wb_cv_.notify_all();
}

void OutOfCoreStore::await_writes(bool for_spare) {
  MutexLock lock(wb_mutex_);
  for (;;) {
    if (for_spare ? !wb_spares_.empty() : wb_queue_.empty()) return;
    if (wb_failure_) {
      if (!wb_reported_) report_write_failure();
      // Retry the reported write; it counts again while it is queued.
      QueuedWrite& head = wb_queue_.front();
      if (!head.counted) {
        head.counted = true;
        ++stats_locked().file_writes;
        stats_locked().bytes_written += file_.bytes_per_vector();
      }
      wb_failure_ = nullptr;
      wb_cv_.notify_all();
    }
    wb_cv_.wait(lock);
  }
}

void OutOfCoreStore::raise_write_failure() {
  if (!wb_thread_.joinable()) return;
  MutexLock lock(wb_mutex_);
  if (wb_failure_ && !wb_reported_) report_write_failure();
}

void OutOfCoreStore::report_write_failure() {
  wb_reported_ = true;
  // Counted as the sequential path counts: a write that did not happen is
  // not a file write. A retire never fails, so the head is a write.
  QueuedWrite& head = wb_queue_.front();
  if (head.counted) {
    head.counted = false;
    --stats_locked().file_writes;
    stats_locked().bytes_written -= file_.bytes_per_vector();
#ifdef PLFOC_AUDIT
    auditor_.forget_write(file_.bytes_per_vector());
#endif
  }
  file_.copy_counters(stats_locked());
  std::rethrow_exception(wb_failure_);
}

bool OutOfCoreStore::settle_writes() const {
  MutexLock lock(wb_mutex_);
  const std::uint64_t target = wb_pushed_;
  while (wb_done_ < target && !wb_failure_) wb_cv_.wait(lock);
  return wb_done_ >= target;
}

void OutOfCoreStore::writer_loop() {
  MutexLock lock(wb_mutex_);
  for (;;) {
    while (!wb_stop_ && (wb_queue_.empty() || wb_failure_)) wb_cv_.wait(lock);
    if (wb_stop_) return;
    const QueuedWrite op = wb_queue_.front();
    lock.unlock();
    std::exception_ptr failure;
    try {
      if (op.buffer == nullptr) {
        file_.retire_vector(op.index);
      } else if (options_.disk_precision == DiskPrecision::kDouble) {
        file_.write_vector(op.index, op.buffer);
      } else {
        narrow(op.buffer, wb_float_scratch_.data(), width_);
        file_.write_vector(op.index, wb_float_scratch_.data());
      }
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    if (failure) {
      // Parked: the head stays queued with its buffer until a waiter on
      // the engine thread has thrown it and asks for the retry.
      wb_failure_ = failure;
      wb_reported_ = false;
    } else {
      wb_queue_.pop_front();
      if (op.buffer != nullptr) wb_spares_.push_back(op.buffer);
      ++wb_done_;
    }
    wb_cv_.notify_all();
  }
}

// The async-engine miss path: the victim write-back and the demand read are
// one engine batch, so the device (or the modeled latency) overlaps them
// instead of serialising write-then-read. All slot-table bookkeeping happens
// at completion in the sequential path's order, so stats, audit events and
// failure states are indistinguishable from obtain_slot + file_read.
std::uint32_t OutOfCoreStore::swap_in_overlapped(std::uint32_t index,
                                                 bool verify,
                                                 VerifyResult* out_verify) {
  await_writes(/*for_spare=*/false);
  const SlotTier::Claim claim = tier_.claim(index);
  const VictimExit exit = claim.victim == kNoVector ? VictimExit::kDiscard
                                                    : victim_exit(claim);
  // A free slot, or a victim that leaves unwritten, leaves nothing to
  // overlap.
  if (exit != VictimExit::kWriteBack) {
    if (claim.victim != kNoVector) evict(claim.victim, exit);
    *out_verify = file_read(index, tier_.data(claim.slot), verify);
    return claim.slot;
  }

  // The write-back sources a scratch copy: the demand read is about to reuse
  // the victim's slot buffer while the write is still in flight, and the
  // copy doubles as the undo image if the write-back fails.
  double* slot_data = tier_.data(claim.slot);
  evict_scratch_.assign(slot_data, slot_data + width_);
  const bool single = options_.disk_precision == DiskPrecision::kSingle;
  FileBackend::VectorOp ops[2];
  ops[0].is_write = true;
  ops[0].index = claim.victim;
  if (single) {
    narrow(evict_scratch_.data(), float_scratch_.data(), width_);
    ops[0].buffer = float_scratch_.data();
  } else {
    ops[0].buffer = evict_scratch_.data();
  }
  ops[1].is_write = false;
  ops[1].index = index;
  ops[1].verify = verify;
  if (single) {
    if (swap_float_scratch_.size() != width_)
      swap_float_scratch_.resize(width_);
    ops[1].buffer = swap_float_scratch_.data();
  } else {
    ops[1].buffer = slot_data;
  }
  file_.submit_vector_ops(ops, 2);
  file_.copy_counters(stats_locked());

  // Write-back outcome first — it precedes the read in the sequential order.
  if (!ops[0].ok()) {
    // file_write would have thrown with the victim still fully installed:
    // restore the slot content (the concurrent read may have clobbered it)
    // and leave every table and counter untouched.
    std::copy(evict_scratch_.begin(), evict_scratch_.end(), slot_data);
    FileBackend::throw_op_error(ops[0]);
  }
  count_file_write(claim.victim);
  evict(claim.victim, VictimExit::kWriteBack);

  if (!ops[1].ok()) {
    // Sequential equivalent: file_read threw after the eviction completed —
    // the slot stays free, file_reads/bytes_read untouched.
    FileBackend::throw_op_error(ops[1]);
  }
  if (single) widen(swap_float_scratch_.data(), slot_data, width_);
  ++stats_locked().file_reads;
  stats_locked().bytes_read += file_.bytes_per_vector();
  *out_verify = ops[1].verify_result;
  return claim.slot;
}

double* OutOfCoreStore::do_acquire(std::uint32_t index, AccessMode mode) {
  PLFOC_CHECK(index < count_);
  // MutexLock (not a plain guard): a failed verification releases the lock
  // around the recovery hook, whose child acquires re-enter this method.
  MutexLock lock(mutex_);
  raise_write_failure();
  ++stats_locked().accesses;

  std::uint32_t slot = tier_.slot_of(index);
  [[maybe_unused]] bool read_skipped = false;  // only consumed by audit hooks
  VerifyResult verify;  // stays kOk unless a verified swap-in failed
  bool rebuild = false;
  if (slot != kNoSlot) {
    ++stats_locked().hits;
  } else {
    ++stats_locked().misses;
    if (!touched_[index]) ++stats_locked().cold_misses;
    // Swap the requested vector in — unless this access overwrites it anyway
    // and read skipping applies (Sec. 3.4). First-ever accesses never have
    // meaningful file contents either way (the file is zero-preallocated).
    // A dropped vector's record is stale: a read-mode miss rebuilds it, and
    // a write-mode one has nothing worth reading even without read skipping.
    const bool skip_read =
        mode == AccessMode::kWrite && options_.read_skipping;
    rebuild = dropped_[index] && mode == AccessMode::kRead;
    const bool need_read = !skip_read && !dropped_[index];
    if (need_read && file_.async_io()) {
      slot = swap_in_overlapped(index, mode == AccessMode::kRead, &verify);
    } else {
      slot = obtain_slot(index, need_read);
      if (need_read) {
        verify = file_read(index, tier_.data(slot), mode == AccessMode::kRead);
      } else if (skip_read) {
        ++stats_locked().skipped_reads;
        read_skipped = true;
      }
    }
    tier_.install(index, slot);
  }
  touched_[index] = true;
  ++tier_[slot].pins;
  if (mode == AccessMode::kWrite) {
    tier_[slot].dirty = true;
    rebuildable_[index] = false;  // the caller re-marks a tip–tip write
    dropped_[index] = false;
  }
  tier_.strategy().on_access(index);
  // Rebuilds and self-healing happen with the slot fully installed and
  // pinned: the pin keeps the recomputation target stable while the hook's
  // child acquires recurse through this method with the lock released.
  if (rebuild) rebuild_dropped(lock, index);
  if (!verify.ok()) recover_or_throw(lock, index, verify);
  PLFOC_AUDIT_EVENT("acquire", auditor_.record_acquire(
                                   index, mode == AccessMode::kWrite,
                                   read_skipped));
  PLFOC_AUDIT_TABLE("acquire");
  PLFOC_AUDIT_EVENT("acquire stats", auditor_.check_stats(stats_locked()));
  return tier_.data(slot);
}

void OutOfCoreStore::mark_rebuildable(std::uint32_t index) {
  if (!options_.drop_rebuildable) return;
  PLFOC_CHECK(index < count_);
  MutexLock lock(mutex_);
  const std::uint32_t slot = tier_.slot_of(index);
  PLFOC_CHECK(slot != kNoSlot && tier_[slot].pins > 0 && tier_[slot].dirty);
  rebuildable_[index] = true;
  PLFOC_AUDIT_EVENT("mark", auditor_.record_mark(index));
}

void OutOfCoreStore::round_to_disk_precision(double* data) const {
  if (options_.disk_precision != DiskPrecision::kSingle) return;
  for (std::size_t i = 0; i < width_; ++i)
    data[i] = static_cast<double>(static_cast<float>(data[i]));
}

void OutOfCoreStore::undo_install(std::uint32_t index) {
  PLFOC_CHECK(tier_[tier_.slot_of(index)].pins == 1);
  tier_.detach(index);
  PLFOC_AUDIT_TABLE("undone install");
}

// The body juggles the caller's lock (unlocks around the re-entrant recovery
// hook, relocks before touching the table); do_acquire calls this with
// mutex_ held, which is what the declaration's analysis checks.
std::uint64_t OutOfCoreStore::run_recovery_hook(MutexLock& lock,
                                                std::uint32_t index)
    PLFOC_NO_THREAD_SAFETY_ANALYSIS {
  if (!recovery_hook_) return 0;
  double* dst = tier_.data(tier_.slot_of(index));  // pinned: stable unlocked
  std::uint64_t recomputed = 0;
  lock.unlock();
  try {
    recomputed = recovery_hook_(index, dst);
  } catch (const CancelledError&) {
    // Not a failed recomputation: the caller asked to stop. Unwind like a
    // cancelled acquire, leaving the store as if it had never started.
    lock.lock();
    undo_install(index);
    throw;
  } catch (...) {
    recomputed = 0;  // a throwing hook is an unrecoverable vector
  }
  lock.lock();
  return recomputed;
}

void OutOfCoreStore::rebuild_dropped(MutexLock& lock, std::uint32_t index) {
  const std::uint64_t rebuilt = run_recovery_hook(lock, index);
  // Only a tip–tip write is marked, and its rebuild reads no store vector:
  // it cannot fail short of a marking bug.
  PLFOC_CHECK(rebuilt > 0);
  const std::uint32_t slot = tier_.slot_of(index);
  round_to_disk_precision(tier_.data(slot));
  dropped_[index] = false;
  // The file record is stale: the slot must leave by a write-back or by
  // another drop.
  tier_[slot].dirty = true;
  ++stats_locked().recomputes;
  PLFOC_AUDIT_EVENT("rebuild", auditor_.record_rebuild(index));
}

void OutOfCoreStore::recover_or_throw(MutexLock& lock, std::uint32_t index,
                                      const VerifyResult& verify) {
  const std::uint32_t slot = tier_.slot_of(index);
  const std::uint64_t recomputed = run_recovery_hook(lock, index);
  // Count the whole episode at resolution, under one lock hold: nested
  // acquires inside the hook take stats snapshots mid-flight and must never
  // see the recoveries + unrecovered == failures identity half-updated.
  OocStats& stats = stats_locked();
  ++stats.integrity_failures;
  if (recomputed > 0) {
    ++stats.integrity_recoveries;
    stats.recovery_recomputes += recomputed;
    // The healed content supersedes the corrupt file record; the dirty bit
    // routes it back to the file through the normal write-back path.
    tier_[slot].dirty = true;
    file_.copy_counters(stats);
    round_to_disk_precision(tier_.data(slot));
    PLFOC_AUDIT_EVENT("recovery", auditor_.record_recovery(index, true));
    return;
  }
  ++stats.integrity_unrecovered;
  undo_install(index);
  file_.copy_counters(stats);
  PLFOC_AUDIT_EVENT("recovery", auditor_.record_recovery(index, false));
  PLFOC_AUDIT_EVENT("integrity stats", auditor_.check_stats(stats));
  throw IntegrityError(
      "out-of-core swap-in", index, verify.expected_generation,
      verify.found_generation, verify.injected,
      std::string(verify.status_name()) +
          (recovery_hook_
               ? "; recomputation failed (children unmaterialized during a "
                 "read-skip window, or no free slot)"
               : "; no recovery hook registered"));
}

void OutOfCoreStore::do_release(std::uint32_t index) {
  MutexLock lock(mutex_);
  const std::uint32_t slot = tier_.slot_of(index);
  PLFOC_CHECK(slot != kNoSlot && tier_[slot].pins > 0);
  PLFOC_AUDIT_EVENT("release",
                    auditor_.record_release(index, tier_[slot].pins));
  --tier_[slot].pins;
  PLFOC_AUDIT_TABLE("release");
}

void OutOfCoreStore::flush() {
  MutexLock lock(mutex_);
  await_writes(/*for_spare=*/false);
  if (!file_.async_io()) {
    for (std::uint32_t s = 0; s < slot_count_; ++s) {
      if (tier_[s].vector == kNoVector || !tier_[s].dirty) continue;
      file_write(tier_[s].vector, tier_.data(s));
      tier_[s].dirty = false;
    }
    file_.sync();
    PLFOC_AUDIT_TABLE("flush");
    return;
  }
  // Async engines: write every dirty slot as ONE batch, ordered by vector
  // index so file-adjacent vectors sit next to each other and merge into
  // ranged writes. Bookkeeping in op order; the first failure is thrown
  // after the whole batch is folded (failed slots stay dirty), where the
  // sequential path stops at the first failing slot.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty;  // {vector, slot}
  for (std::uint32_t s = 0; s < slot_count_; ++s)
    if (tier_[s].vector != kNoVector && tier_[s].dirty)
      dirty.push_back({tier_[s].vector, s});
  std::sort(dirty.begin(), dirty.end());
  const bool single = options_.disk_precision == DiskPrecision::kSingle;
  std::vector<FileBackend::VectorOp> ops(dirty.size());
  std::vector<float> wfloat(single ? dirty.size() * width_ : 0);
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    ops[k].is_write = true;
    ops[k].index = dirty[k].first;
    if (single) {
      narrow(tier_.data(dirty[k].second), wfloat.data() + k * width_, width_);
      ops[k].buffer = wfloat.data() + k * width_;
    } else {
      ops[k].buffer = tier_.data(dirty[k].second);
    }
  }
  if (!ops.empty()) file_.submit_vector_ops(ops.data(), ops.size());
  file_.copy_counters(stats_locked());
  const FileBackend::VectorOp* failed = nullptr;
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    const FileBackend::VectorOp& op = ops[k];
    if (!op.ok()) {
      if (failed == nullptr) failed = &op;
      continue;  // stays dirty; a later flush (or eviction) retries
    }
    count_file_write(op.index);
    tier_[dirty[k].second].dirty = false;
  }
  file_.sync();
  PLFOC_AUDIT_TABLE("flush");
  if (failed != nullptr) FileBackend::throw_op_error(*failed);
}

OocStats OutOfCoreStore::stats_snapshot() const {
  MutexLock lock(mutex_);
  (void)settle_writes();
  OocStats out = stats_locked();
  // Overlay the robustness counters straight from the backend atomics: an
  // IoError unwinds past the stats_ mirroring, so the mirror can be stale
  // exactly when a failure report is being assembled.
  file_.copy_counters(out);
  return out;
}

void OutOfCoreStore::reset_stats() {
  MutexLock lock(mutex_);
  (void)settle_writes();
  {
    MutexLock wb_lock(wb_mutex_);
    for (QueuedWrite& queued : wb_queue_) queued.counted = false;
  }
  file_.reset_counters();
  stats_locked() = OocStats{};
#ifdef PLFOC_AUDIT
  auditor_.reset_stats_baseline();
#endif
}

}  // namespace plfoc
