#include "ooc/tiered_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/logging.hpp"

namespace plfoc {

TieredStore::TieredStore(std::size_t count, std::size_t width,
                         TieredStoreOptions options)
    : AncestralStore(count, width),
      options_(std::move(options)),
      fast_(count, std::min(options_.fast_slots, count), width,
            StrategyConfig{options_.fast_policy, count, options_.seed,
                           options_.tree},
            "all fast-tier slots are pinned; increase fast_slots"),
      ram_(count, std::min(options_.ram_slots, count), width,
           StrategyConfig{options_.ram_policy, count, options_.seed + 1,
                          options_.tree},
           "the RAM tier has no slot to spare"),
      bounce_(width),
      touched_(count, false),
      file_(count, width * sizeof(double), options_.file) {
  PLFOC_REQUIRE(options_.fast_slots >= 3,
                "the fast tier needs at least 3 slots (working triple)");
  PLFOC_REQUIRE(options_.ram_slots >= 1, "the RAM tier needs at least 1 slot");
  PLFOC_LOG(kInfo) << "tiered store: " << count << " vectors, fast="
                   << fast_.size() << " ram=" << ram_.size() << " slots";
}

std::size_t TieredStore::fast_slots() const {
  MutexLock lock(mutex_);
  return fast_.size();
}

std::size_t TieredStore::ram_slots() const {
  MutexLock lock(mutex_);
  return ram_.size();
}

TierStats TieredStore::tier_stats() const {
  MutexLock lock(mutex_);
  return tier_stats_;
}

void TieredStore::demote(std::uint32_t slot, std::uint32_t ram_slot,
                         const double* src) {
  const std::uint32_t vector = fast_[slot].vector;
  PLFOC_CHECK(vector != kOocNoVector && fast_[slot].pins == 0);
  std::memcpy(ram_.data(ram_slot), src, width_ * sizeof(double));
  ++tier_stats_.demotions;
  tier_stats_.bytes_transferred += width_ * sizeof(double);
  ram_.install(vector, ram_slot);
  ram_[ram_slot].dirty = fast_[slot].dirty;
  ram_.strategy().on_access(vector);
  fast_.detach(vector);
}

std::uint32_t TieredStore::obtain_fast_slot(std::uint32_t incoming) {
  const SlotTier::Claim fast = fast_.claim(incoming);
  if (fast.victim != kOocNoVector) {
    // RAM-tier occupants are never pinned (pins live at the fast tier), so a
    // full RAM tier always yields a victim.
    const SlotTier::Claim ram = ram_.claim(fast.victim);
    if (ram.victim != kOocNoVector) spill(ram);
    demote(fast.slot, ram.slot, fast_.data(fast.slot));
  }
  return fast.slot;
}

void TieredStore::spill(const SlotTier::Claim& claim) {
  // The paper's slot manager always writes the victim back; we keep dirty
  // tracking here since the tiers multiply traffic.
  if (ram_[claim.slot].dirty) {
    file_.write_vector(claim.victim, ram_.data(claim.slot));
    ++stats_locked().file_writes;
    stats_locked().bytes_written += width_ * sizeof(double);
  }
  ram_.evict(claim.victim, stats_locked());
}

VerifyResult TieredStore::read_into(std::uint32_t index, std::uint32_t slot,
                                    bool verified) {
  VerifyResult verify;
  if (verified)
    verify = file_.read_vector_verified(index, fast_.data(slot));
  else
    file_.read_vector(index, fast_.data(slot));
  ++stats_locked().file_reads;
  stats_locked().bytes_read += width_ * sizeof(double);
  return verify;
}

// Async-engine disk-miss path. The only real write in the fast-miss cascade
// is the dirty RAM victim's spill; when it occurs, it and the demand read
// become one engine batch so the device overlaps them. Every other shape of
// the cascade (free slots, clean victims) runs the sequential steps — with
// each tier's victim drawn exactly once, fast victim first, because the
// replacement strategies' draws (Random consumes RNG state) must happen in
// the sequential order.

std::uint32_t TieredStore::swap_in_overlapped(std::uint32_t index,
                                              bool verified,
                                              VerifyResult* out_verify) {
  const SlotTier::Claim fast = fast_.claim(index);
  const std::uint32_t fslot = fast.slot;
  if (fast.victim == kOocNoVector) {  // a free slot: nothing to overlap
    *out_verify = read_into(index, fslot, verified);
    return fslot;
  }
  const SlotTier::Claim ram = ram_.claim(fast.victim);
  if (ram.victim == kOocNoVector || !ram_[ram.slot].dirty) {
    // No spill write to overlap: the sequential cascade, victims drawn.
    if (ram.victim != kOocNoVector) spill(ram);
    demote(fslot, ram.slot, fast_.data(fslot));
    *out_verify = read_into(index, fslot, verified);
    return fslot;
  }

  // Overlap: the spill write sources the RAM slot directly (its content is
  // not touched until the demotion lands below); the demand read reuses the
  // fast victim's slot, so that content moves to scratch first.
  if (demote_scratch_.size() != width_) demote_scratch_.resize(width_);
  std::memcpy(demote_scratch_.data(), fast_.data(fslot),
              width_ * sizeof(double));
  FileBackend::VectorOp ops[2];
  ops[0].is_write = true;
  ops[0].index = ram.victim;
  ops[0].buffer = ram_.data(ram.slot);
  ops[1].is_write = false;
  ops[1].index = index;
  ops[1].verify = verified;
  ops[1].buffer = fast_.data(fslot);
  file_.submit_vector_ops(ops, 2);

  if (!ops[0].ok()) {
    // The sequential spill throw leaves both tiers fully intact: restore
    // the fast victim's content (the read clobbered its slot) and unwind.
    std::memcpy(fast_.data(fslot), demote_scratch_.data(),
                width_ * sizeof(double));
    FileBackend::throw_op_error(ops[0]);
  }
  ++stats_locked().file_writes;
  stats_locked().bytes_written += width_ * sizeof(double);
  ram_.evict(ram.victim, stats_locked());
  demote(fslot, ram.slot, demote_scratch_.data());  // from the scratch image

  if (!ops[1].ok()) FileBackend::throw_op_error(ops[1]);
  ++stats_locked().file_reads;
  stats_locked().bytes_read += width_ * sizeof(double);
  *out_verify = ops[1].verify_result;
  return fslot;
}

double* TieredStore::do_acquire(std::uint32_t index, AccessMode mode) {
  PLFOC_CHECK(index < count_);
  // MutexLock (not lock_guard semantics): a failed disk-read verification
  // releases the lock around the recovery hook, whose child acquires
  // re-enter this method.
  MutexLock lock(mutex_);
  ++stats_locked().accesses;

  if (const std::uint32_t slot = fast_.slot_of(index); slot != kOocNoSlot) {
    ++stats_locked().hits;
    ++tier_stats_.fast_hits;
    ++fast_[slot].pins;
    if (mode == AccessMode::kWrite) fast_[slot].dirty = true;
    fast_.strategy().on_access(index);
    return fast_.data(slot);
  }

  ++stats_locked().misses;
  if (!touched_[index]) ++stats_locked().cold_misses;

  std::uint32_t fast_slot;
  bool promoted_dirty = false;
  VerifyResult verify;  // stays kOk unless a verified disk read fails
  if (const std::uint32_t ram_slot = ram_.slot_of(index);
      ram_slot != kOocNoSlot) {
    // Stage the promotion through a bounce buffer and release the RAM slot
    // *before* freeing a fast slot: the demoted fast victim can then drop
    // into the just-freed RAM slot instead of spilling a third vector to
    // disk when both tiers are exactly full. Until the promotion lands, the
    // vector lives only in the bounce buffer.
    std::memcpy(bounce_.data(), ram_.data(ram_slot), width_ * sizeof(double));
    promoted_dirty = ram_[ram_slot].dirty;
    ram_.detach(index);
    fast_slot = obtain_fast_slot(index);
    // Promote from host RAM: a PCIe copy, no disk access.
    std::memcpy(fast_.data(fast_slot), bounce_.data(), width_ * sizeof(double));
    ++tier_stats_.promotions;
    ++tier_stats_.ram_hits;
    tier_stats_.bytes_transferred += width_ * sizeof(double);
  } else {
    // Load from disk straight into the fast tier (staging through host RAM
    // is a hardware detail the model need not pay twice for).
    const bool need_read = mode == AccessMode::kRead || !options_.read_skipping;
    // Only kRead misses verify: a paper-mode write-miss read loads bytes
    // that are about to be overwritten, so damage there is never consumed.
    const bool verified = mode == AccessMode::kRead;
    if (need_read && file_.async_io()) {
      fast_slot = swap_in_overlapped(index, verified, &verify);
    } else {
      fast_slot = obtain_fast_slot(index);
      if (need_read)
        verify = read_into(index, fast_slot, verified);
      else
        ++stats_locked().skipped_reads;
    }
    ++tier_stats_.promotions;
    tier_stats_.bytes_transferred += width_ * sizeof(double);
  }

  touched_[index] = true;
  fast_.install(index, fast_slot);
  fast_[fast_slot].pins = 1;
  fast_[fast_slot].dirty = promoted_dirty || mode == AccessMode::kWrite;
  fast_.strategy().on_access(index);
  if (!verify.ok())
    fast_.recover_or_throw(lock, recovery_hook_, stats_locked(), index, verify,
                           "tiered swap-in");
  return fast_.data(fast_slot);
}

void TieredStore::do_release(std::uint32_t index) {
  MutexLock lock(mutex_);
  const std::uint32_t slot = fast_.slot_of(index);
  PLFOC_CHECK(slot != kOocNoSlot && fast_[slot].pins > 0);
  --fast_[slot].pins;
}

void TieredStore::flush() {
  MutexLock lock(mutex_);
  for (SlotTier* tier : {&fast_, &ram_}) {
    for (std::uint32_t s = 0; s < tier->size(); ++s) {
      OocSlot& slot = (*tier)[s];
      if (slot.vector == kOocNoVector || !slot.dirty) continue;
      file_.write_vector(slot.vector, tier->data(s));
      ++stats_locked().file_writes;
      stats_locked().bytes_written += width_ * sizeof(double);
      slot.dirty = false;
    }
  }
  file_.sync();
}

OocStats TieredStore::stats_snapshot() const {
  MutexLock lock(mutex_);
  OocStats out = stats_locked();
  file_.copy_counters(out);
  return out;
}

void TieredStore::reset_stats() {
  MutexLock lock(mutex_);
  file_.reset_counters();
  stats_locked() = OocStats{};
  tier_stats_ = TierStats{};
}

}  // namespace plfoc
