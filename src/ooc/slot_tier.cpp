#include "ooc/slot_tier.hpp"

#include <algorithm>
#include <string>

#include "util/checks.hpp"

namespace plfoc {

SlotTier::SlotTier(std::size_t vector_count, std::size_t slot_count,
                   std::size_t width, const StrategyConfig& strategy,
                   const char* all_pinned_error)
    : width_(width),
      arena_(slot_count * width),
      slots_(slot_count),
      vector_slot_(vector_count, kOocNoSlot),
      prefetched_unread_(vector_count, false),
      strategy_(make_strategy(strategy)),
      all_pinned_error_(all_pinned_error) {}

SlotTier::Claim SlotTier::try_claim(std::uint32_t incoming,
                                    const std::vector<bool>* claimed) {
  const auto free_to_take = [&](std::uint32_t s) {
    return claimed == nullptr || !(*claimed)[s];
  };
  Claim claim;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].vector == kOocNoVector && free_to_take(s)) {
      claim.slot = s;
      return claim;
    }
  }
  std::vector<std::uint32_t> candidates;
  candidates.reserve(slots_.size());
  for (std::uint32_t s = 0; s < slots_.size(); ++s)
    if (slots_[s].vector != kOocNoVector && slots_[s].pins == 0 &&
        free_to_take(s))
      candidates.push_back(slots_[s].vector);
  if (candidates.empty()) return claim;
  claim.victim = strategy_->choose_victim(
      {candidates.data(), candidates.size()}, incoming);
  claim.slot = vector_slot_[claim.victim];
  PLFOC_CHECK(claim.slot != kOocNoSlot);
  return claim;
}

SlotTier::Claim SlotTier::claim(std::uint32_t incoming) {
  const Claim claim = try_claim(incoming);
  PLFOC_REQUIRE(claim.slot != kOocNoSlot, all_pinned_error_);
  return claim;
}

void SlotTier::install(std::uint32_t vector, std::uint32_t slot) {
  PLFOC_CHECK(slots_[slot].vector == kOocNoVector);
  vector_slot_[vector] = slot;
  slots_[slot].vector = vector;
  strategy_->on_load(vector);
}

void SlotTier::install_prefetched(std::uint32_t vector, std::uint32_t slot) {
  install(vector, slot);
  strategy_->on_prefetch_install(vector);
  prefetched_unread_[vector] = true;
}

void SlotTier::forget_prefetches() {
  std::fill(prefetched_unread_.begin(), prefetched_unread_.end(), false);
}

void SlotTier::evict(std::uint32_t vector, OocStats& stats) {
  const std::uint32_t slot = vector_slot_[vector];
  PLFOC_CHECK(slot != kOocNoSlot && slots_[slot].vector == vector &&
              slots_[slot].pins == 0);
  ++stats.evictions;
  if (prefetched_unread_[vector]) {
    prefetched_unread_[vector] = false;
    ++stats.prefetch_wasted;  // staged, never acquired, gone again
  }
  detach(vector);
}

void SlotTier::detach(std::uint32_t vector) {
  const std::uint32_t slot = vector_slot_[vector];
  PLFOC_CHECK(slot != kOocNoSlot);
  strategy_->on_evict(vector);
  vector_slot_[vector] = kOocNoSlot;
  slots_[slot] = OocSlot{};
}

// The body juggles the caller's lock (unlocks around the re-entrant recovery
// hook, relocks before touching the table); the stores call this with their
// mutex held, which is what their own analysis checks.
void SlotTier::recover_or_throw(MutexLock& lock,
                                const AncestralStore::RecoveryHook& hook,
                                OocStats& stats, std::uint32_t index,
                                const VerifyResult& verify, const char* op,
                                const std::function<void(bool)>& resolved)
    PLFOC_NO_THREAD_SAFETY_ANALYSIS {
  const std::uint32_t slot = vector_slot_[index];
  std::uint64_t recomputed = 0;
  if (hook) {
    double* dst = data(slot);  // pinned: stable across the unlock
    lock.unlock();
    try {
      recomputed = hook(index, dst);
    } catch (...) {
      recomputed = 0;  // a throwing hook is an unrecoverable vector
    }
    lock.lock();
  }
  // Count the whole episode at resolution, under one lock hold: nested
  // acquires inside the hook take stats snapshots mid-flight and must never
  // see the recoveries + unrecovered == failures identity half-updated.
  ++stats.integrity_failures;
  if (recomputed > 0) {
    ++stats.integrity_recoveries;
    stats.recovery_recomputes += recomputed;
    // The healed content supersedes the corrupt file record; the dirty bit
    // routes it back to the file through the normal write-back path.
    slots_[slot].dirty = true;
    if (resolved) resolved(true);
    return;
  }
  ++stats.integrity_unrecovered;
  // Undo the install: the acquire is failing, so its pin and residency must
  // not outlive this throw (callers never see the lease).
  PLFOC_CHECK(slots_[slot].pins == 1);
  detach(index);
  if (resolved) resolved(false);
  throw IntegrityError(
      op, index, verify.expected_generation, verify.found_generation,
      verify.injected,
      std::string(verify.status_name()) +
          (hook ? "; recomputation failed (children unmaterialized during a "
                  "read-skip window, or no free slot)"
                : "; no recovery hook registered"));
}

}  // namespace plfoc
