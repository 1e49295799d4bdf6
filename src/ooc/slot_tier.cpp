#include "ooc/slot_tier.hpp"

#include <algorithm>

#include "util/checks.hpp"

namespace plfoc {

SlotTier::SlotTier(std::size_t vector_count, std::size_t slot_count,
                   std::size_t width, const StrategyConfig& strategy)
    : arena_(slot_count * width),
      data_(slot_count),
      slots_(slot_count),
      vector_slot_(vector_count, kOocNoSlot),
      prefetched_unread_(vector_count, false),
      strategy_(make_strategy(strategy)) {
  for (std::size_t s = 0; s < slot_count; ++s)
    data_[s] = arena_.data() + s * width;
}

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
  PLFOC_REQUIRE(claim.slot != kOocNoSlot,
                "all RAM slots are pinned; the store needs more slots than "
                "concurrently held leases");
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

}  // namespace plfoc
