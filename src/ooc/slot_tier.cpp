#include "ooc/slot_tier.hpp"

#include "util/checks.hpp"

namespace plfoc {

SlotTier::SlotTier(std::size_t vector_count, std::size_t slot_count,
                   std::size_t width, const StrategyConfig& strategy)
    : arena_(slot_count * width),
      data_(slot_count),
      slots_(slot_count),
      vector_slot_(vector_count, kOocNoSlot),
      strategy_(make_strategy(strategy)) {
  for (std::size_t s = 0; s < slot_count; ++s)
    data_[s] = arena_.data() + s * width;
}

SlotTier::Claim SlotTier::claim(std::uint32_t incoming) {
  Claim claim;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].vector == kOocNoVector) {
      claim.slot = s;
      return claim;
    }
  }
  std::vector<std::uint32_t> candidates;
  candidates.reserve(slots_.size());
  for (std::uint32_t s = 0; s < slots_.size(); ++s)
    if (slots_[s].vector != kOocNoVector && slots_[s].pins == 0)
      candidates.push_back(slots_[s].vector);
  PLFOC_REQUIRE(!candidates.empty(),
                "all RAM slots are pinned; the store needs more slots than "
                "concurrently held leases");
  claim.victim = strategy_->choose_victim(
      {candidates.data(), candidates.size()}, incoming);
  claim.slot = vector_slot_[claim.victim];
  PLFOC_CHECK(claim.slot != kOocNoSlot);
  return claim;
}

void SlotTier::install(std::uint32_t vector, std::uint32_t slot) {
  PLFOC_CHECK(slots_[slot].vector == kOocNoVector);
  vector_slot_[vector] = slot;
  slots_[slot].vector = vector;
  strategy_->on_load(vector);
}

void SlotTier::evict(std::uint32_t vector, OocStats& stats) {
  const std::uint32_t slot = vector_slot_[vector];
  PLFOC_CHECK(slot != kOocNoSlot && slots_[slot].vector == vector &&
              slots_[slot].pins == 0);
  ++stats.evictions;
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
