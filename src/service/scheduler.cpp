#include "service/scheduler.hpp"

#include <algorithm>

namespace plfoc {

JobDemand JobDemand::from_spec(const JobSpec& spec) {
  JobDemand demand;
  demand.memory.num_taxa = spec.input_alignment().num_taxa();
  demand.memory.num_sites = spec.input_alignment().num_sites();
  demand.memory.states = spec.model.states();
  demand.memory.categories = spec.session.categories;
  demand.backend = spec.session.backend;
  demand.ram_fraction = spec.session.ram_fraction;
  demand.ram_budget_bytes = spec.session.ram_budget_bytes;
  demand.page_bytes = spec.session.page_bytes;
  return demand;
}

std::uint64_t JobDemand::desired_bytes() const {
  switch (backend) {
    case Backend::kInRam:
      return memory.ancestral_bytes();
    case Backend::kOutOfCore:
      if (ram_fraction > 0.0)
        return memory.ooc_bytes_for_fraction(ram_fraction);
      // Charge the requested cap, not the slot-quantised estimate: the
      // store's real width (post-compression) may differ from the estimate,
      // but its slots never exceed the byte budget it was given. Its
      // write-behind buffers come on top.
      return ram_budget_bytes + memory.write_behind_bytes();
    case Backend::kPaged:
      return ram_budget_bytes;
    case Backend::kMmap:
      return 0;  // OS page cache; not slot memory this service manages
  }
  return 0;
}

std::uint64_t JobDemand::minimum_bytes() const {
  switch (backend) {
    case Backend::kPaged:
      return memory.min_paged_bytes(page_bytes);
    case Backend::kMmap:
      return 0;
    default:
      return memory.min_ooc_bytes();
  }
}

namespace {

/// Grant `bytes` in total: the slot budget a degraded job's Session sizes
/// its store from leaves room for the out-of-core write-behind buffers.
void grant(Admission& verdict, const JobDemand& demand, std::uint64_t bytes) {
  verdict.ram_fraction = 0.0;
  verdict.ram_budget_bytes = bytes;
  if (demand.backend != Backend::kPaged) {
    verdict.backend = Backend::kOutOfCore;
    verdict.ram_budget_bytes -= demand.memory.write_behind_bytes();
  }
}

}  // namespace

Admission Scheduler::decide(const JobDemand& demand) const {
  Admission verdict;
  verdict.backend = demand.backend;
  verdict.ram_fraction = demand.ram_fraction;
  verdict.ram_budget_bytes = demand.ram_budget_bytes;

  const std::uint64_t desired = demand.desired_bytes();
  if (budget_ == 0) {  // unlimited: charge for accounting only
    verdict.admit = true;
    verdict.charged_bytes = desired;
    return verdict;
  }

  const std::uint64_t available = budget_ > in_use_ ? budget_ - in_use_ : 0;
  if (desired <= available) {
    verdict.admit = true;
    verdict.charged_bytes = desired;
    return verdict;
  }

  // Degrade rather than reject: grant whatever fits, as a byte budget.
  const std::uint64_t minimum = demand.minimum_bytes();
  if (minimum <= available) {
    verdict.admit = true;
    verdict.degraded = true;
    // A store never allocates more than all-vectors-resident, so charging
    // past ancestral_bytes() would only starve later admissions.
    verdict.charged_bytes =
        std::min(available, demand.memory.ancestral_bytes());
    grant(verdict, demand, available);
    return verdict;
  }

  // Below the backend's floor. If anything is running its release will free
  // memory — wait. Alone, waiting would deadlock: admit at the floor and
  // report the overrun through charged_bytes.
  if (running_ > 0) return verdict;
  verdict.admit = true;
  verdict.degraded = true;
  verdict.charged_bytes = minimum;
  grant(verdict, demand, minimum);
  return verdict;
}

}  // namespace plfoc
