// Memory-budget admission control for the batch-evaluation service.
//
// One global `--ram-budget` covers the slot memory of *all* concurrently
// running jobs; the Sec. 3.1 memory model prices each job's demand before
// its Session exists. Admission never rejects a job — the whole point of
// the out-of-core layer is that any evaluation fits any budget — it degrades
// instead, in this order:
//
//   1. the requested configuration fits the remaining budget: admit as-is;
//   2. shrink: grant the job an out-of-core store budgeted at exactly the
//      remaining bytes (>= the 3-slot minimum), whatever backend it asked
//      for (paged jobs shrink within the paged backend). An out-of-core
//      grant's ram_budget_bytes is its slot budget: the remaining bytes less
//      the store's write-behind buffers, so the grant bounds its allocation;
//   3. remaining bytes below the backend's floor but other jobs are
//      running: wait — their release will wake us;
//   4. alone and still over budget: admit at the backend's floor (3
//      out-of-core slots / the paged working-set minimum). charged_bytes
//      then exceeds the budget; it is reported, never hidden.
//
// Degradation changes I/O behaviour only. Log likelihoods are bit-identical
// across backends and slot counts (the paper's Sec. 4.1 correctness
// property), which is why the scheduler may degrade freely without breaking
// the service's determinism contract.
//
// The Scheduler itself is deliberately unsynchronised: decide() is a pure
// function of the demand and the current ledger, and the Service calls
// decide/reserve/release under its own mutex. That keeps the admission math
// unit-testable without threads.
#pragma once

#include <cstdint>

#include "likelihood/memory_model.hpp"
#include "service/job.hpp"
#include "util/checks.hpp"

namespace plfoc {

/// A job's slot-memory demand, derived from its spec before the Session is
/// built. `memory.num_sites` is the uncompressed site count — a conservative
/// upper bound on the post-compression pattern count, so every charge is an
/// upper bound on the store's actual allocation.
struct JobDemand {
  MemoryModel memory;
  Backend backend = Backend::kInRam;
  double ram_fraction = 0.0;
  std::uint64_t ram_budget_bytes = 0;
  std::size_t page_bytes = 4096;

  static JobDemand from_spec(const JobSpec& spec);

  /// Bytes the requested configuration would pin in RAM.
  std::uint64_t desired_bytes() const;
  /// Bytes of the smallest configuration the backend family can run with.
  std::uint64_t minimum_bytes() const;
};

/// The scheduler's verdict for one job.
struct Admission {
  bool admit = false;     ///< false: wait until running jobs release memory
  bool degraded = false;  ///< memory-limit fields differ from the request
  Backend backend = Backend::kInRam;
  double ram_fraction = 0.0;
  std::uint64_t ram_budget_bytes = 0;
  std::uint64_t charged_bytes = 0;  ///< ledger charge while the job runs
};

class Scheduler {
 public:
  /// `global_budget_bytes` == 0 means unlimited (admit everything as-is).
  explicit Scheduler(std::uint64_t global_budget_bytes)
      : budget_(global_budget_bytes) {}

  /// Decide admission for `demand` against the current ledger. Pure: does
  /// not mutate the ledger — the caller applies the verdict via reserve().
  Admission decide(const JobDemand& demand) const;

  /// Charge an admitted job's bytes; pairs with exactly one release().
  void reserve(std::uint64_t bytes) {
    in_use_ += bytes;
    ++running_;
    if (in_use_ > peak_) peak_ = in_use_;
  }
  void release(std::uint64_t bytes) {
    PLFOC_DCHECK(running_ > 0 && in_use_ >= bytes);
    in_use_ -= bytes;
    --running_;
  }

  std::uint64_t budget() const { return budget_; }
  std::uint64_t in_use() const { return in_use_; }
  /// High-water mark of concurrent charges — the acceptance check that the
  /// service respected its budget.
  std::uint64_t peak_bytes() const { return peak_; }
  std::size_t running() const { return running_; }

 private:
  std::uint64_t budget_;
  std::uint64_t in_use_ = 0;
  std::uint64_t peak_ = 0;
  std::size_t running_ = 0;
};

}  // namespace plfoc
