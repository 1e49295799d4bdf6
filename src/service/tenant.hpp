// Multi-tenant fairness layer of the serving tier (docs/serving.md).
//
// Two pieces, both layered *under* the existing RAM-budget admission
// controller (service/scheduler.hpp) rather than replacing it:
//
//   TenantRegistry — per-tenant policy (DRR weight, max in-flight jobs,
//   RAM share) and monotonic per-tenant counters. Internally synchronized;
//   safe to consult from the queue, the workers and the server thread.
//
//   FairJobQueue — a bounded multi-queue replacing the service's FIFO
//   intake. One FIFO per tenant; dequeue order is weighted deficit round
//   robin: each tenant in the active round gets `weight` pops before the
//   round advances, so under saturation tenants complete work proportional
//   to their weights (the 3:1 acceptance test in bench/service_throughput)
//   while an idle tenant costs nothing and a newly-active one joins the
//   round at the tail with a fresh deficit — no credit hoarding. Tenants
//   at their max_in_flight quota are skipped (not starved: job_finished()
//   re-wakes the poppers); once `capacity` jobs wait in total, push() blocks
//   and try_push() reports kFull, bounding the RAM held by queued specs.
//   flush() supports Service::drain()'s flush mode: close intake and hand
//   back everything still queued with per-tenant counts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "service/job.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace plfoc {

/// Per-tenant scheduling policy. The zero defaults mean "unconstrained":
/// weight 0 is normalised to 1, max_in_flight 0 is unlimited, and
/// ram_share_bytes 0 puts no per-tenant cap on reserved slot memory (the
/// global budget still applies).
struct TenantPolicy {
  unsigned weight = 1;
  std::size_t max_in_flight = 0;
  std::uint64_t ram_share_bytes = 0;
};

/// Monotonic per-tenant counters (merged into the serve-mode stats).
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< kDone results, cache hits included
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;  ///< explicit cancel() + drain-flushed jobs
  std::uint64_t cache_hits = 0;
  std::uint64_t expired = 0;  ///< kDeadlineExceeded (queued or mid-run)
  std::uint64_t shed = 0;     ///< kOverloaded (dropped by overload shedding)
};

class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  void set_policy(const std::string& tenant, const TenantPolicy& policy);
  /// The configured policy, or the unconstrained default for tenants never
  /// configured (unknown tenants are admitted, not rejected).
  TenantPolicy policy(const std::string& tenant) const;

  void record_submitted(const std::string& tenant);
  void record_completed(const std::string& tenant, bool cache_hit);
  void record_failed(const std::string& tenant);
  void record_cancelled(const std::string& tenant);
  void record_expired(const std::string& tenant);
  void record_shed(const std::string& tenant);

  std::map<std::string, TenantStats> stats() const;

 private:
  mutable Mutex mutex_;
  std::map<std::string, TenantPolicy> policies_ PLFOC_GUARDED_BY(mutex_);
  std::map<std::string, TenantStats> stats_ PLFOC_GUARDED_BY(mutex_);
};

enum class PushResult {
  kAccepted,
  kFull,    ///< try_push only: queue at capacity
  kClosed,  ///< close() was called; job not accepted
};

/// Bounded per-tenant queue with weighted deficit-round-robin dequeue:
/// push/try_push/pop/cancel/close, plus job_finished() (quota bookkeeping)
/// and flush().
class FairJobQueue {
 public:
  /// A queued job.
  struct Pending {
    JobId id = 0;
    JobSpec spec;
    std::chrono::steady_clock::time_point enqueued;
    /// The job's result-cache key, computed at submit; set only when the
    /// service caches and the spec is cacheable. `spec.tree` is then
    /// already the canonical decode the key was taken from.
    std::optional<CacheKey> cache_key;
  };

  /// Everything drain(kFlushQueued) pulled out of the queue.
  struct FlushReport {
    std::vector<Pending> jobs;
    std::map<std::string, std::size_t> per_tenant;
  };

  FairJobQueue(std::size_t capacity, TenantRegistry& registry);
  FairJobQueue(const FairJobQueue&) = delete;
  FairJobQueue& operator=(const FairJobQueue&) = delete;

  /// Blocks while the queue is full (backpressure); kAccepted or kClosed.
  PushResult push(Pending job);
  /// Never blocks; kFull when at capacity.
  PushResult try_push(Pending job);

  /// Weighted-fair pop. Blocks while no tenant is eligible (queue empty,
  /// or every non-empty tenant is at its max_in_flight quota) and the
  /// queue is open; nullopt once closed *and* drained. The popped job
  /// counts against its tenant's in-flight quota until job_finished().
  ///
  /// With `expired` non-null, queued jobs whose cancellation token has
  /// tripped (deadline passed, or cancelled through a caller-held token)
  /// are moved into *expired instead of being returned: they consume
  /// neither round deficit nor an in-flight slot — do NOT call
  /// job_finished() for them. If jobs were harvested this call and no
  /// runnable job remains, pop returns nullopt WITHOUT blocking so the
  /// caller can report the drops promptly. Caller contract: process
  /// *expired after every call, and treat nullopt as shutdown only when
  /// *expired did not grow — a nullopt that delivered harvested jobs means
  /// "call pop again".
  std::optional<Pending> pop(std::vector<Pending>* expired = nullptr);

  /// Release one in-flight slot for `tenant` and re-wake poppers that may
  /// have been quota-blocked on it. Call once per popped job, on any
  /// terminal outcome.
  void job_finished(const std::string& tenant);

  /// Remove a still-queued job. False if already popped or never queued.
  bool cancel(JobId id);

  /// Stop intake; queued jobs remain poppable. Idempotent.
  void close();

  /// close() + remove everything still queued (per-tenant FIFO order).
  /// Jobs already popped by workers are unaffected.
  FlushReport flush();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool closed() const;

 private:
  struct TenantQueue {
    std::deque<Pending> jobs;
    unsigned deficit = 0;      ///< pops left in the current round
    std::size_t in_flight = 0;
    bool in_round = false;     ///< queued in round_
  };

  PushResult enqueue_locked(Pending&& job) PLFOC_REQUIRES(mutex_);

  const std::size_t capacity_;
  TenantRegistry& registry_;
  mutable Mutex mutex_;
  CondVar not_full_;
  /// Signalled on push, job_finished and close — every event that can make
  /// a blocked pop() eligible again.
  CondVar dequeueable_;
  std::map<std::string, TenantQueue> tenants_ PLFOC_GUARDED_BY(mutex_);
  /// Round-robin order over tenants with queued jobs.
  std::deque<std::string> round_ PLFOC_GUARDED_BY(mutex_);
  std::size_t size_ PLFOC_GUARDED_BY(mutex_) = 0;
  bool closed_ PLFOC_GUARDED_BY(mutex_) = false;
};

}  // namespace plfoc
