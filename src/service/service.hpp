// The embedded batch-evaluation service core.
//
// The paper's out-of-core layer makes one PLF evaluation fit a fixed RAM
// budget; this subsystem serves *many* evaluations at once under the same
// kind of budget. Architecture (see docs/service.md, docs/serving.md):
//
//   submit() -> ResultCache probe (optional; the tree is canonicalized
//              via Phylo2Vec and keyed once, on the submitting thread, so
//              topologically equivalent queries dedupe; a ready hit is
//              answered here, with no queue slot and no worker —
//              cache/result_cache.hpp)
//           -> FairJobQueue (bounded, backpressure, cancellation,
//              weighted-fair dequeue across tenants — service/tenant.hpp)
//           -> single-flight ResultCache lookup on the stored key
//              (concurrent identical queries coalesce onto one leader)
//           -> Scheduler (admission against the global slot-memory budget
//              plus the tenant's RAM share, degrading jobs instead of
//              rejecting them)
//           -> WorkerPool (each worker builds a private Session per job)
//           -> JobResult (logL + per-job OocStats + timings), merged
//              aggregate stats, drain()/destructor graceful shutdown.
//
// Determinism contract: a job's log likelihood depends only on its spec
// (data, model, seed) — never on worker count, admission order or the
// degradation the scheduler applied — because every backend computes
// bit-identical likelihoods (Sec. 4.1). tests/test_service.cpp enforces
// this across 1/2/8 workers. With the cache enabled the tree is first
// canonicalized (decode(encode(T))), so equivalent rotations are not just
// equal in topology but evaluate bit-identically — which is what makes a
// cached value indistinguishable from a fresh traversal.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "ooc/aio.hpp"
#include "service/job.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "service/worker_pool.hpp"
#include "util/mutex.hpp"

namespace plfoc {

struct ServiceOptions {
  std::size_t workers = 1;
  /// Bounded intake: submit() blocks (try_submit() fails) beyond this many
  /// queued jobs.
  std::size_t queue_capacity = 64;
  /// Aggregate slot-memory budget across all running jobs, in bytes
  /// (0 = unlimited). The scheduler degrades jobs to keep the sum of
  /// admitted slot memory under this.
  std::uint64_t ram_budget_bytes = 0;
  /// Kernel threads per worker (the batch --threads default), applied to
  /// every job whose spec left SessionOptions::threads at 0 (a jobfile line
  /// pins its own count with threads=). Total OS compute threads is roughly
  /// workers × kernel_threads; the --ram-budget admission math is unchanged
  /// because kernel threads share the job's already-pinned working triple
  /// (Sec. 3 invariant) — see docs/parallelism.md.
  unsigned kernel_threads = 1;
  /// Service-wide async I/O engine default (docs/async-io.md), applied to
  /// every job whose spec left SessionOptions::io_engine at kSync — the
  /// same inheritance rule as kernel_threads, with kSync playing the role
  /// of "unset" (a jobfile line pins a non-default engine with io-engine=;
  /// pinning sync under a non-sync service default is not expressible, by
  /// design: the service default exists to move a whole batch off the sync
  /// path at once).
  AioEngineKind io_engine = AioEngineKind::kSync;
  /// Submission-queue depth applied together with the io_engine default.
  unsigned io_depth = 8;
  /// Re-admit a job exactly once after a typed I/O failure (IoError: retry
  /// budget exhausted). The retry reuses the same admission charge and bumps
  /// FaultConfig::nonce so an injected schedule behaves like a real transient
  /// fault (it does not deterministically repeat). JobResult::attempts
  /// reports 2 for re-admitted jobs.
  bool readmit_io_failures = false;
  /// Result-cache capacity in entries; 0 disables caching. With the cache
  /// on, job trees are canonicalized through Phylo2Vec before evaluation
  /// (value-transparent; see the determinism note above) and failed jobs
  /// are never cached.
  std::size_t result_cache_entries = 0;
  std::size_t result_cache_shards = 8;
  /// Per-tenant scheduling policies, applied before the workers start.
  /// Tenants absent from the map run under the unconstrained default.
  std::map<std::string, TenantPolicy> tenants;
  /// Worker watchdog stall budget in seconds (0 = watchdog off). Every
  /// check point a job passes bumps its token's progress counter; when the
  /// counter of a running job stays frozen longer than this budget, the
  /// watchdog trips the token with kWatchdog and the evaluation unwinds at
  /// its next check point exactly like an explicit cancel. This catches
  /// *wedged* jobs (a hung I/O path, a livelocked loop between check
  /// points), not merely slow ones — a slow job keeps bumping progress.
  double watchdog_stall_seconds = 0;
  /// Overload shedding: a popped job that waited in the queue longer than
  /// this many seconds is rejected with kOverloaded instead of run
  /// (0 = off). Under sustained offered load above capacity this bounds
  /// the latency of the jobs that DO run — see bench/service_throughput's
  /// overload phase and docs/robustness.md.
  double shed_queue_seconds = 0;
  /// Invoked outside all service locks after a job reaches a terminal
  /// status through the worker path: kDone, kFailed, and the typed drops
  /// kDeadlineExceeded / kOverloaded / mid-evaluation kCancelled. A cache
  /// hit answered at submit fires it on the submitting thread. Not
  /// fired for queue-removal cancellations (Service::cancel of a
  /// still-queued job, drain flush) — those resolve synchronously at the
  /// call site. The serving tier uses this to push responses without
  /// polling wait().
  std::function<void(const JobResult&)> on_complete;
};

/// How drain() treats still-queued jobs.
enum class DrainMode {
  kComplete,     ///< run everything queued to completion (the default)
  kFlushQueued,  ///< cancel queued-but-unadmitted jobs; finish running ones
};

/// drain(DrainMode) summary: every result plus per-tenant terminal counts,
/// so server shutdown is observable per tenant (docs/serving.md).
struct DrainReport {
  struct TenantCounts {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t expired = 0;  ///< kDeadlineExceeded
    std::uint64_t shed = 0;     ///< kOverloaded
  };
  std::vector<JobResult> results;  ///< submission order
  std::map<std::string, TenantCounts> per_tenant;
  /// Socket front-end only (Server::stop): response frames still sitting in
  /// connection outboxes when the drain-flush window closed, and how many
  /// connections held them. Always 0 for in-process Service::drain calls.
  std::uint64_t unsent_frames = 0;
  std::uint64_t unsent_connections = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions options);
  /// Drains (kComplete): finishes queued jobs, joins workers. Use
  /// drain(DrainMode::kFlushQueued) first to abandon queued work instead.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Enqueue a job; blocks while the queue is full (backpressure). Throws
  /// plfoc::Error after drain() has closed intake. With the cache on, a job
  /// whose key has a ready entry is finished before this returns.
  JobId submit(JobSpec spec);
  /// Non-blocking submit; nullopt when the queue is full (a ready cache hit
  /// is answered even then).
  std::optional<JobId> try_submit(JobSpec spec);

  /// Cancel a job. Still queued: it is removed, never runs, and its result
  /// reads kCancelled immediately. Already picked up by a worker: the
  /// job's cancellation token is tripped (kExplicit) and the evaluation
  /// unwinds cooperatively at its next check point — wait(id) then reports
  /// kCancelled with the store left audit-clean. Returns false only when
  /// the job is already terminal (or the id is unknown) — the pop race
  /// that used to yield a false return now lands in the mid-evaluation
  /// branch. Best-effort at the finish line: a job that completes its
  /// last check point concurrently with the trip still reports kDone.
  bool cancel(JobId id);

  /// Block until `id` reaches a terminal status and return its result.
  JobResult wait(JobId id);

  /// Graceful shutdown: close intake, run every queued job to completion,
  /// join the workers, and return all results in submission order.
  /// Idempotent — later calls return the same snapshot.
  std::vector<JobResult> drain();

  /// Shutdown with a per-tenant report. kComplete matches drain();
  /// kFlushQueued first cancels everything still queued (per-tenant FIFO
  /// flush, results read kCancelled) so shutdown does not wait on a deep
  /// backlog — only on the jobs workers already picked up. Idempotent like
  /// drain(); the first call's mode wins.
  DrainReport drain(DrainMode mode);

  /// High-water mark of concurrently charged slot memory (the acceptance
  /// check against ram_budget_bytes).
  std::uint64_t peak_charged_bytes() const;
  /// All finished jobs' store counters merged (operator+= under the service
  /// mutex — the thread-safe merge path).
  OocStats merged_stats() const;
  /// Result-cache counters (identity-checked); zeros when caching is off.
  CacheStats cache_stats() const;
  /// Per-tenant counters (submitted/completed/failed/cancelled/cache_hits).
  std::map<std::string, TenantStats> tenant_stats() const;
  /// Install or replace one tenant's policy at runtime (server admin path).
  void set_tenant_policy(const std::string& tenant,
                         const TenantPolicy& policy);
  std::size_t queued_jobs() const { return queue_.size(); }
  const ServiceOptions& options() const { return options_; }

 private:
  void worker_loop(std::size_t worker);
  void watchdog_loop();
  JobResult run_job(JobId id, JobSpec spec, const Admission& admission,
                    unsigned attempt);
  /// Check intake, take the next id and default the job's name.
  JobId allocate_id(JobSpec& spec) PLFOC_REQUIRES(mutex_);
  JobId register_job(JobSpec& spec) PLFOC_EXCLUDES(mutex_);
  /// With the cache on, canonicalize `spec.tree` through Phylo2Vec and
  /// return the job's cache key; nullopt when the cache is off or the spec
  /// is uncacheable (it is then evaluated as submitted).
  std::optional<CacheKey> cache_key_for(JobSpec& spec) const;
  /// Answer a job from a ready cache entry on the submitting thread: it is
  /// accepted and finished at once (queue_seconds 0, on_complete called
  /// here) and takes no queue slot. nullopt when there is no ready entry;
  /// the caller then queues the job with its key.
  std::optional<JobId> answer_ready_hit(JobSpec& spec,
                                        const std::optional<CacheKey>& key)
      PLFOC_EXCLUDES(mutex_);
  /// Record a terminal worker-path result and fire the notifications +
  /// on_complete. Consumes `result`. `popped` says whether the job was
  /// dequeued through pop() and so holds an in-flight slot to release via
  /// job_finished(); jobs harvested by the expired-at-pop drop never
  /// held one and pass false.
  void finish_job(JobId id, JobResult result, bool popped);
  /// Build the terminal result for a job dropped without running (expired
  /// at pop, shed, or cancelled while waiting for admission).
  JobResult dropped_result(const FairJobQueue::Pending& pending,
                           JobStatus status, CancelReason reason,
                           double queue_seconds) const;
  /// True when `tenant` may charge `bytes` against its RAM share right
  /// now. A tenant with nothing charged is always admitted (progress
  /// guarantee mirroring the scheduler's sole-job floor).
  bool tenant_share_allows(const std::string& tenant, std::uint64_t bytes)
      PLFOC_REQUIRES(mutex_);

  ServiceOptions options_;
  /// One async-I/O engine shared by every worker session (null under the
  /// kSync default). Built once in the constructor and handed to each job's
  /// SessionOptions: N workers then feed one submission queue / worker pool
  /// instead of spawning N engines. Immutable after construction; the
  /// handle's own mutex serialises whole batches (ooc/aio.hpp).
  std::shared_ptr<AioEngineHandle> shared_aio_;
  TenantRegistry registry_;  ///< internally synchronised (its own Mutex)
  FairJobQueue queue_;       ///< internally synchronised (its own Mutex)
  /// Null when result_cache_entries == 0; internally synchronised.
  std::unique_ptr<ResultCache> cache_;
  mutable Mutex mutex_;
  CondVar admission_cv_;
  CondVar done_cv_;
  Scheduler scheduler_ PLFOC_GUARDED_BY(mutex_);
  /// Slot memory currently charged per tenant (the RAM-share ledger).
  std::map<std::string, std::uint64_t> tenant_charged_
      PLFOC_GUARDED_BY(mutex_);
  /// Ordered: drain() reports by id.
  std::map<JobId, JobResult> results_ PLFOC_GUARDED_BY(mutex_);
  /// Cancellation token of every non-terminal job (created at submit, armed
  /// with the spec's deadline). cancel() trips tokens of running jobs
  /// through this map; entries die with their job.
  std::map<JobId, CancelToken> tokens_ PLFOC_GUARDED_BY(mutex_);
  /// Watchdog ledger: one entry per job currently inside run_job.
  struct RunningWatch {
    CancelToken token;
    std::uint64_t last_progress = 0;
    std::chrono::steady_clock::time_point last_change;
  };
  std::map<JobId, RunningWatch> running_ PLFOC_GUARDED_BY(mutex_);
  OocStats merged_ PLFOC_GUARDED_BY(mutex_);
  JobId next_id_ PLFOC_GUARDED_BY(mutex_) = 1;
  bool drained_ PLFOC_GUARDED_BY(mutex_) = false;
  bool watchdog_stop_ PLFOC_GUARDED_BY(mutex_) = false;
  CondVar watchdog_cv_;
  std::vector<JobResult> drain_snapshot_ PLFOC_GUARDED_BY(mutex_);
  std::unique_ptr<WorkerPool> pool_;  ///< near-last: worker threads die first
  /// Joined explicitly by the destructor (after drain); only scans
  /// running_ under mutex_, so its ordering relative to pool_ is free.
  std::thread watchdog_;
};

}  // namespace plfoc
