#include "service/service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "tree/phylo2vec.hpp"
#include "util/checks.hpp"
#include "util/timer.hpp"

namespace plfoc {
namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

bool terminal(JobStatus status) {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kCancelled ||
         status == JobStatus::kDeadlineExceeded ||
         status == JobStatus::kOverloaded;
}

/// Map a tripped token's reason to the job's terminal status: deadlines get
/// their own typed status, everything else (explicit, watchdog) is a
/// cancellation.
JobStatus status_for_reason(CancelReason reason) {
  return reason == CancelReason::kDeadline ? JobStatus::kDeadlineExceeded
                                           : JobStatus::kCancelled;
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity, registry_),
      scheduler_(options_.ram_budget_bytes) {
  // One engine for the whole service: worker sessions adopt it instead of
  // each spawning a private submission/completion pool (second-wave sharing,
  // docs/async-io.md). Jobs that pin a different engine/depth — or carry
  // fault injection — fail the backend's adoption check and transparently
  // fall back to a private engine.
  shared_aio_ = make_shared_aio_engine(options_.io_engine, options_.io_depth);
  for (const auto& [tenant, policy] : options_.tenants)
    registry_.set_policy(tenant, policy);
  if (options_.result_cache_entries > 0) {
    cache_ = std::make_unique<ResultCache>(options_.result_cache_entries,
                                           options_.result_cache_shards);
  }
  pool_ = std::make_unique<WorkerPool>(
      options_.workers, [this](std::size_t worker) { worker_loop(worker); });
  if (options_.watchdog_stall_seconds > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

Service::~Service() {
  drain();
  {
    MutexLock lock(mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

JobId Service::allocate_id(JobSpec& spec) {
  PLFOC_REQUIRE(!queue_.closed(), "service intake is closed (drained)");
  const JobId id = next_id_++;
  if (spec.name.empty()) spec.name = "job-" + std::to_string(id);
  return id;
}

JobId Service::register_job(JobSpec& spec) {
  MutexLock lock(mutex_);
  const JobId id = allocate_id(spec);
  // Every accepted job gets a live token (a caller-supplied one is kept):
  // it is what cancel() trips for running jobs and what the watchdog
  // monitors. The relative deadline is armed here, at accept time, so time
  // spent queued counts against it — that is the "end-to-end" in
  // end-to-end deadlines.
  if (!spec.session.cancel.valid()) spec.session.cancel = CancelToken::make();
  if (spec.deadline_seconds > 0)
    spec.session.cancel.set_deadline_after(spec.deadline_seconds);
  JobResult placeholder;
  placeholder.id = id;
  placeholder.name = spec.name;
  placeholder.tenant = spec.tenant;
  placeholder.status = JobStatus::kQueued;
  results_.emplace(id, std::move(placeholder));
  tokens_.emplace(id, spec.session.cancel);
  return id;
}

std::optional<CacheKey> Service::cache_key_for(JobSpec& spec) const {
  if (cache_ == nullptr) return std::nullopt;
  // Encoding canonicalizes the tree, so equivalent rotations share a key
  // AND evaluate bit-identically on a miss.
  try {
    const Phylo2Vec encoded = phylo2vec_encode(spec.tree);
    const CacheKey key = plf_cache_key(
        spec.shared ? spec.shared->key_prefix
                    : plf_cache_key_prefix(spec.alignment),
        encoded, spec.model, spec.session);
    spec.tree = phylo2vec_decode(encoded);
    return key;
  } catch (const Error&) {
    return std::nullopt;  // uncacheable spec: evaluate as-is
  }
}

std::optional<JobId> Service::answer_ready_hit(
    JobSpec& spec, const std::optional<CacheKey>& key) {
  // A closed intake refuses the job in register_job and a tripped token
  // drops it at pop, exactly as for a miss.
  if (!key.has_value() || queue_.closed() ||
      spec.session.cancel.cancelled_or_expired())
    return std::nullopt;
  Timer probe_timer;
  const std::optional<double> hit = cache_->lookup_ready(*key);
  if (!hit.has_value()) return std::nullopt;
  JobResult result;
  result.tenant = spec.tenant;
  result.status = JobStatus::kDone;
  result.log_likelihood = *hit;
  result.cache_hit = true;
  result.admitted_backend = spec.session.backend;
  {
    // Accepted and finished in one critical section, so a concurrent
    // drain() sees the job either done or never accepted.
    MutexLock lock(mutex_);
    result.id = allocate_id(spec);
    result.name = spec.name;
    result.wall_seconds = probe_timer.seconds();
    results_.emplace(result.id, result);
  }
  const JobId id = result.id;
  registry_.record_submitted(spec.tenant);
  finish_job(id, std::move(result), /*popped=*/false);
  return id;
}

JobId Service::submit(JobSpec spec) {
  const std::optional<CacheKey> key = cache_key_for(spec);
  if (const std::optional<JobId> hit = answer_ready_hit(spec, key)) return *hit;
  const std::string tenant = spec.tenant;
  const JobId id = register_job(spec);
  const PushResult pushed = queue_.push(
      {id, std::move(spec), std::chrono::steady_clock::now(), key});
  if (pushed == PushResult::kClosed) {
    // drain() raced us between the check and the push: the job never ran.
    {
      MutexLock lock(mutex_);
      results_[id].status = JobStatus::kCancelled;
      tokens_.erase(id);
    }
    done_cv_.notify_all();
    throw Error("service intake closed while submitting job " +
                std::to_string(id));
  }
  registry_.record_submitted(tenant);
  return id;
}

std::optional<JobId> Service::try_submit(JobSpec spec) {
  const std::optional<CacheKey> key = cache_key_for(spec);
  if (const std::optional<JobId> hit = answer_ready_hit(spec, key)) return hit;
  const std::string tenant = spec.tenant;
  const JobId id = register_job(spec);
  const PushResult pushed = queue_.try_push(
      {id, std::move(spec), std::chrono::steady_clock::now(), key});
  if (pushed == PushResult::kAccepted) {
    registry_.record_submitted(tenant);
    return id;
  }
  {
    MutexLock lock(mutex_);
    if (pushed == PushResult::kFull) {
      results_.erase(id);  // backpressure: pretend the submit never happened
    } else {
      results_[id].status = JobStatus::kCancelled;
    }
    tokens_.erase(id);
  }
  if (pushed == PushResult::kClosed) done_cv_.notify_all();
  return std::nullopt;
}

bool Service::cancel(JobId id) {
  if (queue_.cancel(id)) {
    std::string tenant;
    {
      MutexLock lock(mutex_);
      const auto it = results_.find(id);
      PLFOC_CHECK(it != results_.end());
      it->second.status = JobStatus::kCancelled;
      it->second.cancel_reason = CancelReason::kExplicit;
      tenant = it->second.tenant;
      tokens_.erase(id);
    }
    registry_.record_cancelled(tenant);
    done_cv_.notify_all();
    return true;
  }
  // Not in the queue: a worker popped it (or is popping it right now).
  // Trip the token so the evaluation unwinds at its next check point —
  // this closes the submit/pop race that used to make cancel() return
  // false for a job that had produced nothing yet.
  CancelToken token;
  {
    MutexLock lock(mutex_);
    const auto it = results_.find(id);
    if (it == results_.end() || terminal(it->second.status)) return false;
    const auto entry = tokens_.find(id);
    if (entry == tokens_.end()) return false;
    token = entry->second;
  }
  token.cancel(CancelReason::kExplicit);
  return true;
}

JobResult Service::wait(JobId id) {
  MutexLock lock(mutex_);
  const auto it = results_.find(id);
  PLFOC_REQUIRE(it != results_.end(), "unknown job id");
  while (!terminal(it->second.status)) done_cv_.wait(lock);
  return it->second;
}

std::vector<JobResult> Service::drain() {
  {
    MutexLock lock(mutex_);
    if (drained_) return drain_snapshot_;
  }
  queue_.close();
  pool_->join();
  MutexLock lock(mutex_);
  if (!drained_) {
    drained_ = true;
    drain_snapshot_.reserve(results_.size());
    for (auto& [id, result] : results_) {
      // Jobs cancelled by queue close between submit and push stay
      // kCancelled; everything popped by a worker is terminal by now.
      if (result.status == JobStatus::kQueued)
        result.status = JobStatus::kCancelled;
      drain_snapshot_.push_back(result);
    }
    tokens_.clear();  // workers are gone; nothing left to trip
  }
  return drain_snapshot_;
}

DrainReport Service::drain(DrainMode mode) {
  if (mode == DrainMode::kFlushQueued) {
    // Pull everything still queued out before closing; the flush marks the
    // queue closed, so workers finish only what they already popped. On a
    // second call the queue is empty and this is a no-op — drain() below
    // returns the first call's snapshot either way.
    FairJobQueue::FlushReport flushed = queue_.flush();
    if (!flushed.jobs.empty()) {
      {
        MutexLock lock(mutex_);
        for (const FairJobQueue::Pending& pending : flushed.jobs) {
          results_[pending.id].status = JobStatus::kCancelled;
          tokens_.erase(pending.id);
        }
      }
      for (const FairJobQueue::Pending& pending : flushed.jobs)
        registry_.record_cancelled(pending.spec.tenant);
      done_cv_.notify_all();
    }
  }
  DrainReport report;
  report.results = drain();
  for (const JobResult& result : report.results) {
    DrainReport::TenantCounts& counts = report.per_tenant[result.tenant];
    switch (result.status) {
      case JobStatus::kDone: ++counts.completed; break;
      case JobStatus::kFailed: ++counts.failed; break;
      case JobStatus::kCancelled: ++counts.cancelled; break;
      case JobStatus::kDeadlineExceeded: ++counts.expired; break;
      case JobStatus::kOverloaded: ++counts.shed; break;
      default: break;
    }
  }
  return report;
}

std::uint64_t Service::peak_charged_bytes() const {
  MutexLock lock(mutex_);
  return scheduler_.peak_bytes();
}

OocStats Service::merged_stats() const {
  MutexLock lock(mutex_);
  return merged_;
}

CacheStats Service::cache_stats() const {
  return cache_ ? cache_->stats() : CacheStats{};
}

std::map<std::string, TenantStats> Service::tenant_stats() const {
  return registry_.stats();
}

void Service::set_tenant_policy(const std::string& tenant,
                                const TenantPolicy& policy) {
  registry_.set_policy(tenant, policy);
}

bool Service::tenant_share_allows(const std::string& tenant,
                                  std::uint64_t bytes) {
  const std::uint64_t share = registry_.policy(tenant).ram_share_bytes;
  if (share == 0) return true;
  const auto it = tenant_charged_.find(tenant);
  const std::uint64_t charged = it == tenant_charged_.end() ? 0 : it->second;
  // Progress guarantee: a tenant with nothing running may always start one
  // job even if it alone exceeds the share (mirrors the scheduler's
  // sole-job floor — shares throttle concurrency, they never starve).
  if (charged == 0) return true;
  return charged + bytes <= share;
}

void Service::finish_job(JobId id, JobResult result, bool popped) {
  const std::string tenant = result.tenant;
  const JobStatus status = result.status;
  const bool cache_hit = result.cache_hit;
  JobResult callback_copy;
  const bool has_callback = static_cast<bool>(options_.on_complete);
  {
    MutexLock lock(mutex_);
    merged_ += result.stats;
    results_[id] = std::move(result);
    if (has_callback) callback_copy = results_[id];
    running_.erase(id);
    tokens_.erase(id);
  }
  switch (status) {
    case JobStatus::kDone:
      registry_.record_completed(tenant, cache_hit);
      break;
    case JobStatus::kCancelled:
      registry_.record_cancelled(tenant);
      break;
    case JobStatus::kDeadlineExceeded:
      registry_.record_expired(tenant);
      break;
    case JobStatus::kOverloaded:
      registry_.record_shed(tenant);
      break;
    default:
      registry_.record_failed(tenant);
      break;
  }
  // Jobs harvested by the expired-at-pop drop never held an in-flight
  // slot, so releasing one for them would trip the queue's accounting.
  if (popped) queue_.job_finished(tenant);
  admission_cv_.notify_all();
  done_cv_.notify_all();
  if (has_callback) options_.on_complete(callback_copy);
}

JobResult Service::dropped_result(const FairJobQueue::Pending& pending,
                                  JobStatus status, CancelReason reason,
                                  double queue_seconds) const {
  JobResult result;
  result.id = pending.id;
  result.name = pending.spec.name;
  result.tenant = pending.spec.tenant;
  result.status = status;
  result.cancel_reason = reason;
  result.admitted_backend = pending.spec.session.backend;
  result.queue_seconds = queue_seconds;
  result.error = status == JobStatus::kOverloaded
                     ? "shed: queue wait exceeded the overload budget"
                     : std::string("dropped before evaluation: ") +
                           cancel_reason_name(reason);
  return result;
}

void Service::watchdog_loop() {
  // Scan at a quarter of the budget (floored) so a frozen job is caught
  // within ~1.25 stall budgets of freezing.
  const double interval = std::max(0.01, options_.watchdog_stall_seconds / 4);
  MutexLock lock(mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, interval);
    if (watchdog_stop_) break;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, watch] : running_) {
      const std::uint64_t progress = watch.token.progress();
      if (progress != watch.last_progress) {
        watch.last_progress = progress;
        watch.last_change = now;
        continue;
      }
      if (std::chrono::duration<double>(now - watch.last_change).count() >
          options_.watchdog_stall_seconds)
        watch.token.cancel(CancelReason::kWatchdog);
    }
  }
}

void Service::worker_loop(std::size_t /*worker*/) {
  std::vector<FairJobQueue::Pending> expired;
  for (;;) {
    expired.clear();
    std::optional<FairJobQueue::Pending> pending = queue_.pop(&expired);
    // Jobs the queue dropped because their token tripped while queued:
    // report them typed without ever building a Session. They hold no
    // in-flight slot (popped=false).
    for (const FairJobQueue::Pending& dropped : expired) {
      const CancelReason reason = dropped.spec.session.cancel.reason();
      finish_job(dropped.id,
                 dropped_result(dropped, status_for_reason(reason), reason,
                                seconds_between(
                                    dropped.enqueued,
                                    std::chrono::steady_clock::now())),
                 /*popped=*/false);
    }
    if (!pending.has_value()) {
      // nullopt with harvested jobs is pop's "report these now" early
      // return; nullopt with none is closed-and-drained.
      if (!expired.empty()) continue;
      break;
    }
    const auto popped = std::chrono::steady_clock::now();
    const std::string tenant = pending->spec.tenant;
    const CancelToken cancel = pending->spec.session.cancel;
    const double queue_wait = seconds_between(pending->enqueued, popped);
    {
      MutexLock lock(mutex_);
      results_[pending->id].status = JobStatus::kRunning;
    }

    // Overload shedding: under sustained offered load above capacity the
    // queue wait grows without bound; beyond the budget, running this job
    // would burn a worker on an answer nobody is waiting for anymore.
    if (options_.shed_queue_seconds > 0 &&
        queue_wait > options_.shed_queue_seconds) {
      finish_job(pending->id,
                 dropped_result(*pending, JobStatus::kOverloaded,
                                CancelReason::kNone, queue_wait),
                 /*popped=*/true);
      continue;
    }
    // A token tripped between the queue's harvest scan and here (e.g. a
    // cancel() racing the pop) drops the job before the cache probe.
    if (cancel.cancelled_or_expired()) {
      const CancelReason reason = cancel.reason();
      finish_job(pending->id,
                 dropped_result(*pending, status_for_reason(reason), reason,
                                queue_wait),
                 /*popped=*/true);
      continue;
    }

    // Result-cache probe on the key submit computed. The lookup is
    // single-flight: a concurrent identical job blocks here and coalesces
    // onto the leader's result instead of re-evaluating.
    const std::optional<CacheKey>& cache_key = pending->cache_key;
    if (cache_key.has_value()) {
      Timer probe_timer;
      if (const std::optional<double> hit = cache_->lookup(*cache_key)) {
        JobResult result;
        result.id = pending->id;
        result.name = pending->spec.name;
        result.tenant = tenant;
        result.status = JobStatus::kDone;
        result.log_likelihood = *hit;
        result.cache_hit = true;
        result.admitted_backend = pending->spec.session.backend;
        result.wall_seconds = probe_timer.seconds();
        result.queue_seconds = queue_wait;
        finish_job(pending->id, std::move(result), /*popped=*/true);
        continue;
      }
      // Miss: this worker is now the leader for the key and must publish
      // or abandon below — never neither, or waiters would block forever.
    }

    const JobDemand demand = JobDemand::from_spec(pending->spec);
    Admission admission;
    bool admitted = true;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop (not a predicate lambda): the admission decision
      // reads scheduler_ state guarded by mutex_, and the analysis checks
      // loop bodies but not lambda captures — see util/mutex.hpp. The wait
      // is timed because nothing signals admission_cv_ when a token trips:
      // a cancelled or deadline-expired job must not wedge here.
      for (;;) {
        if (cancel.cancelled_or_expired()) {
          admitted = false;
          break;
        }
        admission = scheduler_.decide(demand);
        if (admission.admit &&
            tenant_share_allows(tenant, admission.charged_bytes))
          break;
        admission_cv_.wait_for(lock, 0.05);
      }
      if (admitted) {
        scheduler_.reserve(admission.charged_bytes);
        tenant_charged_[tenant] += admission.charged_bytes;
      }
    }
    if (!admitted) {
      // Cache-miss leaders must abandon their key or coalesced waiters
      // block forever (the publish-or-abandon contract).
      if (cache_key.has_value()) cache_->abandon(*cache_key);
      const CancelReason reason = cancel.reason();
      finish_job(pending->id,
                 dropped_result(*pending, status_for_reason(reason), reason,
                                queue_wait),
                 /*popped=*/true);
      continue;
    }
    // Register with the watchdog for the whole run_job span (admission is
    // already behind us — an admission wait is not a stall, the timed loop
    // above owns that phase); finish_job deregisters.
    if (options_.watchdog_stall_seconds > 0) {
      MutexLock lock(mutex_);
      running_[pending->id] = RunningWatch{cancel, cancel.progress(),
                                           std::chrono::steady_clock::now()};
    }
    // Copy the spec up front when re-admission is on: run_job consumes it.
    std::optional<JobSpec> retry_spec;
    if (options_.readmit_io_failures) retry_spec = pending->spec;
    JobResult result =
        run_job(pending->id, std::move(pending->spec), admission, 1);
    if ((result.io_failure || result.integrity_failure) &&
        retry_spec.has_value()) {
      // One re-admission under the same admission charge. Bumping the nonce
      // re-keys an injected fault schedule, modelling a transient fault (or
      // corruption burst) that does not recur; a deterministic failure
      // (rate=1 / flip=1) fails again and the second, final result is what
      // the job reports.
      retry_spec->session.faults.nonce += 1;
      const std::string first_report = result.fault_report;
      result = run_job(pending->id, std::move(*retry_spec), admission, 2);
      if ((result.io_failure || result.integrity_failure) &&
          !first_report.empty())
        result.fault_report = "attempt 1: " + first_report +
                              "\nattempt 2: " + result.fault_report;
    }
    if (cache_key.has_value()) {
      // Leader resolution: successful values are published for the
      // coalesced waiters, failures are abandoned so the key stays
      // uncached (IoError/IntegrityError must not poison the cache).
      if (result.status == JobStatus::kDone) {
        cache_->publish(*cache_key, result.log_likelihood);
      } else {
        cache_->abandon(*cache_key);
      }
    }
    result.tenant = tenant;
    result.queue_seconds = queue_wait;
    {
      MutexLock lock(mutex_);
      scheduler_.release(admission.charged_bytes);
      std::uint64_t& charged = tenant_charged_[tenant];
      PLFOC_CHECK(charged >= admission.charged_bytes);
      charged -= admission.charged_bytes;
    }
    finish_job(pending->id, std::move(result), /*popped=*/true);
  }
}

JobResult Service::run_job(JobId id, JobSpec spec, const Admission& admission,
                           unsigned attempt) {
  JobResult result;
  result.id = id;
  result.name = spec.name;
  result.tenant = spec.tenant;
  result.admitted_backend = admission.backend;
  result.charged_bytes = admission.charged_bytes;
  result.degraded = admission.degraded;
  result.attempts = attempt;
  Timer timer;
  // Outside the try so the IoError handler can still read the store's
  // counters for the fault report.
  std::unique_ptr<Session> session;
  try {
    // Surface an inconsistent *request* even when degradation would have
    // papered over it with a valid admitted configuration.
    spec.session.validate();
    SessionOptions session_options = spec.session;
    session_options.backend = admission.backend;
    session_options.ram_fraction = admission.ram_fraction;
    session_options.ram_budget_bytes = admission.ram_budget_bytes;
    // threads == 0 means the job did not pin a kernel-thread count; give it
    // the service-wide default (kernel threads never change the job's slot
    // memory demand, so admission needs no adjustment).
    if (session_options.threads == 0)
      session_options.threads = options_.kernel_threads;
    // io_engine == kSync means the job did not pin an engine; give it the
    // service-wide default (engine choice never changes the logL, so the
    // admission math is untouched — see docs/async-io.md).
    if (session_options.io_engine == AioEngineKind::kSync &&
        options_.io_engine != AioEngineKind::kSync) {
      session_options.io_engine = options_.io_engine;
      session_options.io_depth = options_.io_depth;
    }
    // Offer the service-wide engine to every job; the backend adopts it only
    // when the job's resolved kind/depth match and nothing (fault injection,
    // a permuted deterministic schedule) requires a private engine.
    session_options.shared_aio_engine = shared_aio_;
    // A shared spec's pattern alignment is what a compressing Session would
    // have built from its data; the pointer keeps the whole SharedAlignment
    // alive for the Session's lifetime.
    std::shared_ptr<const Alignment> alignment =
        spec.shared == nullptr
            ? std::make_shared<const Alignment>(std::move(spec.alignment))
            : std::shared_ptr<const Alignment>(
                  spec.shared, spec.session.compress_patterns
                                   ? &spec.shared->patterns
                                   : &spec.shared->alignment);
    session = std::make_unique<Session>(
        std::move(alignment), std::move(spec.tree), std::move(spec.model),
        std::move(session_options));
    const EvalResult eval = session->evaluate();
    result.log_likelihood = eval.log_likelihood;
    result.stats = eval.stats;
    result.status = JobStatus::kDone;
  } catch (const CancelledError& error) {
    // Cooperative unwind: the token tripped (explicit cancel, deadline, or
    // watchdog) and the evaluation threw at a check point *before* mutating
    // anything at that point — leases released, no partial install, the
    // store audit-clean. Typed like the IoError path so nothing has to
    // string-match.
    result.status = error.reason() == CancelReason::kDeadline
                        ? JobStatus::kDeadlineExceeded
                        : JobStatus::kCancelled;
    result.cancel_reason = error.reason();
    result.error = error.what();
    if (session != nullptr)
      result.stats = session->store().stats_snapshot();
  } catch (const IoError& error) {
    // Typed storage failure: the retry budget of one transfer was exhausted.
    // Fail this job with a reproduction-grade fault report; the worker (and
    // any sibling jobs) keep running.
    result.status = JobStatus::kFailed;
    result.io_failure = true;
    result.error = error.what();
    std::string report = error.op() + " errno=" +
                         std::to_string(error.errno_value()) + " offset=" +
                         std::to_string(error.offset()) + " attempts=" +
                         std::to_string(error.attempts()) +
                         (error.injected() ? " injected" : " device");
    if (session != nullptr) {
      // Snapshot straight from the store: the failed transfer's counters
      // never made it into an EvalResult.
      result.stats = session->store().stats_snapshot();
      report += " | " + result.stats.summary();
      if (session->options().faults.enabled())
        report += " | faults-spec: " + session->options().faults.spec();
    }
    result.fault_report = std::move(report);
  } catch (const IntegrityError& error) {
    // Unrecoverable corruption: a record failed its checksum and the
    // self-healing recomputation could not repair it. Same job boundary as
    // IoError — the job fails typed, the worker and sibling jobs survive.
    result.status = JobStatus::kFailed;
    result.integrity_failure = true;
    result.error = error.what();
    std::string report =
        error.op() + " record=" + std::to_string(error.index()) +
        " generation-expected=" + std::to_string(error.expected_generation()) +
        " generation-found=" + std::to_string(error.found_generation()) +
        (error.injected() ? " injected" : " media");
    if (session != nullptr) {
      result.stats = session->store().stats_snapshot();
      report += " | " + result.stats.summary();
      if (session->options().faults.enabled())
        report += " | faults-spec: " + session->options().faults.spec();
    }
    result.fault_report = std::move(report);
  } catch (const std::exception& error) {
    // Error (the expected case: validation, I/O) and anything else the
    // evaluation throws; a worker thread must never die on a bad job.
    result.status = JobStatus::kFailed;
    result.error = error.what();
  }
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace plfoc
