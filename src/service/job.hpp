// Job vocabulary of the batch-evaluation service (src/service/service.hpp).
//
// A JobSpec is one independent likelihood evaluation: its own alignment,
// tree, model and SessionOptions (including the per-job seed). Jobs never
// share mutable state — each service worker builds a private Session per job
// — which is what lets the single-threaded out-of-core store run under a
// multi-worker service without locking, and what makes results bit-identical
// regardless of worker count or admission order.
//
// Note the memory asymmetry: queued specs hold their (tip) alignments in
// RAM, but tips are negligible next to ancestral vectors (Sec. 3.1: 1 byte
// per site per taxon vs. 8 * states * categories bytes per site per inner
// node). The budget the scheduler arbitrates covers the dominant term, the
// per-job slot memory.
#pragma once

#include <cstdint>
#include <string>

#include "model/rate_matrix.hpp"
#include "msa/alignment.hpp"
#include "ooc/stats.hpp"
#include "session.hpp"
#include "tree/tree.hpp"

namespace plfoc {

/// Monotonically increasing handle assigned by Service::submit().
using JobId = std::uint64_t;

/// Aggregate-initialise: {name, alignment, tree, model, session}. There is
/// deliberately no default constructor (Tree has none — a spec without a
/// real tree is meaningless).
struct JobSpec {
  std::string name;  ///< label for reports; defaults to "job-<id>"
  Alignment alignment;
  Tree tree;
  SubstitutionModel model;
  /// Requested configuration (backend, memory limit, seed, ...). The
  /// scheduler may degrade the memory-limit fields — never the seed or the
  /// model — to fit the service's global RAM budget.
  SessionOptions session;
  /// Owning tenant for fair scheduling and quotas (service/tenant.hpp);
  /// empty = the default tenant. Trails the established 5-element
  /// aggregate init `{name, alignment, tree, model, session}` so
  /// in-process batch callers can ignore tenancy entirely.
  std::string tenant;
  /// Relative deadline in seconds, measured from submit() (0 = none). The
  /// service arms the job's cancellation token with it: a job whose deadline
  /// expires while queued is dropped at pop (kDeadlineExceeded, no Session
  /// ever built); one that expires mid-evaluation unwinds cooperatively at
  /// the next pattern-block / traversal-step / AIO-batch check point. Over
  /// the wire this is SubmitRequest::deadline_ms (protocol v2).
  double deadline_seconds = 0;
};

enum class JobStatus {
  kQueued,     ///< accepted, waiting in the FairJobQueue
  kRunning,    ///< popped by a worker (possibly waiting for admission)
  kDone,       ///< evaluated successfully
  kFailed,     ///< Session construction or evaluation threw plfoc::Error
  kCancelled,  ///< cancelled: dequeued before running, or unwound mid-run
               ///< by Service::cancel / the worker watchdog
  /// The job's deadline expired — while still queued (dropped at pop, no
  /// Session built) or mid-evaluation (cooperative unwind via CancelledError).
  kDeadlineExceeded,
  /// Shed at pop: the job waited in the queue longer than the service's
  /// shed_queue_seconds overload budget, so running it would only add load
  /// with no chance of a timely answer. Never ran.
  kOverloaded,
};

inline const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kDeadlineExceeded: return "deadline-exceeded";
    case JobStatus::kOverloaded: return "overloaded";
  }
  return "?";
}

struct JobResult {
  JobId id = 0;
  std::string name;
  std::string tenant;  ///< copied from the spec
  JobStatus status = JobStatus::kQueued;
  /// Log likelihood at the default root branch; bit-identical to a
  /// sequential Session::evaluate() with the same spec (backend degradation
  /// changes I/O behaviour, never values).
  double log_likelihood = 0.0;
  OocStats stats;              ///< the job's own store counters
  double wall_seconds = 0.0;   ///< session construction + evaluation
  double queue_seconds = 0.0;  ///< submit -> popped by a worker
  Backend admitted_backend = Backend::kInRam;
  std::uint64_t charged_bytes = 0;  ///< slot memory charged to the budget
  bool degraded = false;  ///< scheduler shrank the limit / switched backend
  /// Diagnostic text: non-empty for kFailed and for the typed drops
  /// (kDeadlineExceeded / kOverloaded / mid-evaluation kCancelled).
  std::string error;
  /// The failure was a typed storage error (IoError: retry budget exhausted),
  /// as opposed to a bad spec or an internal error. Only ever true together
  /// with status == kFailed.
  bool io_failure = false;
  /// The failure was an unrecoverable vector-record corruption
  /// (IntegrityError: checksum/generation mismatch that self-healing could
  /// not repair). Only ever true together with status == kFailed; disjoint
  /// from io_failure.
  bool integrity_failure = false;
  /// Evaluation attempts the service made: 1 normally, 2 when an I/O or
  /// integrity failure was re-admitted (ServiceOptions::readmit_io_failures).
  unsigned attempts = 1;
  /// Human-readable per-job fault report (op, errno, offset, robustness
  /// counters, fault spec for reproduction). Non-empty iff io_failure or
  /// integrity_failure.
  std::string fault_report;
  /// The log likelihood came from the result cache (cache/result_cache.hpp)
  /// instead of a fresh traversal. Bit-identical either way — the cache key
  /// covers every value-affecting input and the determinism contract covers
  /// the rest — so this is observability, not a semantic difference.
  bool cache_hit = false;
  /// Why the job's cancellation token tripped (util/cancel.hpp): kExplicit
  /// (Service::cancel), kDeadline, or kWatchdog. kNone for every other
  /// terminal status, including kOverloaded (shedding is a scheduling
  /// decision, not a token trip).
  CancelReason cancel_reason = CancelReason::kNone;
};

}  // namespace plfoc
