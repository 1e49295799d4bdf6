// Storage-fault vocabulary: deterministic fault injection and bounded retry.
//
// The out-of-core layer funnels every ancestral-vector access through disk
// I/O (the paper's getxvector(), Sec. 3), so one transient EIO or short read
// in the backing file would otherwise abort a whole evaluation. This header
// defines the robustness seam shared by the FileBackend I/O core, the
// Session/CLI configuration surface, and the differential fuzzer:
//
//  * FaultConfig / FaultInjector — a seeded, *replayable* fault schedule.
//    Decision k of a schedule depends only on (seed, nonce, k), so a failing
//    fuzzer case is reproduced exactly by re-running with the same spec
//    string. Injectable faults: short reads/writes, EINTR, transient EIO /
//    ENOSPC, and latency spikes. Parsed from "seed=N,rate=P,..." — the CLI's
//    --inject-faults and the jobfile's faults= key.
//  * RetryPolicy — bounded retries with exponential backoff. Partial
//    transfers always resume from the last completed byte; EINTR always
//    retries (POSIX), without consuming retry budget.
//  * IoError — the typed error thrown once the budget is exhausted. The
//    service layer catches it to fail a single job with a per-job fault
//    report instead of taking down the worker thread.
//  * Corruption modes + IntegrityError — faults that *survive* a successful
//    read(): single-bit flips, torn writes, zeroed pages, stale-generation
//    replays. FileBackend detects them via per-vector checksums; the store
//    first tries to self-heal by recomputing the vector (ancestral vectors
//    are pure functions of tree + model + tips, so every on-disk record is a
//    recomputable cache entry) and throws IntegrityError only when recovery
//    is impossible.
//
// docs/robustness.md describes the fault model and how to reproduce a
// failure from a fuzzer seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/checks.hpp"

namespace plfoc {

enum class FaultKind : std::uint8_t {
  kNone,
  kShortTransfer,  ///< syscall transfers only part of the requested span
  kEintr,          ///< syscall fails with EINTR (no transfer happened)
  kEio,            ///< transient EIO (no transfer happened)
  kEnospc,         ///< transient ENOSPC on writes (EIO on reads)
  kLatency,        ///< the op succeeds but stalls for latency_ns first
};

const char* fault_kind_name(FaultKind kind);

/// Bitmask selecting which fault kinds a schedule may inject.
enum FaultKindMask : unsigned {
  kFaultShort = 1u << 0,
  kFaultEintr = 1u << 1,
  kFaultEio = 1u << 2,
  kFaultEnospc = 1u << 3,
  kFaultLatency = 1u << 4,
  kFaultAllErrors = kFaultShort | kFaultEintr | kFaultEio | kFaultEnospc,
};

/// A seeded, deterministic fault schedule. Decision k depends only on
/// (seed, nonce, k): replaying the same op sequence replays the same faults.
struct FaultConfig {
  std::uint64_t seed = 1;
  /// Per-syscall probability of injecting a fault from `kinds`.
  double rate = 0.0;
  /// Cap on injected data-path faults per *logical* transfer. Together with
  /// a retry budget >= burst this guarantees every transfer eventually
  /// completes, which is what lets a faulty run stay bit-identical to a
  /// fault-free one. Exhaustion tests raise it above the retry budget.
  unsigned burst = 2;
  /// Which kinds the schedule draws from (latency is additionally gated by
  /// latency_ns > 0).
  unsigned kinds = kFaultAllErrors;
  /// Duration of an injected latency spike; 0 disables latency injection.
  std::uint64_t latency_ns = 0;
  /// Re-admission salt: the service bumps this when it re-runs a failed job
  /// so the second attempt sees a fresh schedule, the way a real transient
  /// fault would not repeat. Mixed into the effective seed.
  std::uint64_t nonce = 0;

  /// Corruption rates — faults a successful read() cannot see. Each is a
  /// per-operation probability, drawn on a stream independent of the
  /// syscall-fault stream above. Read-side: flip (one bit of the delivered
  /// payload), zero (an aligned page-sized span zeroed). Write-side: torn
  /// (only a prefix of the payload reaches the file while the checksum table
  /// records the full write), stale (the payload write is dropped entirely —
  /// a stale-generation replay on the next read).
  double flip_rate = 0.0;
  double torn_rate = 0.0;
  double zero_rate = 0.0;
  double stale_rate = 0.0;

  bool corruption_enabled() const {
    return flip_rate > 0.0 || torn_rate > 0.0 || zero_rate > 0.0 ||
           stale_rate > 0.0;
  }
  bool enabled() const { return rate > 0.0 || corruption_enabled(); }

  /// The one authoritative description of the spec grammar, shared by the
  /// --inject-faults CLI help, the jobfile faults= key, and parse errors.
  static const char* grammar();

  /// Parse a spec per grammar(). An empty spec returns a disabled config.
  /// Throws plfoc::Error on unknown keys or malformed values.
  static FaultConfig parse(const std::string& spec);
  /// Round-trip back to the spec string (for reports and reproduction).
  std::string spec() const;
};

/// Bounded-retry policy for the FileBackend I/O core. max_retries == 0
/// disables retrying: the first transient failure throws IoError. EINTR and
/// short-transfer resumption are *not* governed by this policy — POSIX
/// permits both on a healthy device, so the I/O loops always handle them.
struct RetryPolicy {
  unsigned max_retries = 4;  ///< consecutive failed attempts before giving up
  std::uint64_t backoff_initial_us = 50;  ///< first retry delay (0: no sleep)
  double backoff_multiplier = 4.0;
  std::uint64_t backoff_max_us = 5000;
};

/// Typed error for an I/O transfer that exhausted its retry budget. The
/// batch service catches this to fail one job with a fault report instead of
/// killing the worker.
class IoError : public Error {
 public:
  IoError(const std::string& op, int errno_value, std::uint64_t offset,
          unsigned attempts, bool injected);

  const std::string& op() const { return op_; }
  int errno_value() const { return errno_value_; }
  std::uint64_t offset() const { return offset_; }
  unsigned attempts() const { return attempts_; }
  /// True when the final failure was injected by a FaultInjector (vs. a real
  /// device error) — surfaces in reports so reproductions are unambiguous.
  bool injected() const { return injected_; }

 private:
  std::string op_;
  int errno_value_;
  std::uint64_t offset_;
  unsigned attempts_;
  bool injected_;
};

/// Typed error for corruption that could not be healed: a checksum or
/// generation mismatch on a vector whose recomputation is impossible (no
/// recovery hook, children unmaterialized during a read-skip window, or no
/// free slot to stage a child in). Sibling of IoError so the service can
/// fail one job at the same boundary without killing the worker.
class IntegrityError : public Error {
 public:
  IntegrityError(const std::string& op, std::uint64_t index,
                 std::uint64_t expected_generation,
                 std::uint64_t found_generation, bool injected,
                 const std::string& detail);

  const std::string& op() const { return op_; }
  /// Vector index for the stores' vector-granular paths; integrity-block
  /// index for PagedStore's byte-granular path.
  std::uint64_t index() const { return index_; }
  std::uint64_t expected_generation() const { return expected_generation_; }
  std::uint64_t found_generation() const { return found_generation_; }
  /// True when a FaultInjector corruption decision explains the damage (vs.
  /// real media corruption) — surfaces in reports for reproduction.
  bool injected() const { return injected_; }

 private:
  std::string op_;
  std::uint64_t index_;
  std::uint64_t expected_generation_;
  std::uint64_t found_generation_;
  bool injected_;
};

/// One fault decision for one syscall attempt.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  /// kShortTransfer: fraction in [0, 1) of the remaining span to transfer
  /// (clamped to at least one byte by the I/O loop).
  double fraction = 0.0;
};

enum class CorruptionKind : std::uint8_t {
  kNone,
  kFlip,   ///< read-side: flip one bit of the delivered payload
  kZero,   ///< read-side: zero an aligned span (a "zeroed page")
  kTorn,   ///< write-side: only a prefix of the payload reaches the file
  kStale,  ///< write-side: the payload write is silently dropped
};

const char* corruption_kind_name(CorruptionKind kind);

/// One corruption decision for one logical vector/block transfer. `a` and
/// `b` are uniform draws in [0, 1) the backend maps onto positions (which
/// bit to flip, where a torn write stops, which page to zero).
struct CorruptionDecision {
  CorruptionKind kind = CorruptionKind::kNone;
  double a = 0.0;
  double b = 0.0;
};

/// Deterministic decision stream. Thread-safe: decisions are numbered by an
/// atomic counter, so the engine thread and the store's write-behind writer
/// each draw a decision exactly once.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// Decision for the next syscall attempt. `is_write` selects the errno
  /// vocabulary; `faults_so_far` is the number of data-path faults already
  /// injected into the current logical transfer (enforces `burst`).
  FaultDecision next(bool is_write, unsigned faults_so_far);

  /// Corruption decision for the next logical vector/block transfer. Drawn
  /// from a separately-salted stream on its own counter, so arming
  /// corruption does not perturb the syscall-fault schedule (and vice
  /// versa). Read-side transfers draw from {flip, zero}, write-side from
  /// {torn, stale}; the per-kind rates are cumulative thresholds on one
  /// uniform draw.
  CorruptionDecision next_corruption(bool is_write);

  /// Total decisions drawn (faulting or not) — the schedule position.
  std::uint64_t decisions() const {
    return op_.load(std::memory_order_relaxed);
  }
  const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
  std::uint64_t base_;  ///< mix64(seed ^ nonce) — the stream key
  std::atomic<std::uint64_t> op_{0};
  std::atomic<std::uint64_t> corruption_op_{0};
};

}  // namespace plfoc
