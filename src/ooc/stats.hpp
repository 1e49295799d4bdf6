// I/O and cache statistics for ancestral-vector stores.
//
// These counters are the paper's measurements: miss rate (Figs. 2, 4) is
// misses/accesses, read rate (Fig. 3) is file_reads/accesses — with read
// skipping off the two are identical (Sec. 4.1).
#pragma once

#include <cstdint>
#include <string>

namespace plfoc {

struct OocStats {
  std::uint64_t accesses = 0;     ///< vector acquires (hits + misses)
  std::uint64_t hits = 0;         ///< vector already in RAM
  std::uint64_t misses = 0;       ///< vector had to be brought into RAM
  std::uint64_t cold_misses = 0;  ///< first-ever access to a vector
  std::uint64_t evictions = 0;    ///< vectors displaced from RAM
  std::uint64_t file_reads = 0;   ///< read operations actually issued
  std::uint64_t file_writes = 0;  ///< write operations actually issued
  std::uint64_t skipped_reads = 0;  ///< reads omitted by read skipping
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Robustness counters, mirrored from the FileBackend I/O core (see
  // ooc/faults.hpp): lifetime totals of the store's backing file.
  std::uint64_t faults_injected = 0;  ///< faults fired by the fault schedule
  std::uint64_t io_retries = 0;       ///< syscall re-attempts / resumptions
  std::uint64_t io_exhausted = 0;     ///< transfers that gave up (IoError)
  // Integrity counters (docs/robustness.md, "corruption and self-healing").
  // Invariant, enforced by StoreAuditor::check_stats:
  //   integrity_recoveries + integrity_unrecovered == integrity_failures.
  /// Verified reads whose checksum/generation did not match.
  std::uint64_t integrity_failures = 0;
  /// Failures healed by recomputing the vector from its children.
  std::uint64_t integrity_recoveries = 0;
  /// Failures that could not be healed (the access threw IntegrityError).
  std::uint64_t integrity_unrecovered = 0;
  /// Vectors recomputed while healing (>= integrity_recoveries: recovery
  /// recurses into children that are themselves unmaterialized).
  std::uint64_t recovery_recomputes = 0;
  /// Corruptions applied by the injection schedule (flip/torn/zero/stale).
  std::uint64_t corruptions_injected = 0;
  // Async I/O counters (docs/async-io.md), mirrored from the FileBackend:
  /// Engine submission batches issued through submit_vector_ops.
  std::uint64_t io_batches = 0;
  /// Vector transfers absorbed into a neighbouring ranged read or write
  /// (each saved a syscall/SQE: ops_submitted = ops_requested - io_coalesced).
  std::uint64_t io_coalesced = 0;
  /// The write-side subset of io_coalesced: eviction write-backs absorbed
  /// into a neighbouring ranged write. io_write_coalesced / file_writes is
  /// the write-coalescing ratio bench/aio reports.
  std::uint64_t io_write_coalesced = 0;
  // Recompute-instead-of-store counters (docs/storage-layer.md, "dropping
  // rebuildable vectors"):
  /// Dirty victims evicted without a write-back because the engine marked
  /// them rebuildable from tips alone. Each also counts in evictions.
  std::uint64_t write_backs_avoided = 0;
  /// Read-mode misses of a dropped vector served by rebuilding it through
  /// the recovery hook: a miss, but neither a file read nor an integrity
  /// failure.
  std::uint64_t recomputes = 0;

  /// Fraction of vector requests not served from RAM (Figs. 2, 4).
  /// 0.0 when no accesses were recorded (zero-denominator guard).
  double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }
  /// Fraction of vector requests that triggered an actual disk read (Fig. 3).
  /// 0.0 when no accesses were recorded (zero-denominator guard).
  double read_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(file_reads) / static_cast<double>(accesses);
  }
  /// Fraction of misses whose swap-in read was elided by read skipping
  /// (Sec. 3.4). 0.0 when no misses were recorded (zero-denominator guard).
  double read_skip_rate() const {
    return misses == 0 ? 0.0
                       : static_cast<double>(skipped_reads) /
                             static_cast<double>(misses);
  }
  /// Misses excluding compulsory (first-touch) ones. A stats object built
  /// from partially reset counters (reset_stats() between the cold
  /// population and the measurement) can carry cold_misses > misses; clamp
  /// instead of letting the unsigned subtraction wrap.
  std::uint64_t capacity_misses() const {
    return misses >= cold_misses ? misses - cold_misses : 0;
  }
  /// Miss rate with compulsory (first-touch) misses excluded.
  double capacity_miss_rate() const {
    if (accesses == 0) return 0.0;
    return static_cast<double>(capacity_misses()) /
           static_cast<double>(accesses);
  }

  /// Counter-wise merge. Restores the misses >= cold_misses invariant after
  /// the addition so downstream accessors never see a half-reset skew; the
  /// accessors above still clamp defensively for hand-assembled objects.
  /// Not atomic: callers merging from several threads (the service layer's
  /// per-job aggregation) must serialise, e.g. under the results mutex.
  OocStats& operator+=(const OocStats& other);

  /// One-line human-readable summary.
  std::string summary() const;
};

}  // namespace plfoc
