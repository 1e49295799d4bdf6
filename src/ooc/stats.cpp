#include "ooc/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace plfoc {

OocStats& OocStats::operator+=(const OocStats& other) {
  accesses += other.accesses;
  hits += other.hits;
  misses += other.misses;
  cold_misses += other.cold_misses;
  // Either operand may come from a store whose counters were reset after the
  // cold population (cold_misses kept, misses cleared); without the clamp the
  // merged object would report capacity misses computed from a wrapped
  // unsigned difference.
  cold_misses = std::min(cold_misses, misses);
  evictions += other.evictions;
  file_reads += other.file_reads;
  file_writes += other.file_writes;
  skipped_reads += other.skipped_reads;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  faults_injected += other.faults_injected;
  io_retries += other.io_retries;
  io_exhausted += other.io_exhausted;
  integrity_failures += other.integrity_failures;
  integrity_recoveries += other.integrity_recoveries;
  integrity_unrecovered += other.integrity_unrecovered;
  recovery_recomputes += other.recovery_recomputes;
  corruptions_injected += other.corruptions_injected;
  io_batches += other.io_batches;
  io_coalesced += other.io_coalesced;
  io_write_coalesced += other.io_write_coalesced;
  write_backs_avoided += other.write_backs_avoided;
  recomputes += other.recomputes;
  return *this;
}

std::string OocStats::summary() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "accesses=%llu miss_rate=%.4f read_rate=%.4f reads=%llu "
                "writes=%llu skipped=%llu MB_read=%.1f MB_written=%.1f",
                static_cast<unsigned long long>(accesses), miss_rate(),
                read_rate(), static_cast<unsigned long long>(file_reads),
                static_cast<unsigned long long>(file_writes),
                static_cast<unsigned long long>(skipped_reads),
                static_cast<double>(bytes_read) / 1048576.0,
                static_cast<double>(bytes_written) / 1048576.0);
  std::string out = buffer;
  // The robustness counters only appear when something actually happened, so
  // fault-free reports read exactly as before.
  if (faults_injected != 0 || io_retries != 0 || io_exhausted != 0) {
    std::snprintf(buffer, sizeof(buffer),
                  " faults=%llu retried=%llu exhausted=%llu",
                  static_cast<unsigned long long>(faults_injected),
                  static_cast<unsigned long long>(io_retries),
                  static_cast<unsigned long long>(io_exhausted));
    out += buffer;
  }
  // Likewise for the integrity counters: silent when nothing was detected.
  if (integrity_failures != 0 || integrity_recoveries != 0 ||
      integrity_unrecovered != 0 || recovery_recomputes != 0 ||
      corruptions_injected != 0) {
    std::snprintf(buffer, sizeof(buffer),
                  " corrupt=%llu detected=%llu recovered=%llu "
                  "unrecovered=%llu recomputed=%llu",
                  static_cast<unsigned long long>(corruptions_injected),
                  static_cast<unsigned long long>(integrity_failures),
                  static_cast<unsigned long long>(integrity_recoveries),
                  static_cast<unsigned long long>(integrity_unrecovered),
                  static_cast<unsigned long long>(recovery_recomputes));
    out += buffer;
  }
  // Async-engine traffic: silent under the sync engine (all stay zero).
  if (io_batches != 0 || io_coalesced != 0 || io_write_coalesced != 0) {
    std::snprintf(buffer, sizeof(buffer),
                  " batches=%llu coalesced=%llu write_coalesced=%llu",
                  static_cast<unsigned long long>(io_batches),
                  static_cast<unsigned long long>(io_coalesced),
                  static_cast<unsigned long long>(io_write_coalesced));
    out += buffer;
  }
  // Dropped rebuildable vectors: silent unless the store dropped any.
  if (write_backs_avoided != 0 || recomputes != 0) {
    std::snprintf(buffer, sizeof(buffer),
                  " write_backs_avoided=%llu recomputes=%llu",
                  static_cast<unsigned long long>(write_backs_avoided),
                  static_cast<unsigned long long>(recomputes));
    out += buffer;
  }
  return out;
}

}  // namespace plfoc
