#include "ooc/audit.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace plfoc {

namespace {

std::string describe(const char* what, std::uint32_t index) {
  return std::string(what) + " (vector " + std::to_string(index) + ")";
}

}  // namespace

StoreAuditor::StoreAuditor(std::size_t vector_count, std::size_t slot_count)
    : vector_count_(vector_count),
      slot_count_(slot_count),
      on_disk_(vector_count, false),
      shadow_dirty_(vector_count, false),
      marked_(vector_count, false),
      dropped_(vector_count, false) {}

bool StoreAuditor::ever_on_disk(std::uint32_t index) const {
  return index < vector_count_ && on_disk_[index];
}

std::optional<std::string> StoreAuditor::record_acquire(std::uint32_t index,
                                                        bool write_mode,
                                                        bool read_skipped) {
  if (index >= vector_count_)
    return describe("acquire of out-of-range vector", index);
  if (read_skipped && !write_mode) {
    if (on_disk_[index])
      return describe(
          "read skipping elided the swap-in read of a READ-mode access to a "
          "vector with live on-disk contents",
          index);
    return describe("read skipping elided the read of a READ-mode access",
                    index);
  }
  if (write_mode) {
    shadow_dirty_[index] = true;
    marked_[index] = false;
    dropped_[index] = false;
  }
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::record_file_write(
    std::uint32_t index) {
  if (index >= vector_count_)
    return describe("file write of out-of-range vector", index);
  on_disk_[index] = true;
  shadow_dirty_[index] = false;
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::record_evict(
    std::uint32_t victim, std::uint32_t pins, bool write_back_scheduled,
    bool dropped) {
  if (victim >= vector_count_)
    return describe("eviction of out-of-range vector", victim);
  if (pins != 0)
    return describe("pinned vector selected as replacement victim", victim) +
           " with " + std::to_string(pins) + " live lease(s)";
  if (write_back_scheduled && dropped)
    return describe("victim both written back and dropped", victim);
  if (dropped && !marked_[victim])
    return describe("vector dropped without a rebuildable mark", victim);
  if (shadow_dirty_[victim] && !write_back_scheduled && !dropped)
    return describe("dirty vector evicted without a write-back", victim);
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::record_drop(std::uint32_t victim) {
  if (victim >= vector_count_)
    return describe("drop of out-of-range vector", victim);
  // The slot content is gone and the file record is stale: only a rebuild
  // or a fresh write-mode acquire may bring the vector back.
  dropped_[victim] = true;
  shadow_dirty_[victim] = false;
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::record_mark(std::uint32_t index) {
  if (index >= vector_count_)
    return describe("rebuildable mark on out-of-range vector", index);
  marked_[index] = true;
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::record_rebuild(std::uint32_t index) {
  if (index >= vector_count_)
    return describe("rebuild of out-of-range vector", index);
  if (!dropped_[index])
    return describe("rebuild of a vector that was never dropped", index);
  dropped_[index] = false;
  shadow_dirty_[index] = true;
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::record_release(
    std::uint32_t index, std::uint32_t pins_before) {
  if (index >= vector_count_)
    return describe("release of out-of-range vector", index);
  if (pins_before == 0)
    return describe("release of a vector that holds no lease", index);
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::record_recovery(std::uint32_t index,
                                                         bool recovered) {
  if (index >= vector_count_)
    return describe("recovery of out-of-range vector", index);
  if (!on_disk_[index])
    return describe(
        "integrity failure reported for a vector never written to the file",
        index);
  // The recomputed slot content supersedes the corrupt file record: it must
  // reach the file before the slot may be dropped.
  if (recovered) shadow_dirty_[index] = true;
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::check_table(
    const std::vector<OocSlot>& slots,
    const std::vector<std::uint32_t>& vector_slot) const {
  if (slots.size() != slot_count_)
    return "slot table has " + std::to_string(slots.size()) +
           " slots, expected " + std::to_string(slot_count_);
  if (vector_slot.size() != vector_count_)
    return "vector->slot map has " + std::to_string(vector_slot.size()) +
           " entries, expected " + std::to_string(vector_count_);

  // Slot -> vector direction: every occupied slot names an in-range vector
  // whose map entry points straight back at the slot.
  for (std::uint32_t s = 0; s < slots.size(); ++s) {
    const OocSlot& slot = slots[s];
    if (slot.vector == kOocNoVector) {
      if (slot.pins != 0)
        return "empty slot " + std::to_string(s) + " carries " +
               std::to_string(slot.pins) + " pin(s)";
      if (slot.dirty)
        return "empty slot " + std::to_string(s) + " is marked dirty";
      continue;
    }
    if (slot.vector >= vector_count_)
      return "slot " + std::to_string(s) + " holds out-of-range vector " +
             std::to_string(slot.vector);
    if (vector_slot[slot.vector] != s)
      return "slot " + std::to_string(s) + " holds vector " +
             std::to_string(slot.vector) + " but the vector->slot map says " +
             (vector_slot[slot.vector] == kOocNoSlot
                    ? std::string("not resident")
                    : "slot " + std::to_string(vector_slot[slot.vector]));
    if (slot.dirty != static_cast<bool>(shadow_dirty_[slot.vector]))
      return "slot " + std::to_string(s) + " dirty flag (" +
             (slot.dirty ? "dirty" : "clean") + ") disagrees with recorded " +
             (shadow_dirty_[slot.vector] ? "unwritten modifications"
                                         : "write-back history") +
             " for vector " + std::to_string(slot.vector);
  }

  // Vector -> slot direction: every resident vector names an in-range slot
  // that holds exactly it. Together with the pass above this makes residency
  // a bijection (two vectors cannot share a slot, nor one vector two slots).
  for (std::uint32_t v = 0; v < vector_slot.size(); ++v) {
    const std::uint32_t s = vector_slot[v];
    if (s == kOocNoSlot) continue;
    if (s >= slots.size())
      return "vector " + std::to_string(v) + " maps to out-of-range slot " +
             std::to_string(s);
    if (slots[s].vector != v)
      return "vector " + std::to_string(v) + " maps to slot " +
             std::to_string(s) + " which holds " +
             (slots[s].vector == kOocNoVector
                    ? std::string("no vector")
                    : "vector " + std::to_string(slots[s].vector));
  }
  return std::nullopt;
}

std::optional<std::string> StoreAuditor::check_stats(const OocStats& stats) {
  // Algebraic identities that hold at every quiescent point of the store.
  if (stats.hits + stats.misses != stats.accesses)
    return "hits (" + std::to_string(stats.hits) + ") + misses (" +
           std::to_string(stats.misses) + ") != accesses (" +
           std::to_string(stats.accesses) + ")";
  if (stats.cold_misses > stats.misses)
    return "cold_misses (" + std::to_string(stats.cold_misses) +
           ") exceeds misses (" + std::to_string(stats.misses) + ")";
  if (stats.skipped_reads + stats.recomputes > stats.misses)
    return "skipped_reads (" + std::to_string(stats.skipped_reads) +
           ") + recomputes (" + std::to_string(stats.recomputes) +
           ") exceeds misses (" + std::to_string(stats.misses) + ")";
  if (stats.write_backs_avoided > stats.evictions)
    return "write_backs_avoided (" +
           std::to_string(stats.write_backs_avoided) +
           ") exceeds evictions (" + std::to_string(stats.evictions) +
           ") — a dropped victim is an eviction";
  if (stats.integrity_recoveries + stats.integrity_unrecovered !=
      stats.integrity_failures)
    return "integrity_recoveries (" +
           std::to_string(stats.integrity_recoveries) +
           ") + integrity_unrecovered (" +
           std::to_string(stats.integrity_unrecovered) +
           ") != integrity_failures (" +
           std::to_string(stats.integrity_failures) + ")";
  if (stats.recovery_recomputes < stats.integrity_recoveries)
    return "recovery_recomputes (" +
           std::to_string(stats.recovery_recomputes) +
           ") below integrity_recoveries (" +
           std::to_string(stats.integrity_recoveries) +
           ") — every recovery recomputes at least its own vector";
  if (stats.io_write_coalesced > stats.io_coalesced)
    return "io_write_coalesced (" +
           std::to_string(stats.io_write_coalesced) +
           ") exceeds io_coalesced (" + std::to_string(stats.io_coalesced) +
           ") — the write-side count is a subset of the total";

  // Monotonicity against the previous snapshot: counters only ever grow
  // between resets (reset_stats_baseline() clears the reference).
  struct Field {
    const char* name;
    std::uint64_t now;
    std::uint64_t before;
  };
  const Field fields[] = {
      {"accesses", stats.accesses, last_stats_.accesses},
      {"hits", stats.hits, last_stats_.hits},
      {"misses", stats.misses, last_stats_.misses},
      {"cold_misses", stats.cold_misses, last_stats_.cold_misses},
      {"evictions", stats.evictions, last_stats_.evictions},
      {"file_reads", stats.file_reads, last_stats_.file_reads},
      {"file_writes", stats.file_writes, last_stats_.file_writes},
      {"skipped_reads", stats.skipped_reads, last_stats_.skipped_reads},
      {"bytes_read", stats.bytes_read, last_stats_.bytes_read},
      {"bytes_written", stats.bytes_written, last_stats_.bytes_written},
      {"faults_injected", stats.faults_injected, last_stats_.faults_injected},
      {"io_retries", stats.io_retries, last_stats_.io_retries},
      {"io_exhausted", stats.io_exhausted, last_stats_.io_exhausted},
      {"integrity_failures", stats.integrity_failures,
       last_stats_.integrity_failures},
      {"integrity_recoveries", stats.integrity_recoveries,
       last_stats_.integrity_recoveries},
      {"integrity_unrecovered", stats.integrity_unrecovered,
       last_stats_.integrity_unrecovered},
      {"recovery_recomputes", stats.recovery_recomputes,
       last_stats_.recovery_recomputes},
      {"corruptions_injected", stats.corruptions_injected,
       last_stats_.corruptions_injected},
      {"io_batches", stats.io_batches, last_stats_.io_batches},
      {"io_coalesced", stats.io_coalesced, last_stats_.io_coalesced},
      {"io_write_coalesced", stats.io_write_coalesced,
       last_stats_.io_write_coalesced},
      {"write_backs_avoided", stats.write_backs_avoided,
       last_stats_.write_backs_avoided},
      {"recomputes", stats.recomputes, last_stats_.recomputes},
  };
  for (const Field& f : fields) {
    if (f.now < f.before)
      return std::string(f.name) + " ran backwards (" +
             std::to_string(f.before) + " -> " + std::to_string(f.now) + ")";
  }
  last_stats_ = stats;
  return std::nullopt;
}

void StoreAuditor::forget_write(std::uint64_t bytes) {
  if (last_stats_.file_writes > 0) --last_stats_.file_writes;
  last_stats_.bytes_written -= std::min(last_stats_.bytes_written, bytes);
}

void StoreAuditor::enforce(const std::optional<std::string>& violation,
                           const char* when) const {
  if (!violation) return;
  std::fprintf(stderr,
               "plfoc: slot-table audit failed after %s: %s "
               "(%zu vectors, %zu slots)\n",
               when, violation->c_str(), vector_count_, slot_count_);
  std::abort();
}

}  // namespace plfoc
