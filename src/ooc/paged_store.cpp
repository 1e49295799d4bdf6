#include "ooc/paged_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/logging.hpp"

namespace plfoc {

namespace {

// Integrity blocks match the paging granularity: each page checksums
// independently, so a clustered fault verifies exactly the span it reads.
PagedStoreOptions with_page_integrity_blocks(PagedStoreOptions options) {
  options.file.integrity_block_bytes = options.page_bytes;
  return options;
}

}  // namespace

PagedStore::PagedStore(std::size_t count, std::size_t width,
                       PagedStoreOptions options)
    : AncestralStore(count, width),
      options_(with_page_integrity_blocks(std::move(options))),
      arena_(count * width),
      file_(count, width * sizeof(double), options_.file),
      lease_mode_(count, AccessMode::kRead),
      lease_count_(count, 0) {
  PLFOC_REQUIRE(options_.page_bytes >= 512 &&
                    (options_.page_bytes & (options_.page_bytes - 1)) == 0,
                "page size must be a power of two >= 512");
  const std::uint64_t total = file_.total_bytes();
  const std::uint64_t num_pages =
      (total + options_.page_bytes - 1) / options_.page_bytes;
  pages_.resize(num_pages);
  frames_ = static_cast<std::size_t>(options_.budget_bytes / options_.page_bytes);
  // The cache must hold the pages of three vectors (the engine's working set)
  // plus slack, or acquire would deadlock on pinned pages.
  const std::uint64_t pages_per_vector =
      (width * sizeof(double) + options_.page_bytes - 1) / options_.page_bytes +
      1;
  PLFOC_REQUIRE(frames_ >= 3 * pages_per_vector + 2,
                "paged store budget too small for the 3-vector working set");
  PLFOC_LOG(kInfo) << "paged store: " << num_pages << " pages of "
                   << options_.page_bytes << " B, " << frames_ << " frames ("
                   << (options_.budget_bytes >> 20) << " MiB budget)";
}

void PagedStore::lru_push_front(std::uint64_t page) {
  PageMeta& meta = pages_[page];
  meta.prev = kNoPage;
  meta.next = lru_head_;
  if (lru_head_ != kNoPage) pages_[lru_head_].prev = page;
  lru_head_ = page;
  if (lru_tail_ == kNoPage) lru_tail_ = page;
}

void PagedStore::lru_remove(std::uint64_t page) {
  PageMeta& meta = pages_[page];
  if (meta.prev != kNoPage)
    pages_[meta.prev].next = meta.next;
  else if (lru_head_ == page)
    lru_head_ = meta.next;
  if (meta.next != kNoPage)
    pages_[meta.next].prev = meta.prev;
  else if (lru_tail_ == page)
    lru_tail_ = meta.prev;
  meta.prev = kNoPage;
  meta.next = kNoPage;
}

void PagedStore::make_room(std::size_t needed) {
  // Evict least-recently-used unpinned pages until `needed` frames are free.
  // Dirty pages are written back — the OS cannot drop modified pages — and
  // consecutive dirty evictions coalesce into one clustered swap-out
  // operation (swap slots are allocated sequentially, so the device sees one
  // large write rather than one seek per page).
  std::vector<FileBackend::IoRange> batch;
  const auto flush_batch = [&] {
    if (batch.empty()) return;
    file_.write_ranges_clustered(batch.data(), batch.size(), arena_.data());
    ++stats_locked().file_writes;
    for (const FileBackend::IoRange& range : batch)
      stats_locked().bytes_written += range.bytes;
    batch.clear();
  };
  if (resident_count_ + needed <= frames_) return;
  // kswapd-style batching: once reclaim starts, free a whole cluster's worth
  // of frames so consecutive dirty pages coalesce into clustered swap-outs.
  const std::size_t target =
      std::max<std::size_t>(needed, options_.write_cluster_pages);
  while (resident_count_ + target > frames_ && lru_tail_ != kNoPage) {
    const std::uint64_t page = lru_tail_;
    lru_remove(page);
    PageMeta& meta = pages_[page];
    PLFOC_CHECK(meta.resident && meta.pins == 0);
    if (meta.dirty) {
      const std::uint64_t offset = page * options_.page_bytes;
      batch.push_back({offset,
                       static_cast<std::size_t>(std::min<std::uint64_t>(
                           options_.page_bytes, file_.total_bytes() - offset))});
      if (batch.size() >= options_.write_cluster_pages) flush_batch();
      meta.swapped_out = true;
    }
    meta.resident = false;
    meta.dirty = false;
    ++stats_locked().evictions;
    --resident_count_;
  }
  flush_batch();
  PLFOC_REQUIRE(resident_count_ + needed <= frames_,
                "paged store: all cached pages are pinned");
}

void PagedStore::fault_cluster(std::uint64_t first) {
  // Readahead: fault in a contiguous run of non-resident pages starting at
  // the faulting page (Linux swap readahead / page-cluster). Every
  // non-resident page's arena content equals its backing-file content, so
  // reading across the whole run is safe.
  std::uint64_t end = first;
  const std::uint64_t limit = std::min<std::uint64_t>(
      pages_.size(), first + options_.read_cluster_pages);
  bool any_swapped = false;
  while (end < limit && !pages_[end].resident) {
    any_swapped = any_swapped || pages_[end].swapped_out;
    ++end;
  }
  const std::size_t run = static_cast<std::size_t>(end - first);
  PLFOC_CHECK(run >= 1);
  make_room(run);
  // A first-ever fault on anonymous memory is zero-fill-on-demand: no device
  // access (the arena is already zeroed). Once any page of the run has been
  // swapped out the fault must read from the device — and unlike the
  // out-of-core layer, the OS cannot know the application is about to
  // overwrite the data, so there is no read skipping at this level.
  if (any_swapped) {
    const std::uint64_t offset = first * options_.page_bytes;
    const std::size_t bytes = static_cast<std::size_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(run) * options_.page_bytes,
        file_.total_bytes() - offset));
    char* dst = reinterpret_cast<char*>(arena_.data()) + offset;
    const VerifyResult verify = file_.read_bytes_verified(offset, dst, bytes);
    ++stats_locked().file_reads;
    stats_locked().bytes_read += bytes;
    if (!verify.ok()) {
      // Detection only: the OS-paging baseline has no recomputation seam —
      // generic paging cannot know a swap page is a recomputable cache
      // entry. The pages stay non-resident (a later fault re-reads them),
      // and the damage surfaces typed instead of as a wrong likelihood.
      ++stats_locked().integrity_failures;
      ++stats_locked().integrity_unrecovered;
      stats_locked().corruptions_injected = file_.corruptions_injected();
      throw IntegrityError(
          "paged swap-in", verify.block, verify.expected_generation,
          verify.found_generation, verify.injected,
          std::string(verify.status_name()) +
              "; the OS-paging baseline cannot self-heal");
    }
  }
  for (std::uint64_t page = first; page < end; ++page) {
    pages_[page].resident = true;
    ++resident_count_;
    // Readahead pages beyond the faulting one start on the LRU list (they
    // are not pinned by the current acquire unless it reaches them).
    if (page != first) lru_push_front(page);
  }
}

double* PagedStore::do_acquire(std::uint32_t index, AccessMode mode) {
  PLFOC_CHECK(index < count_);
  MutexLock lock(mutex_);
  ++stats_locked().accesses;
  bool any_fault = false;
  const std::uint64_t first = first_page(index);
  std::uint64_t page = first;
  try {
    for (; page <= last_page(index); ++page) {
      PageMeta& meta = pages_[page];
      if (!meta.resident) {
        fault_cluster(page);
        ++stats_locked().misses;  // one miss per page fault (readahead pages are free)
        any_fault = true;
      }
      if (meta.pins == 0) lru_remove(page);  // re-inserted at release (MRU)
      ++meta.pins;
      if (mode == AccessMode::kWrite) meta.dirty = true;
    }
  } catch (...) {
    // A fault detected damage mid-walk (IntegrityError) or hit an I/O error:
    // unpin the pages this acquire already pinned so the cache is not leaked
    // behind the typed failure.
    for (std::uint64_t undo = first; undo < page; ++undo) {
      PageMeta& meta = pages_[undo];
      PLFOC_CHECK(meta.pins > 0);
      --meta.pins;
      if (meta.pins == 0) lru_push_front(undo);
    }
    throw;
  }
  if (!any_fault) ++stats_locked().hits;
  if (lease_count_[index] == 0 || mode == AccessMode::kWrite)
    lease_mode_[index] = mode;
  ++lease_count_[index];
  return arena_.data() + static_cast<std::size_t>(index) * width_;
}

void PagedStore::do_release(std::uint32_t index) {
  MutexLock lock(mutex_);
  PLFOC_CHECK(lease_count_[index] > 0);
  --lease_count_[index];
  for (std::uint64_t page = first_page(index); page <= last_page(index);
       ++page) {
    PageMeta& meta = pages_[page];
    PLFOC_CHECK(meta.pins > 0);
    --meta.pins;
    if (meta.pins == 0) lru_push_front(page);
  }
}

std::uint64_t PagedStore::page_faults() const {
  MutexLock lock(mutex_);
  return stats_locked().misses;
}

OocStats PagedStore::stats_snapshot() const {
  MutexLock lock(mutex_);
  OocStats out = stats_locked();
  file_.copy_counters(out);
  return out;
}

void PagedStore::reset_stats() {
  MutexLock lock(mutex_);
  file_.reset_counters();
  stats_locked() = OocStats{};
}

}  // namespace plfoc
