// Memory-mapped ancestral-vector store.
//
// The paper's Sec. 4.1 runs note that on the 36 GB machine all vectors fit
// "both for the standard implementation or by using memory-mapped I/O for
// the out-of-core version". MmapStore maps the backing file with MAP_SHARED
// and returns addresses straight into the mapping: the *real* OS page cache
// does the replacement. Compared to PagedStore (which simulates paging
// deterministically for measurements), this backend is what a production
// deployment would use when it trusts the OS: no explicit slot management,
// no deterministic statistics — only residency sampled via mincore().
//
// A read acquire verifies a per-vector checksum when it touches a vector
// whose pages have left the page cache — the only moment mapped content can
// silently change, because the fault re-reads the device. While the span
// stays resident re-verification is skipped (the cache content was already
// checked, and checksumming every access would defeat the point of mmap).
// The mapping is advised MADV_RANDOM: with no slot manager in front of it,
// readahead fetches neighbours nobody asked for.
#pragma once

#include "ooc/storage.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace plfoc {

struct MmapStoreOptions {
  std::string file_path;        ///< backing file (created/truncated)
  bool remove_on_close = true;  ///< unlink in the destructor
};

class MmapStore final : public AncestralStore {
 public:
  MmapStore(std::size_t count, std::size_t width, MmapStoreOptions options);
  ~MmapStore() override;

  const char* backend_name() const override { return "mmap"; }

  /// msync the mapping to the file.
  void flush() override;

  /// True when every page backing vector `index` is in the page cache.
  bool span_resident(std::uint32_t index) const;

  /// Best-effort: flush the vector's span and push its pages out of the page
  /// cache (msync + madvise/fadvise DONTNEED), so the next read acquire
  /// re-faults from the device and re-verifies. A cancelled heal uses it;
  /// otherwise it is a test seam for corruption experiments, as production
  /// evictions happen by memory pressure.
  void drop_residency(std::uint32_t index);

 protected:
  double* do_acquire(std::uint32_t index, AccessMode mode) override;
  void do_release(std::uint32_t index) override;

 private:
  char* vector_bytes(std::uint32_t index) const;
  /// Checksum the (just re-faulted) span; on mismatch run the recovery hook
  /// or throw IntegrityError. Counts the episode in stats_. A CancelledError
  /// from the hook drops the span's residency, counts nothing and
  /// propagates.
  void verify_or_recover(std::uint32_t index);

  MmapStoreOptions options_;
  int fd_ = -1;
  void* mapping_ = nullptr;
  std::size_t mapping_bytes_ = 0;
  std::uint64_t checksum_seed_ = 0;
  std::vector<std::uint64_t> checksums_;    ///< valid when generation > 0
  std::vector<std::uint64_t> generations_;  ///< write-lease releases; 0 = never
  std::vector<std::uint32_t> lease_count_;  ///< live leases per vector
  std::vector<AccessMode> lease_mode_;      ///< mode of the live leases
};

}  // namespace plfoc
