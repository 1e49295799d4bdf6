#include "ooc/mmap_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "ooc/faults.hpp"
#include "ooc/record_checksum.hpp"
#include "util/checks.hpp"

namespace plfoc {

MmapStore::MmapStore(std::size_t count, std::size_t width,
                     MmapStoreOptions options)
    : AncestralStore(count, width),
      options_(std::move(options)),
      // Same finalizer family as FileBackend's per-stripe seeds, distinct
      // domain tag so mmap checksums never collide with file-table ones.
      checksum_seed_(mix64(0x504c4656ull ^ mix64(0x6d6d6170ull /* "mmap" */))),
      checksums_(count, 0),
      generations_(count, 0),
      lease_count_(count, 0),
      lease_mode_(count, AccessMode::kRead) {
  PLFOC_REQUIRE(!options_.file_path.empty(), "MmapStore needs a file path");
  fd_ = ::open(options_.file_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  PLFOC_REQUIRE(fd_ >= 0, "cannot create vector file '" + options_.file_path +
                              "': " + std::strerror(errno));
  mapping_bytes_ = count * width * sizeof(double);
  const int rc = ::ftruncate(fd_, static_cast<off_t>(mapping_bytes_));
  PLFOC_REQUIRE(rc == 0,
                std::string("ftruncate failed: ") + std::strerror(errno));
  mapping_ = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED, fd_, 0);
  PLFOC_REQUIRE(mapping_ != MAP_FAILED,
                std::string("mmap failed: ") + std::strerror(errno));
  ::madvise(mapping_, mapping_bytes_, MADV_RANDOM);
}

MmapStore::~MmapStore() {
  if (mapping_ != nullptr && mapping_ != MAP_FAILED)
    ::munmap(mapping_, mapping_bytes_);
  if (fd_ >= 0) ::close(fd_);
  if (options_.remove_on_close) ::unlink(options_.file_path.c_str());
}

char* MmapStore::vector_bytes(std::uint32_t index) const {
  return static_cast<char*>(mapping_) +
         static_cast<std::size_t>(index) * width_ * sizeof(double);
}

double* MmapStore::do_acquire(std::uint32_t index, AccessMode mode) {
  PLFOC_CHECK(index < count_);
  ++stats_.accesses;
  ++stats_.hits;  // from the application's view every access "hits" the map
  // First touch per residency: only a read of a previously-written vector
  // whose pages left the cache can observe device bytes, so only that path
  // verifies. Outstanding leases imply residency (content possibly in flux).
  if (mode == AccessMode::kRead && lease_count_[index] == 0 &&
      generations_[index] > 0 && !span_resident(index))
    verify_or_recover(index);
  if (lease_count_[index] == 0 || mode == AccessMode::kWrite)
    lease_mode_[index] = mode;
  ++lease_count_[index];
  return static_cast<double*>(mapping_) +
         static_cast<std::size_t>(index) * width_;
}

void MmapStore::do_release(std::uint32_t index) {
  PLFOC_CHECK(lease_count_[index] > 0);
  if (--lease_count_[index] == 0 && lease_mode_[index] == AccessMode::kWrite) {
    // The write lease just ended: this content is what any later re-fault
    // must deliver back.
    checksums_[index] = record_checksum(checksum_seed_, vector_bytes(index),
                                        width_ * sizeof(double));
    ++generations_[index];
  }
}

void MmapStore::verify_or_recover(std::uint32_t index) {
  const std::size_t bytes = width_ * sizeof(double);
  char* data = vector_bytes(index);
  // This checksum pass is itself the first touch: it faults the span back in.
  if (record_checksum(checksum_seed_, data, bytes) == checksums_[index])
    return;
  std::uint64_t recomputed = 0;
  if (recovery_hook_) {
    // No lock to drop here (MmapStore is slot-free); the hook's child
    // acquires re-enter do_acquire and may verify recursively.
    try {
      recomputed = recovery_hook_(index, reinterpret_cast<double*>(data));
    } catch (const CancelledError&) {
      // Not a failed recovery: the caller asked to stop. The span may hold
      // a half-written heal, so it leaves residency and the next acquire
      // verifies (and heals) it again; nothing is counted.
      drop_residency(index);
      throw;
    } catch (...) {
      recomputed = 0;  // a failing recovery is an unrecoverable record
    }
  }
  // The whole episode is counted at resolution, as OutOfCoreStore does.
  ++stats_.integrity_failures;
  if (recomputed > 0) {
    ++stats_.integrity_recoveries;
    stats_.recovery_recomputes += recomputed;
    // The healed bytes are dirty in the shared mapping; msync (flush) routes
    // them back to the file, replacing the damaged record.
    checksums_[index] = record_checksum(checksum_seed_, data, bytes);
    return;
  }
  ++stats_.integrity_unrecovered;
  throw IntegrityError(
      "mmap fault-in", index, generations_[index], generations_[index],
      /*injected=*/false,
      std::string("checksum mismatch on re-faulted span") +
          (recovery_hook_ ? "; recomputation failed"
                          : "; no recovery hook registered"));
}

void MmapStore::flush() {
  const int rc = ::msync(mapping_, mapping_bytes_, MS_SYNC);
  PLFOC_REQUIRE(rc == 0, std::string("msync failed: ") + std::strerror(errno));
}

bool MmapStore::span_resident(std::uint32_t index) const {
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t page_bytes = static_cast<std::size_t>(page);
  const std::size_t begin =
      static_cast<std::size_t>(index) * width_ * sizeof(double);
  const std::size_t end = begin + width_ * sizeof(double);
  const std::size_t aligned_begin = begin / page_bytes * page_bytes;
  const std::size_t aligned_end =
      std::min(mapping_bytes_, (end + page_bytes - 1) / page_bytes * page_bytes);
  const std::size_t span = aligned_end - aligned_begin;
  std::vector<unsigned char> residency((span + page_bytes - 1) / page_bytes, 0);
  if (::mincore(static_cast<char*>(mapping_) + aligned_begin, span,
                residency.data()) != 0)
    return true;  // cannot sample: assume resident (no spurious verify cost)
  for (unsigned char byte : residency)
    if ((byte & 1u) == 0) return false;
  return true;
}

void MmapStore::drop_residency(std::uint32_t index) {
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t page_bytes = static_cast<std::size_t>(page);
  const std::size_t begin =
      static_cast<std::size_t>(index) * width_ * sizeof(double);
  const std::size_t end = begin + width_ * sizeof(double);
  const std::size_t aligned_begin = begin / page_bytes * page_bytes;
  const std::size_t aligned_end =
      std::min(mapping_bytes_, (end + page_bytes - 1) / page_bytes * page_bytes);
  char* span_begin = static_cast<char*>(mapping_) + aligned_begin;
  const std::size_t span = aligned_end - aligned_begin;
  ::msync(span_begin, span, MS_SYNC);
  // Unmap first: the page cache keeps pages this mapping still maps.
  ::madvise(span_begin, span, MADV_DONTNEED);
  ::posix_fadvise(fd_, static_cast<off_t>(aligned_begin),
                  static_cast<off_t>(span), POSIX_FADV_DONTNEED);
}

}  // namespace plfoc
