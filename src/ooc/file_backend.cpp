#include "ooc/file_backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "ooc/record_checksum.hpp"
#include "util/checks.hpp"
#include "util/mutex.hpp"

namespace plfoc {
namespace {

// On-disk layout of a vector file (docs/file-formats.md):
//   [0, 4096)                       header (fields below, rest reserved 0)
//   [4096, 4096 + 16 * blocks)      table: {u64 checksum, u64 generation}
//   [payload_offset, ...)           payload, payload_offset 4 KiB-aligned
constexpr std::uint64_t kHeaderBytes = 4096;
constexpr std::uint64_t kTableEntryBytes = 16;
constexpr std::uint32_t kMagic = 0x56464c50;  // "PLFV" little-endian
constexpr std::uint32_t kFormatVersion = 2;
// Header field byte offsets.
constexpr std::uint64_t kOffMagic = 0;
constexpr std::uint64_t kOffVersion = 4;
constexpr std::uint64_t kOffBlockBytes = 8;
constexpr std::uint64_t kOffBlockCount = 16;
constexpr std::uint64_t kOffTableOffset = 24;
constexpr std::uint64_t kOffPayloadOffset = 32;
constexpr std::uint64_t kOffChecksumSeed = 40;
constexpr std::uint64_t kOffPayloadBytes = 48;
// Stripe-file checksum seeds derive from this constant: seed_k =
// mix64(kChecksumSeedBase ^ mix64(k)). The seed is stored in the header so
// fsck needs no out-of-band knowledge.
constexpr std::uint64_t kChecksumSeedBase = 0x504c4656ull;  // "PLFV"

constexpr std::uint64_t round_up(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) / align * align;
}

void put_u32(unsigned char* base, std::uint64_t offset, std::uint32_t value) {
  std::memcpy(base + offset, &value, sizeof value);
}
void put_u64(unsigned char* base, std::uint64_t offset, std::uint64_t value) {
  std::memcpy(base + offset, &value, sizeof value);
}
std::uint32_t get_u32(const unsigned char* base, std::uint64_t offset) {
  std::uint32_t value;
  std::memcpy(&value, base + offset, sizeof value);
  return value;
}
std::uint64_t get_u64(const unsigned char* base, std::uint64_t offset) {
  std::uint64_t value;
  std::memcpy(&value, base + offset, sizeof value);
  return value;
}

/// The process-wide pool of idle vector files. A recyclable backend puts its
/// open files here at destruction, renamed to an idle name in the same
/// directory; a later recyclable backend in that directory takes the newest
/// one by renaming it to its own path. The pool holds at most as many files
/// as the process once had recyclable files open at the same time, and
/// removes its oldest file to make room.
class IdleFiles {
 public:
  /// An idle file of `path`'s directory, renamed to `path`; -1 if none.
  int take(const std::string& path) PLFOC_EXCLUDES(mutex_) {
    const std::string dir = directory_of(path);
    Idle idle;
    {
      MutexLock lock(mutex_);
      const auto it = std::find_if(
          idle_.rbegin(), idle_.rend(),
          [&dir](const Idle& entry) { return entry.dir == dir; });
      if (it == idle_.rend()) return -1;
      idle = std::move(*it);
      idle_.erase(std::next(it).base());
    }
    if (::rename(idle.path.c_str(), path.c_str()) == 0) return idle.fd;
    ::close(idle.fd);  // removed behind the pool's back, or `path` is taken
    ::unlink(idle.path.c_str());
    return -1;
  }

  /// `count` more recyclable files are open.
  void opened(std::size_t count) PLFOC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    open_ += count;
    peak_ = std::max(peak_, open_);
  }

  /// One recyclable file closes: keep it idle, making room by removing the
  /// oldest idle file when the pool is full, or remove it once reaped.
  void put(const std::string& path, int fd) PLFOC_EXCLUDES(mutex_) {
    Idle evicted;
    bool kept = false;
    {
      MutexLock lock(mutex_);
      --open_;
      const std::string dir = directory_of(path);
      std::string idle_path = dir + "plfoc_idle_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(serial_++) + ".bin";
      if (!reaped_ && ::rename(path.c_str(), idle_path.c_str()) == 0) {
        kept = true;
        if (idle_.size() >= peak_) {
          evicted = std::move(idle_.front());
          idle_.erase(idle_.begin());
        }
        idle_.push_back({dir, std::move(idle_path), fd});
      }
    }
    if (evicted.fd >= 0) {
      ::close(evicted.fd);
      ::unlink(evicted.path.c_str());
    }
    if (kept) return;
    ::close(fd);
    ::unlink(path.c_str());
  }

  /// Close and unlink every idle file; later puts remove their files.
  void reap() PLFOC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    reaped_ = true;
    for (const Idle& idle : idle_) {
      ::close(idle.fd);
      ::unlink(idle.path.c_str());
    }
    idle_.clear();
  }

 private:
  struct Idle {
    std::string dir;
    std::string path;
    int fd = -1;
  };
  /// `path` up to and including its last '/', or "" for a bare name.
  static std::string directory_of(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
  }

  Mutex mutex_;
  std::vector<Idle> idle_ PLFOC_GUARDED_BY(mutex_);
  std::size_t open_ PLFOC_GUARDED_BY(mutex_) = 0;
  std::size_t peak_ PLFOC_GUARDED_BY(mutex_) = 0;
  std::uint64_t serial_ PLFOC_GUARDED_BY(mutex_) = 0;
  bool reaped_ PLFOC_GUARDED_BY(mutex_) = false;
};

/// Never destroyed, so a backend that outlives static destruction (one held
/// by a detached thread) still finds it; the reaper below empties it at exit.
IdleFiles& idle_files() {
  static IdleFiles* const pool = new IdleFiles();
  return *pool;
}

/// Unlinks the idle files at exit. Built before main, so it is destroyed
/// after every static that could own a backend built later.
struct IdleFileReaper {
  ~IdleFileReaper() { idle_files().reap(); }
} idle_file_reaper;

}  // namespace

const char* VerifyResult::status_name() const {
  switch (status) {
    case VerifyStatus::kOk: return "ok";
    case VerifyStatus::kChecksumMismatch: return "checksum mismatch";
    case VerifyStatus::kStaleGeneration: return "stale generation";
  }
  return "?";
}

// Every unbatched transfer runs the engines' per-op state machine inline on
// the calling thread (no engine, no lock): the same injector draws, retry
// budget and counter deltas as a batched op, folded into the backend atomics
// here and thrown as a typed IoError on exhaustion.
void FileBackend::transfer_all(bool is_write, int fd, void* buffer,
                               std::size_t bytes, std::uint64_t offset) {
  AioOp op;
  op.is_write = is_write;
  op.fd = fd;
  op.buffer = buffer;
  op.bytes = bytes;
  op.offset = offset;
  const AioCompletion completion = run_transfer(op, engine_options_);
  faults_injected_.fetch_add(completion.faults, std::memory_order_relaxed);
  io_retries_.fetch_add(completion.retries, std::memory_order_relaxed);
  io_exhausted_.fetch_add(completion.exhausted, std::memory_order_relaxed);
  if (!completion.ok())
    throw IoError(is_write ? "pwrite" : "pread", completion.error,
                  completion.fail_offset, completion.attempts,
                  completion.injected);
}

void FileBackend::throw_op_error(const VectorOp& op) {
  throw IoError(op.is_write ? "pwrite" : "pread", op.error, op.fail_offset,
                op.attempts, op.injected);
}

FileBackend::FileBackend(std::size_t count, std::size_t bytes_per_vector,
                         FileBackendOptions options)
    : count_(count), bytes_per_vector_(bytes_per_vector),
      options_(std::move(options)) {
  if (options_.faults.enabled())
    injector_ = std::make_unique<FaultInjector>(options_.faults);
  PLFOC_REQUIRE(count_ > 0 && bytes_per_vector_ > 0,
                "FileBackend needs a positive vector count and width");
  PLFOC_REQUIRE(options_.num_files >= 1 && options_.num_files <= 64,
                "FileBackend supports 1..64 stripe files");
  PLFOC_REQUIRE(!options_.base_path.empty(), "FileBackend needs a file path");
  block_bytes_ = options_.integrity_block_bytes != 0
                     ? options_.integrity_block_bytes
                     : bytes_per_vector_;
  // The same no-fault-schedule rule as shared-engine adoption; a fault
  // schedule's corruptions must land on the zero-preallocated file it
  // models, and the paged store's byte path keeps its fresh file too.
  recyclable_ = options_.remove_on_close && injector_ == nullptr &&
                block_bytes_ == bytes_per_vector_;

  // The options every transfer of this backend runs under: a private engine
  // binds them, and transfer_all drives run_transfer with them directly.
  engine_options_.kind = options_.io_engine;
  engine_options_.depth = options_.io_depth < 1 ? 1 : options_.io_depth;
  engine_options_.permute_seed = options_.io_permute_seed;
  engine_options_.injector = injector_.get();
  engine_options_.retry = options_.retry;
  engine_options_.latency_ns = options_.faults.latency_ns;
  // Adopt the shared engine only when nothing this backend binds into a
  // private engine would be lost: no fault schedule (the engine carries the
  // injector + latency spike), matching kind/depth, and no bespoke
  // completion permutation. Otherwise build a private engine as before.
  if (options_.shared_engine != nullptr && injector_ == nullptr &&
      options_.shared_engine->kind == options_.io_engine &&
      options_.shared_engine->depth == engine_options_.depth &&
      (options_.io_engine != AioEngineKind::kDeterministic ||
       options_.io_permute_seed == kAioOrderIdentity)) {
    shared_engine_ = options_.shared_engine;
  } else {
    engine_ = make_aio_engine(engine_options_);
  }

  // Vectors stripe round-robin: file k holds ceil((count - k)/num_files).
  // A throw closes and removes the files opened so far.
  try {
    for (unsigned k = 0; k < options_.num_files; ++k) {
      std::string path = options_.base_path;
      if (options_.num_files > 1) path += "." + std::to_string(k);
      int fd = recyclable_ ? idle_files().take(path) : -1;
      const bool recycled = fd >= 0;
      if (!recycled)
        fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
      PLFOC_REQUIRE(fd >= 0, "cannot create vector file '" + path + "': " +
                                 std::strerror(errno));
      fds_.push_back(fd);
      paths_.push_back(std::move(path));
      const std::uint64_t vectors_in_file =
          (count_ + options_.num_files - 1 - k) / options_.num_files;
      init_integrity_file(k, vectors_in_file * bytes_per_vector_, recycled);
    }
  } catch (...) {
    for (std::size_t k = 0; k < fds_.size(); ++k) {
      ::close(fds_[k]);
      ::unlink(paths_[k].c_str());
    }
    throw;
  }
  if (options_.direct_io) {
    // Best effort: a filesystem may refuse O_DIRECT (tmpfs does); -1 routes
    // every attempt through the buffered fd.
    for (const std::string& path : paths_) {
#ifdef O_DIRECT
      direct_fds_.push_back(::open(path.c_str(), O_RDWR | O_DIRECT));
#else
      direct_fds_.push_back(-1);
#endif
    }
  }
  if (recyclable_) idle_files().opened(fds_.size());
}

// Raw bootstrap/diagnostic I/O: EINTR and short transfers handled, no fault
// injection, no retry budget, no device-time accounting. A read past EOF
// zero-fills the remainder (preallocation semantics: unwritten is zero).
void FileBackend::raw_io(bool is_write, int fd, void* buffer,
                         std::size_t bytes, std::uint64_t offset) {
  char* cursor = static_cast<char*>(buffer);
  std::size_t remaining = bytes;
  while (remaining > 0) {
    const off_t position = static_cast<off_t>(offset + (bytes - remaining));
    const ssize_t moved = is_write ? ::pwrite(fd, cursor, remaining, position)
                                   : ::pread(fd, cursor, remaining, position);
    if (moved < 0) {
      if (errno == EINTR) continue;
      PLFOC_REQUIRE(false, std::string(is_write ? "pwrite" : "pread") +
                               " (integrity metadata) failed: " +
                               std::strerror(errno));
    }
    if (moved == 0) {
      PLFOC_REQUIRE(!is_write, "pwrite transferred no bytes");
      std::memset(cursor, 0, remaining);
      return;
    }
    cursor += moved;
    remaining -= static_cast<std::size_t>(moved);
  }
}

void FileBackend::init_integrity_file(unsigned file_index,
                                      std::uint64_t payload_bytes,
                                      bool recycled) {
  FileIntegrity fi;
  fi.payload_bytes = payload_bytes;
  fi.block_count = (payload_bytes + block_bytes_ - 1) / block_bytes_;
  fi.payload_offset =
      round_up(kHeaderBytes + fi.block_count * kTableEntryBytes, 4096);
  fi.checksum_seed = mix64(kChecksumSeedBase ^ mix64(file_index));
  fi.checksum.reset(new std::atomic<std::uint64_t>[fi.block_count]());
  fi.generation.reset(new std::atomic<std::uint64_t>[fi.block_count]());
  fi.corrupt_mark.reset(new std::atomic<std::uint8_t>[fi.block_count]());

  // A recycled file's header and table are rewritten in one transfer (the
  // table zeroed: every record back to generation 0); a new file's table
  // is the zeros ftruncate leaves.
  std::vector<unsigned char> head(recycled ? fi.payload_offset : kHeaderBytes);
  unsigned char* header = head.data();
  put_u32(header, kOffMagic, kMagic);
  put_u32(header, kOffVersion, kFormatVersion);
  put_u64(header, kOffBlockBytes, block_bytes_);
  put_u64(header, kOffBlockCount, fi.block_count);
  put_u64(header, kOffTableOffset, kHeaderBytes);
  put_u64(header, kOffPayloadOffset, fi.payload_offset);
  put_u64(header, kOffChecksumSeed, fi.checksum_seed);
  put_u64(header, kOffPayloadBytes, payload_bytes);
  raw_io(true, fds_[file_index], header, head.size(), 0);
  // Preallocate the whole file: table and payload read as zeros until
  // written, so generation 0 == never written. A recycled file keeps its
  // old payload, which reads of generation-0 records replace with zeros.
  const int rc = ::ftruncate(
      fds_[file_index], static_cast<off_t>(fi.payload_offset + payload_bytes));
  PLFOC_REQUIRE(rc == 0,
                std::string("ftruncate failed: ") + std::strerror(errno));
  integrity_.push_back(std::move(fi));
}

FileBackend::~FileBackend() {
  engine_.reset();  // drain workers before their fds go away
  // A shared engine outlives this backend, but no op of ours is in flight:
  // batches complete synchronously inside submit_vector_ops, so nothing in
  // the pool references our fds past that call.
  shared_engine_.reset();
  for (int fd : direct_fds_)
    if (fd >= 0) ::close(fd);
  for (std::size_t k = 0; k < fds_.size(); ++k) {
    if (recyclable_) {
      idle_files().put(paths_[k], fds_[k]);
      continue;
    }
    ::close(fds_[k]);
    if (options_.remove_on_close) ::unlink(paths_[k].c_str());
  }
}

void FileBackend::copy_counters(OocStats& stats) const {
  stats.faults_injected = faults_injected();
  stats.io_retries = io_retries();
  stats.io_exhausted = io_exhausted();
  stats.corruptions_injected = corruptions_injected();
  stats.io_batches = io_batches();
  stats.io_coalesced = io_coalesced();
  stats.io_write_coalesced = io_write_coalesced();
}

void FileBackend::reset_counters() {
  reset_fault_counters();
  io_batches_.store(0, std::memory_order_relaxed);
  io_coalesced_.store(0, std::memory_order_relaxed);
  io_write_coalesced_.store(0, std::memory_order_relaxed);
}

const char* FileBackend::io_engine_name() const {
  if (shared_engine_ != nullptr) {
    MutexLock lock(shared_engine_->mutex);
    return shared_engine_->engine->name();
  }
  MutexLock lock(engine_mutex_);
  return engine_->name();
}

FileBackend::Location FileBackend::locate(std::uint32_t index) const {
  PLFOC_DCHECK(index < count_);
  const unsigned file = index % options_.num_files;
  const std::uint64_t slot = index / options_.num_files;
  return {fds_[file], slot * bytes_per_vector_, file, slot};
}

void FileBackend::charge(std::size_t bytes) {
  io_ops_.fetch_add(1, std::memory_order_relaxed);
  if (!options_.device.enabled()) return;
  std::uint64_t ns = options_.device.seek_latency_ns;
  if (options_.device.bytes_per_second != 0)
    ns += static_cast<std::uint64_t>(bytes) * 1'000'000'000ull /
          options_.device.bytes_per_second;
  modeled_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void FileBackend::read_vector(std::uint32_t index, void* dst) {
  const Location loc = locate(index);
  transfer_all(false, loc.fd, dst, bytes_per_vector_,
               integrity_[loc.file].payload_offset + loc.offset);
  charge(bytes_per_vector_);
  if (integrity_[loc.file].generation[loc.block].load(
          std::memory_order_relaxed) == 0)
    std::memset(dst, 0, bytes_per_vector_);  // never written: reads as zeros
}

void FileBackend::write_vector(std::uint32_t index, const void* src) {
  const Location loc = locate(index);
  FileIntegrity& fi = integrity_[loc.file];
  // The table records the *intended* content, computed from memory, never
  // re-read from the file — that is what makes a torn or dropped payload
  // write detectable on the next verified read.
  const std::uint64_t checksum =
      record_checksum(fi.checksum_seed, src, bytes_per_vector_);
  const std::uint64_t generation =
      fi.generation[loc.block].load(std::memory_order_relaxed) + 1;
  CorruptionDecision corruption;
  if (injector_ != nullptr) corruption = injector_->next_corruption(true);
  switch (corruption.kind) {
    case CorruptionKind::kStale:
      // The device acks but nothing reaches the medium: neither payload nor
      // table is written. The mirror still advances, so the next verified
      // read sees the on-disk table lagging — a stale-generation replay.
      corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
      fi.corrupt_mark[loc.block].store(1, std::memory_order_relaxed);
      break;
    case CorruptionKind::kTorn: {
      std::size_t prefix = 1 + static_cast<std::size_t>(
                                   corruption.a *
                                   static_cast<double>(bytes_per_vector_ - 1));
      prefix = std::min(prefix, bytes_per_vector_ - 1);
      transfer_all(true, loc.fd, const_cast<void*>(src), prefix,
                   fi.payload_offset + loc.offset);
      store_table_entry(loc.file, loc.block, checksum, generation);
      corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
      fi.corrupt_mark[loc.block].store(1, std::memory_order_relaxed);
      break;
    }
    default:
      transfer_all(true, loc.fd, const_cast<void*>(src), bytes_per_vector_,
                   fi.payload_offset + loc.offset);
      store_table_entry(loc.file, loc.block, checksum, generation);
      fi.corrupt_mark[loc.block].store(0, std::memory_order_relaxed);
      break;
  }
  fi.checksum[loc.block].store(checksum, std::memory_order_relaxed);
  fi.generation[loc.block].store(generation, std::memory_order_relaxed);
  charge(bytes_per_vector_);
}

void FileBackend::retire_vector(std::uint32_t index) {
  PLFOC_CHECK(block_bytes_ == bytes_per_vector_);
  // Any nonzero constant works: an intact old record checksums to the old
  // mirror value, which the flipped mirror can no longer match.
  constexpr std::uint64_t kRetiredChecksumFlip = 0x9E3779B97F4A7C15ull;
  const Location loc = locate(index);
  FileIntegrity& fi = integrity_[loc.file];
  fi.checksum[loc.block].fetch_xor(kRetiredChecksumFlip,
                                   std::memory_order_relaxed);
  fi.generation[loc.block].fetch_add(1, std::memory_order_relaxed);
  fi.corrupt_mark[loc.block].store(0, std::memory_order_relaxed);
}

// Batched vector transfers through the AioEngine. The completions may arrive
// in any order, so every effect that must be deterministic — injector draws,
// checksum-table writes, counter folds, verification, corruption draws — is
// split between submission time (in op order) and a completion pass that
// walks the batch in op order again, keyed by token rather than by delivery.
// Per-op semantics mirror the sequential read_vector / write_vector /
// read_vector_verified paths exactly; the only intended difference is that a
// coalesced range — read or write — charges the device model once for the
// whole range.
void FileBackend::submit_vector_ops(VectorOp* ops, std::size_t count) {
  if (count == 0) return;
  io_batches_.fetch_add(1, std::memory_order_relaxed);

  // Write-side integrity decisions are drawn at submission, in op order
  // (write_vector draws before its payload I/O, too).
  struct WritePlan {
    std::uint64_t checksum = 0;
    std::uint64_t generation = 0;
    CorruptionKind corruption = CorruptionKind::kNone;
    bool skip_payload = false;  ///< kStale: the device acks, nothing lands
  };
  struct Staged {
    AioOp aio;
    std::vector<std::size_t> members;  ///< op indices riding this transfer
    /// Write transfer that may absorb a following adjacent write: a full,
    /// uncorrupted payload (a torn write's shortened span must stay its own
    /// op; a stale write never stages at all).
    bool write_mergeable = false;
    int gather = -1;  ///< index into `gathers` when sources were copied
  };
  std::vector<WritePlan> plans(count);
  std::vector<Staged> staged;
  staged.reserve(count);
  // Gather buffers for merged writes whose source slots are not contiguous
  // in memory (eviction victims rarely are). Must outlive collect().
  std::vector<std::vector<char>> gathers;

  for (std::size_t i = 0; i < count; ++i) {
    VectorOp& op = ops[i];
    op.error = 0;
    op.attempts = 0;
    op.fail_offset = 0;
    op.injected = false;
    op.coalesced = false;
    op.verify_result = VerifyResult{};
    const Location loc = locate(op.index);

    AioOp aio;
    aio.is_write = op.is_write;
    aio.fd = loc.fd;
    aio.direct_fd = direct_fd(loc.file);
    aio.buffer = op.buffer;
    aio.bytes = bytes_per_vector_;
    aio.offset = integrity_[loc.file].payload_offset + loc.offset;

    if (op.is_write) {
      bool mergeable = true;
      FileIntegrity& fi = integrity_[loc.file];
      WritePlan& plan = plans[i];
      plan.checksum =
          record_checksum(fi.checksum_seed, op.buffer, bytes_per_vector_);
      plan.generation =
          fi.generation[loc.block].load(std::memory_order_relaxed) + 1;
      CorruptionDecision corruption;
      if (injector_ != nullptr) corruption = injector_->next_corruption(true);
      plan.corruption = corruption.kind;
      if (corruption.kind == CorruptionKind::kStale) {
        plan.skip_payload = true;
        continue;  // no transfer at all — bookkeeping-only at completion
      }
      if (corruption.kind == CorruptionKind::kTorn) {
        std::size_t prefix =
            1 + static_cast<std::size_t>(
                    corruption.a * static_cast<double>(bytes_per_vector_ - 1));
        aio.bytes = std::min(prefix, bytes_per_vector_ - 1);
        mergeable = false;  // the shortened span must land alone
      }
      // Coalesce with the previous staged transfer when this write continues
      // a mergeable write in the file. Eviction victims live in arbitrary
      // slots, so contiguous *sources* are not required: a gather copy
      // staples the payloads into one ranged write (the paper's analogue of
      // the OS clustering dirty pages into a single swap-out).
      if (mergeable && !staged.empty()) {
        Staged& prev = staged.back();
        if (prev.aio.is_write && prev.write_mergeable &&
            prev.aio.fd == aio.fd &&
            prev.aio.offset + prev.aio.bytes == aio.offset) {
          if (prev.gather < 0) {
            gathers.emplace_back();
            prev.gather = static_cast<int>(gathers.size()) - 1;
            gathers[prev.gather].assign(
                static_cast<const char*>(prev.aio.buffer),
                static_cast<const char*>(prev.aio.buffer) + prev.aio.bytes);
          }
          std::vector<char>& gather = gathers[prev.gather];
          gather.insert(gather.end(), static_cast<const char*>(op.buffer),
                        static_cast<const char*>(op.buffer) + aio.bytes);
          prev.aio.buffer = gather.data();  // insert may reallocate
          prev.aio.bytes += aio.bytes;
          prev.members.push_back(i);
          continue;
        }
      }
      aio.token = staged.size();
      staged.push_back(Staged{aio, {i}, mergeable, -1});
      continue;
    } else {
      // Coalesce with the previous staged transfer when this read continues
      // it in both the file and the destination buffer (reads staged into
      // contiguous scratch become one ranged transfer).
      if (!staged.empty()) {
        Staged& prev = staged.back();
        if (!prev.aio.is_write && prev.aio.fd == aio.fd &&
            prev.aio.offset + prev.aio.bytes == aio.offset &&
            static_cast<char*>(prev.aio.buffer) + prev.aio.bytes ==
                aio.buffer) {
          prev.aio.bytes += aio.bytes;
          prev.members.push_back(i);
          continue;
        }
      }
    }
    aio.token = staged.size();
    staged.push_back(Staged{aio, {i}});
  }

  std::vector<AioCompletion> completions(staged.size());
  if (!staged.empty()) {
    std::vector<AioOp> aio_ops;
    aio_ops.reserve(staged.size());
    for (const Staged& s : staged) aio_ops.push_back(s.aio);
    // One whole batch at a time on the engine: two interleaved batches
    // would cross-deliver completions (tokens are batch-relative). With a shared engine the
    // handle's mutex extends the same whole-batch discipline across every
    // backend on the handle.
    if (shared_engine_ != nullptr) {
      MutexLock engine_lock(shared_engine_->mutex);
      shared_engine_->engine->submit(aio_ops.data(), aio_ops.size());
      shared_engine_->engine->collect(completions.data(), completions.size());
    } else {
      MutexLock engine_lock(engine_mutex_);
      engine_->submit(aio_ops.data(), aio_ops.size());
      engine_->collect(completions.data(), completions.size());
    }
  }

  // Fold the per-op counter deltas and distribute outcomes in token order —
  // delivery order must leave no trace.
  std::vector<const AioCompletion*> by_token(staged.size(), nullptr);
  for (const AioCompletion& completion : completions)
    by_token[completion.token] = &completion;
  for (std::size_t t = 0; t < staged.size(); ++t) {
    const Staged& s = staged[t];
    PLFOC_CHECK(by_token[t] != nullptr);
    const AioCompletion& completion = *by_token[t];
    faults_injected_.fetch_add(completion.faults, std::memory_order_relaxed);
    io_retries_.fetch_add(completion.retries, std::memory_order_relaxed);
    io_exhausted_.fetch_add(completion.exhausted, std::memory_order_relaxed);
    const bool merged = s.members.size() > 1;
    for (const std::size_t i : s.members) {
      if (merged) {
        ops[i].coalesced = true;
        io_coalesced_.fetch_add(1, std::memory_order_relaxed);
        if (s.aio.is_write)
          io_write_coalesced_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!completion.ok()) {
        ops[i].error = completion.error;
        ops[i].attempts = completion.attempts;
        ops[i].fail_offset = completion.fail_offset;
        ops[i].injected = completion.injected;
      }
    }
    // A ranged transfer is one device operation however many vectors it
    // carries; a failed transfer charges nothing (the sequential path throws
    // before charge()). Single writes keep charging in the bookkeeping pass
    // below, after their table entry lands, exactly like write_vector.
    if (completion.ok() && (!s.aio.is_write || merged)) charge(s.aio.bytes);
  }

  // Completion bookkeeping, in op order.
  for (std::size_t i = 0; i < count; ++i) {
    VectorOp& op = ops[i];
    const Location loc = locate(op.index);
    if (op.is_write) {
      FileIntegrity& fi = integrity_[loc.file];
      const WritePlan& plan = plans[i];
      if (plan.skip_payload) {  // kStale: mirror advances, medium untouched
        corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
        fi.corrupt_mark[loc.block].store(1, std::memory_order_relaxed);
        fi.checksum[loc.block].store(plan.checksum, std::memory_order_relaxed);
        fi.generation[loc.block].store(plan.generation,
                                       std::memory_order_relaxed);
        charge(bytes_per_vector_);
        continue;
      }
      // A failed payload leaves table, mirror, marks and device accounting
      // untouched — exactly the state write_vector's throw leaves behind.
      if (!op.ok()) continue;
      try {
        store_table_entry(loc.file, loc.block, plan.checksum, plan.generation);
      } catch (const IoError& error) {
        op.error = error.errno_value();
        op.attempts = error.attempts();
        op.fail_offset = error.offset();
        op.injected = error.injected();
        continue;
      }
      if (plan.corruption == CorruptionKind::kTorn) {
        corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
        fi.corrupt_mark[loc.block].store(1, std::memory_order_relaxed);
      } else {
        fi.corrupt_mark[loc.block].store(0, std::memory_order_relaxed);
      }
      fi.checksum[loc.block].store(plan.checksum, std::memory_order_relaxed);
      fi.generation[loc.block].store(plan.generation,
                                     std::memory_order_relaxed);
      // A coalesced member's payload was charged with its ranged write (one
      // device op for the range, like ranged reads — the accepted divergence
      // is that a table-entry failure above has then already charged).
      if (!op.coalesced) charge(bytes_per_vector_);
    } else {
      if (!op.ok()) continue;
      FileIntegrity& fi = integrity_[loc.file];
      const std::uint64_t generation =
          fi.generation[loc.block].load(std::memory_order_relaxed);
      if (generation == 0) {  // never written: reads as zeros
        std::memset(op.buffer, 0, bytes_per_vector_);
        continue;
      }
      if (!op.verify) continue;
      const bool injected_now =
          apply_read_corruption(op.buffer, bytes_per_vector_);
      const std::uint64_t expected =
          fi.checksum[loc.block].load(std::memory_order_relaxed);
      if (record_checksum(fi.checksum_seed, op.buffer, bytes_per_vector_) !=
          expected)
        op.verify_result =
            classify_mismatch(loc.file, loc.block, injected_now);
    }
  }
}

VerifyResult FileBackend::read_vector_verified(std::uint32_t index,
                                               void* dst) {
  PLFOC_CHECK(block_bytes_ == bytes_per_vector_);
  const Location loc = locate(index);
  FileIntegrity& fi = integrity_[loc.file];
  transfer_all(false, loc.fd, dst, bytes_per_vector_,
               fi.payload_offset + loc.offset);
  charge(bytes_per_vector_);
  VerifyResult result;
  const std::uint64_t generation =
      fi.generation[loc.block].load(std::memory_order_relaxed);
  if (generation == 0) {  // never written: reads as zeros
    std::memset(dst, 0, bytes_per_vector_);
    return result;
  }
  const bool injected_now = apply_read_corruption(dst, bytes_per_vector_);
  const std::uint64_t expected =
      fi.checksum[loc.block].load(std::memory_order_relaxed);
  if (record_checksum(fi.checksum_seed, dst, bytes_per_vector_) == expected)
    return result;
  return classify_mismatch(loc.file, loc.block, injected_now);
}

VerifyResult FileBackend::read_bytes_verified(std::uint64_t offset, void* dst,
                                              std::size_t bytes) {
  PLFOC_CHECK(options_.num_files == 1);
  PLFOC_DCHECK(offset + bytes <= total_bytes());
  FileIntegrity& fi = integrity_[0];
  transfer_all(false, fds_[0], dst, bytes, fi.payload_offset + offset);
  charge(bytes);
  const bool injected_now = apply_read_corruption(dst, bytes);
  VerifyResult result;
  if (bytes == 0) return result;
  const std::uint64_t first = offset / block_bytes_;
  const std::uint64_t last = (offset + bytes - 1) / block_bytes_;
  for (std::uint64_t block = first; block <= last; ++block) {
    const std::uint64_t block_start = block * block_bytes_;
    const std::uint64_t block_end =
        std::min<std::uint64_t>(block_start + block_bytes_, fi.payload_bytes);
    if (block_start < offset || block_end > offset + bytes)
      continue;  // partially covered: not verifiable from this read
    const std::uint64_t generation =
        fi.generation[block].load(std::memory_order_relaxed);
    if (generation == 0) continue;
    const std::uint64_t expected =
        fi.checksum[block].load(std::memory_order_relaxed);
    const char* content = static_cast<const char*>(dst) +
                          (block_start - offset);
    if (record_checksum(fi.checksum_seed, content, block_end - block_start) ==
        expected)
      continue;
    return classify_mismatch(0, block, injected_now);
  }
  return result;
}

void FileBackend::write_ranges_clustered(const IoRange* ranges,
                                         std::size_t count, const void* base) {
  PLFOC_CHECK(options_.num_files == 1);
  FileIntegrity& fi = integrity_[0];
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    PLFOC_DCHECK(ranges[i].offset + ranges[i].bytes <= total_bytes());
    const char* src = static_cast<const char*>(base) + ranges[i].offset;
    CorruptionDecision corruption;
    if (injector_ != nullptr) corruption = injector_->next_corruption(true);
    switch (corruption.kind) {
      case CorruptionKind::kStale:
        corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
        break;
      case CorruptionKind::kTorn: {
        std::size_t prefix =
            1 + static_cast<std::size_t>(
                    corruption.a * static_cast<double>(ranges[i].bytes - 1));
        prefix = std::min(prefix, ranges[i].bytes - 1);
        if (prefix > 0)
          transfer_all(true, fds_[0], const_cast<char*>(src), prefix,
                       fi.payload_offset + ranges[i].offset);
        corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      default:
        transfer_all(true, fds_[0], const_cast<char*>(src), ranges[i].bytes,
                     fi.payload_offset + ranges[i].offset);
        break;
    }
    // The table always records the intended content (from memory), so a
    // torn/dropped payload write above stays detectable at fault-in.
    update_blocks_after_byte_write(ranges[i].offset, src, ranges[i].bytes);
    if (corruption.kind != CorruptionKind::kNone) {
      const std::uint64_t first = ranges[i].offset / block_bytes_;
      const std::uint64_t last =
          (ranges[i].offset + ranges[i].bytes - 1) / block_bytes_;
      for (std::uint64_t block = first; block <= last; ++block)
        fi.corrupt_mark[block].store(1, std::memory_order_relaxed);
    }
    total += ranges[i].bytes;
  }
  if (count > 0) charge(total);  // one device operation for the cluster
}

void FileBackend::update_blocks_after_byte_write(std::uint64_t offset,
                                                 const void* src,
                                                 std::size_t bytes) {
  if (bytes == 0) return;
  FileIntegrity& fi = integrity_[0];
  const char* intended = static_cast<const char*>(src);
  const std::uint64_t first = offset / block_bytes_;
  const std::uint64_t last = (offset + bytes - 1) / block_bytes_;
  std::vector<char> scratch;
  for (std::uint64_t block = first; block <= last; ++block) {
    const std::uint64_t block_start = block * block_bytes_;
    const std::uint64_t block_end =
        std::min<std::uint64_t>(block_start + block_bytes_, fi.payload_bytes);
    const std::size_t block_len =
        static_cast<std::size_t>(block_end - block_start);
    std::uint64_t checksum;
    if (block_start >= offset && block_end <= offset + bytes) {
      checksum = record_checksum(fi.checksum_seed,
                                 intended + (block_start - offset), block_len);
      fi.corrupt_mark[block].store(0, std::memory_order_relaxed);
    } else {
      // Partial overlap: reconstruct the intended block as current file
      // content overlaid with the written span. (Raw read: maintenance
      // traffic, not a data op.)
      scratch.resize(block_len);
      raw_io(false, fds_[0], scratch.data(), block_len,
             fi.payload_offset + block_start);
      const std::uint64_t cover_start = std::max(offset, block_start);
      const std::uint64_t cover_end =
          std::min<std::uint64_t>(offset + bytes, block_end);
      std::memcpy(scratch.data() + (cover_start - block_start),
                  intended + (cover_start - offset),
                  static_cast<std::size_t>(cover_end - cover_start));
      checksum = record_checksum(fi.checksum_seed, scratch.data(), block_len);
    }
    store_table_entry(0, block, checksum,
                      fi.generation[block].load(std::memory_order_relaxed) + 1);
    fi.checksum[block].store(checksum, std::memory_order_relaxed);
    fi.generation[block].fetch_add(1, std::memory_order_relaxed);
  }
}

void FileBackend::store_table_entry(unsigned file_index, std::uint64_t block,
                                    std::uint64_t checksum,
                                    std::uint64_t generation) {
  unsigned char entry[kTableEntryBytes];
  put_u64(entry, 0, checksum);
  put_u64(entry, 8, generation);
  transfer_all(true, fds_[file_index], entry, sizeof entry,
               kHeaderBytes + block * kTableEntryBytes);
}

bool FileBackend::apply_read_corruption(void* dst, std::size_t bytes) {
  if (injector_ == nullptr || !options_.faults.corruption_enabled())
    return false;
  const CorruptionDecision corruption = injector_->next_corruption(false);
  unsigned char* p = static_cast<unsigned char*>(dst);
  switch (corruption.kind) {
    case CorruptionKind::kFlip: {
      std::uint64_t bit = static_cast<std::uint64_t>(
          corruption.a * static_cast<double>(bytes) * 8.0);
      bit = std::min<std::uint64_t>(bit, static_cast<std::uint64_t>(bytes) * 8 - 1);
      p[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    case CorruptionKind::kZero: {
      // Zero one aligned "page" of the delivered buffer, as a dropped or
      // unmapped sector would.
      constexpr std::size_t kSpan = 4096;
      std::size_t start = static_cast<std::size_t>(
                              corruption.a * static_cast<double>(bytes)) /
                          kSpan * kSpan;
      if (start >= bytes) start = (bytes - 1) / kSpan * kSpan;
      const std::size_t len = std::min(kSpan, bytes - start);
      bool changed = false;
      for (std::size_t i = start; i < start + len; ++i)
        if (p[i] != 0) { changed = true; break; }
      if (!changed) return false;  // zeroing zeros: no damage done
      std::memset(p + start, 0, len);
      corruptions_injected_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    default:
      return false;
  }
}

VerifyResult FileBackend::classify_mismatch(unsigned file_index,
                                            std::uint64_t block,
                                            bool injected_now) {
  FileIntegrity& fi = integrity_[file_index];
  // Failure path only: one raw table read distinguishes a payload that
  // changed under a current table (checksum mismatch) from a table that
  // never saw the write reach the medium (stale-generation replay).
  unsigned char entry[kTableEntryBytes];
  raw_io(false, fds_[file_index], entry, sizeof entry,
         kHeaderBytes + block * kTableEntryBytes);
  VerifyResult result;
  result.block = block;
  result.expected_generation =
      fi.generation[block].load(std::memory_order_relaxed);
  result.found_generation = get_u64(entry, 8);
  result.status = result.found_generation != result.expected_generation
                      ? VerifyStatus::kStaleGeneration
                      : VerifyStatus::kChecksumMismatch;
  result.injected =
      injected_now ||
      fi.corrupt_mark[block].load(std::memory_order_relaxed) != 0;
  return result;
}

FsckReport FileBackend::fsck(const std::string& path) {
  FsckReport report;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    report.header_error =
        "cannot open '" + path + "': " + std::strerror(errno);
    return report;
  }
  const auto read_span = [fd](void* dst, std::size_t bytes,
                              std::uint64_t offset) {
    char* cursor = static_cast<char*>(dst);
    std::size_t remaining = bytes;
    while (remaining > 0) {
      const ssize_t moved =
          ::pread(fd, cursor, remaining,
                  static_cast<off_t>(offset + (bytes - remaining)));
      if (moved < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (moved == 0) {  // EOF: unwritten tail reads as zeros
        std::memset(cursor, 0, remaining);
        return true;
      }
      cursor += moved;
      remaining -= static_cast<std::size_t>(moved);
    }
    return true;
  };

  unsigned char header[kHeaderBytes];
  if (!read_span(header, sizeof header, 0)) {
    report.header_error = "cannot read header: " + std::string(
                              std::strerror(errno));
    ::close(fd);
    return report;
  }
  if (get_u32(header, kOffMagic) != kMagic) {
    report.header_error =
        "bad magic (not a plfoc vector file)";
    ::close(fd);
    return report;
  }
  if (get_u32(header, kOffVersion) != kFormatVersion) {
    report.header_error = "unsupported format version " +
                          std::to_string(get_u32(header, kOffVersion));
    ::close(fd);
    return report;
  }
  report.block_bytes = get_u64(header, kOffBlockBytes);
  report.block_count = get_u64(header, kOffBlockCount);
  report.payload_bytes = get_u64(header, kOffPayloadBytes);
  const std::uint64_t table_offset = get_u64(header, kOffTableOffset);
  const std::uint64_t payload_offset = get_u64(header, kOffPayloadOffset);
  const std::uint64_t seed = get_u64(header, kOffChecksumSeed);
  if (report.block_bytes == 0 || table_offset != kHeaderBytes ||
      payload_offset <
          table_offset + report.block_count * kTableEntryBytes ||
      report.block_count !=
          (report.payload_bytes + report.block_bytes - 1) /
              report.block_bytes) {
    report.header_error = "inconsistent header geometry";
    ::close(fd);
    return report;
  }
  report.header_ok = true;

  std::vector<char> payload(static_cast<std::size_t>(report.block_bytes));
  for (std::uint64_t block = 0; block < report.block_count; ++block) {
    unsigned char entry[kTableEntryBytes];
    if (!read_span(entry, sizeof entry,
                   table_offset + block * kTableEntryBytes)) {
      report.issues.push_back({block, "cannot read table entry"});
      continue;
    }
    const std::uint64_t checksum = get_u64(entry, 0);
    const std::uint64_t generation = get_u64(entry, 8);
    const std::uint64_t block_start = block * report.block_bytes;
    const std::uint64_t block_end = std::min(
        block_start + report.block_bytes, report.payload_bytes);
    const std::size_t block_len =
        static_cast<std::size_t>(block_end - block_start);
    if (!read_span(payload.data(), block_len, payload_offset + block_start)) {
      report.issues.push_back({block, "cannot read payload"});
      continue;
    }
    if (generation == 0) {
      bool nonzero = false;
      for (std::size_t i = 0; i < block_len; ++i)
        if (payload[i] != 0) { nonzero = true; break; }
      if (nonzero)
        report.issues.push_back(
            {block, "unwritten record (generation 0) has nonzero payload"});
      else
        ++report.skipped_unwritten;
      continue;
    }
    const std::uint64_t computed =
        record_checksum(seed, payload.data(), block_len);
    if (computed != checksum) {
      report.issues.push_back(
          {block, "checksum mismatch (generation " +
                      std::to_string(generation) + ", recorded " +
                      std::to_string(checksum) + ", computed " +
                      std::to_string(computed) + ")"});
      continue;
    }
    ++report.checked;
  }
  ::close(fd);
  return report;
}

void FileBackend::sync() {
  for (int fd : fds_) ::fsync(fd);
}

std::string temp_vector_file_path(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir = (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
  return dir + "/plfoc_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".bin";
}

}  // namespace plfoc
