// Binary backing file(s) for ancestral probability vectors.
//
// Vectors are stored contiguously in one binary file (Sec. 3.2); splitting
// across several files is supported (the paper found "minimal" performance
// differences) by striping vectors round-robin. The logical block size equals
// one vector — far above the 512 B / 8 KiB hardware block granularity — so
// every transfer is one large contiguous pread/pwrite.
//
// Each stripe file carries a 4 KiB header and a per-block {checksum,
// generation} table ahead of the payload, so corruption that survives a
// successful read() — bit flips, torn writes, zeroed pages, stale-sector
// replays — is detected at swap-in instead of being folded into the
// likelihood. docs/file-formats.md specifies the layout; docs/robustness.md
// covers the corruption model and the stores' self-healing recovery path.
//
// A file removed on close is recycled rather than unlinked when its backend
// has no fault schedule and one record per integrity block: it waits, open,
// in a process-wide pool of idle files until a later backend in the same
// directory renames it to its own path, so that backend's writes land on
// pages the page cache already holds (docs/storage-layer.md "File
// lifecycle"). It still behaves as a new file: a fresh header, a zeroed
// table, and generation-0 records that read as zeros.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ooc/aio.hpp"
#include "ooc/faults.hpp"
#include "ooc/stats.hpp"
#include "util/mutex.hpp"

namespace plfoc {

/// Deterministic storage-device cost model. The paper's Fig. 5 machine had
/// 2 GB of RAM, so its vector file could never be page-cached and every
/// transfer paid real device latency; on a large-RAM host the OS page cache
/// absorbs the file and wall clock no longer reflects the disk-bound regime.
/// When enabled, every read/write additionally accrues
///   seek_latency_ns + bytes * 1e9 / bytes_per_second
/// of virtual device time, which benchmarks report alongside wall time.
/// Defaults model a ~2010 consumer HDD (the paper's era).
struct DeviceModel {
  std::uint64_t seek_latency_ns = 0;      ///< per-operation cost (0 = disabled)
  std::uint64_t bytes_per_second = 0;     ///< sequential bandwidth (0 = disabled)

  bool enabled() const { return seek_latency_ns != 0 || bytes_per_second != 0; }
  static DeviceModel hdd_2010() { return {8'000'000, 100'000'000}; }
  static DeviceModel ssd() { return {80'000, 500'000'000}; }
};

struct FileBackendOptions {
  std::string base_path;      ///< file path; file k gets suffix ".k" if num_files > 1
  unsigned num_files = 1;     ///< stripe count (paper: 1 by default)
  /// Remove the backing files in the destructor (unlinked, or renamed into
  /// the idle-file pool when the backend is recyclable).
  bool remove_on_close = true;
  DeviceModel device;         ///< virtual device cost accounting (off by default)
  FaultConfig faults;         ///< seeded fault schedule (disabled by default)
  RetryPolicy retry;          ///< bounded retry + backoff for transient errors
  /// Integrity-block granularity in bytes; 0 = one block per vector (the
  /// stores' natural unit). PagedStore sets this to its page size so the
  /// byte-granular path verifies page runs. Must divide into the payload
  /// only logically — the final block of a file may be short.
  std::size_t integrity_block_bytes = 0;
  /// Async submission/completion backend for batched vector ops
  /// (docs/async-io.md). kSync keeps the historical sequential path; the
  /// stores only take their overlapped eviction/demand and batched-flush
  /// paths when this is an async engine.
  AioEngineKind io_engine = AioEngineKind::kSync;
  /// Queue depth for the async engines (worker count / ring size).
  unsigned io_depth = 8;
  /// Completion-delivery permutation seed (kDeterministic engine only).
  std::uint64_t io_permute_seed = kAioOrderIdentity;
  /// Also open O_DIRECT descriptors and route 512-aligned attempts through
  /// them, bypassing the page cache (best effort: falls back to the buffered
  /// fd when the open or the alignment fails).
  bool direct_io = false;
  /// Optional engine shared with other FileBackends (the service layer's
  /// worker Sessions all batch through one pool instead of spawning
  /// io_depth workers per store). Adopted only when this backend has no
  /// fault schedule and the handle's kind/depth match io_engine/io_depth;
  /// otherwise a private engine is built as before. The shared engine keeps
  /// its own (default) retry policy.
  std::shared_ptr<AioEngineHandle> shared_engine;
};

/// Outcome of a verified read.
enum class VerifyStatus : std::uint8_t {
  kOk,
  kChecksumMismatch,   ///< content does not match the recorded checksum
  kStaleGeneration,    ///< on-disk table lags the in-memory generation
};

struct VerifyResult {
  VerifyStatus status = VerifyStatus::kOk;
  /// Failing integrity block (byte-granular path; equals the per-file block
  /// index for the vector path).
  std::uint64_t block = 0;
  std::uint64_t expected_generation = 0;  ///< what the backend last wrote
  std::uint64_t found_generation = 0;     ///< what the on-disk table says
  /// True when an injected corruption decision explains the damage.
  bool injected = false;
  bool ok() const { return status == VerifyStatus::kOk; }
  const char* status_name() const;
};

/// One damaged record found by an offline fsck scan.
struct FsckIssue {
  std::uint64_t block = 0;
  std::string what;
};

/// Result of FileBackend::fsck — an offline header + table + payload walk
/// over one stripe file (no engine, no store).
struct FsckReport {
  bool header_ok = false;
  std::string header_error;  ///< set when !header_ok
  std::uint64_t block_bytes = 0;
  std::uint64_t block_count = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checked = 0;            ///< written records verified
  std::uint64_t skipped_unwritten = 0;  ///< generation-0 records skipped
  std::vector<FsckIssue> issues;
  bool clean() const { return header_ok && issues.empty(); }
};

class FileBackend {
 public:
  /// Creates/opens the backing file(s) for `count` vectors of
  /// `bytes_per_vector` bytes each, taking idle files from the pool when
  /// recyclable. A throw closes and removes every file it opened.
  FileBackend(std::size_t count, std::size_t bytes_per_vector,
              FileBackendOptions options);
  /// The owner must have no I/O in flight on the files (its writer thread
  /// joined): a recyclable backend's fds stay open in the
  /// pool for the next backend.
  ~FileBackend();
  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  std::size_t count() const { return count_; }
  std::size_t bytes_per_vector() const { return bytes_per_vector_; }
  std::uint64_t total_bytes() const {
    return static_cast<std::uint64_t>(count_) * bytes_per_vector_;
  }

  /// Read/write one whole vector (one logical block).
  void read_vector(std::uint32_t index, void* dst);
  void write_vector(std::uint32_t index, const void* src);

  /// Declare vector `index`'s record stale without touching the file: its
  /// slot content was dropped instead of written back, and the owner
  /// rebuilds it rather than reading it. Advances the in-memory generation
  /// mirror as an injected stale write does, and moves the checksum mirror
  /// off the record's, so a verified read that reaches the record anyway
  /// reports kStaleGeneration instead of returning old bytes. The next
  /// write of the vector makes the record current again. fsck, which reads
  /// only the file, still sees the old record as consistent.
  void retire_vector(std::uint32_t index);

  /// One whole-vector transfer in a batch submitted through the AioEngine.
  /// Outcome fields are filled by submit_vector_ops; `verify` requests the
  /// read_vector_verified semantics at completion.
  struct VectorOp {
    // -- request --
    bool is_write = false;
    std::uint32_t index = 0;
    void* buffer = nullptr;  ///< read target / write source, bytes_per_vector()
    bool verify = false;     ///< verified read (reads only)
    // -- outcome --
    /// 0 = transferred; else errno of the exhausted transfer (the caller
    /// converts to the same typed IoError the sequential path throws, using
    /// attempts/fail_offset/injected below).
    int error = 0;
    unsigned attempts = 0;
    std::uint64_t fail_offset = 0;
    bool injected = false;
    VerifyResult verify_result;  ///< verified reads only
    bool coalesced = false;  ///< rode a merged ranged op with neighbours
    bool ok() const { return error == 0; }
  };
  /// Throw the typed IoError a failed op carries ("pwrite" or "pread" by
  /// direction) — the same error the unbatched path throws.
  [[noreturn]] static void throw_op_error(const VectorOp& op);

  /// Submit a batch of whole-vector transfers through the configured
  /// AioEngine and block until all complete. Adjacent reads (same stripe
  /// file, contiguous file offsets AND contiguous buffers) coalesce into
  /// single ranged ops, charged as one device operation; adjacent *writes*
  /// (same file, contiguous offsets — sources need not be contiguous, a
  /// gather copy staples them) merge the same way unless a scheduled
  /// corruption must land on an individual op. All bookkeeping —
  /// counter folds, checksum-table writes, verification, corruption draws —
  /// happens in submission order at completion, so results are independent
  /// of the engine's delivery order. Per-op failures are *recorded*, never
  /// thrown; ops in one batch must not alias buffers or vector indices.
  void submit_vector_ops(VectorOp* ops, std::size_t count);

  /// True when the configured engine completes ops out of submission order
  /// (threads/uring/deterministic): the stores' overlap paths key off this.
  bool async_io() const { return options_.io_engine != AioEngineKind::kSync; }
  unsigned io_depth() const { return options_.io_depth < 1 ? 1 : options_.io_depth; }
  /// Resolved engine name ("sync", "threads", "uring", "deterministic") —
  /// reflects a uring→threads runtime fallback.
  const char* io_engine_name() const;

  /// Verified whole-vector read: reads the payload, applies any scheduled
  /// read-side corruption, then checks the content against the in-memory
  /// checksum/generation mirror. Never-written vectors (generation 0)
  /// verify trivially and read as zeros, whatever a recycled file still
  /// holds there (read_vector and batched reads do the same). Detection
  /// only — the *store* decides whether to recover or throw IntegrityError.
  VerifyResult read_vector_verified(std::uint32_t index, void* dst);

  /// Verified byte-granular read (num_files == 1): verifies every integrity
  /// block *fully covered* by [offset, offset+bytes) that has been written;
  /// partially-covered blocks are read but not checked (the paged store
  /// reads aligned page runs, so full coverage is the common case). Returns
  /// the first failing block.
  VerifyResult read_bytes_verified(std::uint64_t offset, void* dst,
                                   std::size_t bytes);

  /// One clustered write: several file ranges (offsets into the linear
  /// space, data taken from `base + offset`) written as a *single* device
  /// operation for accounting purposes — models the OS coalescing dirty
  /// pages into one swap-out. Requires num_files == 1.
  struct IoRange {
    std::uint64_t offset;
    std::size_t bytes;
  };
  void write_ranges_clustered(const IoRange* ranges, std::size_t count,
                              const void* base);

  /// fsync all backing files.
  void sync();

  /// Accumulated virtual device time (0 if the DeviceModel is disabled).
  double modeled_device_seconds() const {
    return static_cast<double>(modeled_ns_.load()) * 1e-9;
  }
  /// Total read+write operations issued.
  std::uint64_t io_operations() const { return io_ops_.load(); }
  void reset_device_accounting() {
    modeled_ns_.store(0);
    io_ops_.store(0);
  }

  // Robustness counters (see ooc/faults.hpp and docs/robustness.md). The
  // stores fold these into their OocStats so per-job reports carry them.
  /// Faults injected by the configured schedule (0 when injection is off).
  std::uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }
  /// Syscall re-attempts: EINTR, resumed short transfers, transient errors.
  std::uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  /// Logical transfers that exhausted the retry budget and threw IoError.
  std::uint64_t io_exhausted() const {
    return io_exhausted_.load(std::memory_order_relaxed);
  }
  /// Corruptions actually applied by the configured schedule (flip, torn,
  /// zero, stale) — every one of these is detectable by a verified read.
  std::uint64_t corruptions_injected() const {
    return corruptions_injected_.load(std::memory_order_relaxed);
  }
  /// Batches submitted through submit_vector_ops.
  std::uint64_t io_batches() const {
    return io_batches_.load(std::memory_order_relaxed);
  }
  /// Vector ops that rode a coalesced ranged op with their neighbours.
  std::uint64_t io_coalesced() const {
    return io_coalesced_.load(std::memory_order_relaxed);
  }
  /// The write-side subset of io_coalesced(): eviction write-backs that rode
  /// a merged ranged write.
  std::uint64_t io_write_coalesced() const {
    return io_write_coalesced_.load(std::memory_order_relaxed);
  }
  /// Zero the robustness counters (faults/retries/exhaustion/corruption).
  void reset_fault_counters() {
    faults_injected_.store(0, std::memory_order_relaxed);
    io_retries_.store(0, std::memory_order_relaxed);
    io_exhausted_.store(0, std::memory_order_relaxed);
    corruptions_injected_.store(0, std::memory_order_relaxed);
  }
  /// Copy the robustness and async-traffic counters above into `stats`.
  /// The stores overlay these in stats_snapshot(): an IoError unwinds past
  /// the stores' own mirroring, so only the backend atomics are current
  /// exactly when a failure report is being assembled.
  void copy_counters(OocStats& stats) const;
  /// Zero the robustness and the async-traffic counters (the stores'
  /// reset_stats(): without the latter a post-reset snapshot would overlay
  /// pre-reset io_batches/io_coalesced over zeroed stats).
  void reset_counters();
  /// Non-null when a fault schedule is configured.
  const FaultInjector* injector() const { return injector_.get(); }

  std::size_t integrity_block_bytes() const { return block_bytes_; }

  /// Offline integrity scan of one stripe file: header validation, then a
  /// table + payload walk recomputing every written record's checksum with
  /// the seed stored in the header. Flags checksum mismatches, generation
  /// regressions (table generation 0 with a nonzero payload), and truncated
  /// payloads. Pure file-format knowledge — no store or engine involved.
  static FsckReport fsck(const std::string& path);

 private:
  void charge(std::size_t bytes);

  /// One unbatched transfer: run_transfer (the engines' per-op state
  /// machine — short-transfer resumption, EINTR retry, bounded transient
  /// retry with backoff, fault injection) inline on the calling thread, its
  /// counter deltas folded into the atomics below. Throws IoError once the
  /// retry budget is exhausted.
  void transfer_all(bool is_write, int fd, void* buffer, std::size_t bytes,
                    std::uint64_t offset);

  struct Location {
    int fd;
    std::uint64_t offset;  ///< payload-relative byte offset within the file
    unsigned file;
    std::uint64_t block;  ///< per-file integrity-block index
  };
  Location locate(std::uint32_t index) const;

  /// Per-stripe-file integrity state: the on-disk layout plus an in-memory
  /// mirror of the {checksum, generation} table. The mirror entries are
  /// relaxed atomics: the store's write-behind writer updates them off the
  /// engine thread, whose verified reads wait for the queued writes first.
  struct FileIntegrity {
    std::uint64_t payload_bytes = 0;
    std::uint64_t block_count = 0;
    std::uint64_t payload_offset = 0;
    std::uint64_t checksum_seed = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> checksum;
    std::unique_ptr<std::atomic<std::uint64_t>[]> generation;
    /// Attribution only: set when an injected torn/stale write damaged the
    /// block, cleared by the next clean full-block write.
    std::unique_ptr<std::atomic<std::uint8_t>[]> corrupt_mark;
  };

  /// Raw non-injected, non-counted I/O (EINTR/short-transfer safe) for
  /// header + table bootstrap and failure-path classification reads. Using
  /// the injector here would let a rate=1.0 schedule fail construction
  /// before any data op runs.
  void raw_io(bool is_write, int fd, void* buffer, std::size_t bytes,
              std::uint64_t offset);

  /// Write stripe `file_index`'s header and preallocate its table and
  /// payload (zero-filled), then register its in-memory mirror. A recycled
  /// file also gets its table zeroed; its stale payload stays.
  void init_integrity_file(unsigned file_index, std::uint64_t payload_bytes,
                           bool recycled);
  /// Persist one table entry (fault-injectable like any data write) and the
  /// in-memory mirror.
  void store_table_entry(unsigned file_index, std::uint64_t block,
                         std::uint64_t checksum, std::uint64_t generation);
  /// Re-checksum the blocks touched by a byte-granular write. `src` holds
  /// the *intended* content of [offset, offset+bytes) so a torn payload
  /// write stays detectable; partially-covered blocks are read back and
  /// overlaid with the intended span.
  void update_blocks_after_byte_write(std::uint64_t offset, const void* src,
                                      std::size_t bytes);
  /// Apply a read-side corruption decision to a buffer just read.
  bool apply_read_corruption(void* dst, std::size_t bytes);
  VerifyResult classify_mismatch(unsigned file_index, std::uint64_t block,
                                 bool injected_now);

  /// O_DIRECT sibling fd of stripe `file_index`, or -1 (direct_io off, or
  /// the open failed — tmpfs, for one, refuses O_DIRECT).
  int direct_fd(unsigned file_index) const {
    return direct_fds_.empty() ? -1 : direct_fds_[file_index];
  }

  std::size_t count_;
  std::size_t bytes_per_vector_;
  FileBackendOptions options_;
  std::size_t block_bytes_ = 0;  ///< integrity-block granularity (resolved)
  /// Removed on close, no fault schedule, one record per integrity block:
  /// the files come from and go back to the idle-file pool.
  bool recyclable_ = false;
  std::vector<int> fds_;
  std::vector<int> direct_fds_;  ///< empty when direct_io is off
  std::vector<std::string> paths_;
  std::vector<FileIntegrity> integrity_;  ///< one per stripe file
  std::unique_ptr<FaultInjector> injector_;  ///< null: injection disabled
  /// Kind/depth/permutation plus the injector, retry policy and latency
  /// spike every transfer runs under; built once in the constructor.
  AioEngineOptions engine_options_;
  std::atomic<std::uint64_t> modeled_ns_{0};
  std::atomic<std::uint64_t> io_ops_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> io_retries_{0};
  std::atomic<std::uint64_t> io_exhausted_{0};
  std::atomic<std::uint64_t> corruptions_injected_{0};
  std::atomic<std::uint64_t> io_batches_{0};
  std::atomic<std::uint64_t> io_coalesced_{0};
  std::atomic<std::uint64_t> io_write_coalesced_{0};
  /// Serialises whole batches on the engine: AioEngine's contract is one
  /// submitting/waiting thread at a time. Interleaved batches would
  /// cross-deliver completions (tokens are batch-relative).
  /// Ops *within* a batch still overlap — that is where the parallelism is.
  mutable Mutex engine_mutex_;
  /// Built from io_engine/io_depth/io_permute_seed; declared after the
  /// injector it borrows, destroyed before it. Null when shared_engine_ was
  /// adopted instead.
  std::unique_ptr<AioEngine> engine_ PLFOC_GUARDED_BY(engine_mutex_);
  /// The adopted shared engine (see FileBackendOptions::shared_engine), or
  /// null. Batches lock the handle's own mutex, which serialises whole
  /// batches across *all* backends on the handle.
  std::shared_ptr<AioEngineHandle> shared_engine_;

 public:
  /// True when this backend batches through a shared engine handle.
  bool shared_engine_active() const { return shared_engine_ != nullptr; }
};

/// A unique temporary file path under $TMPDIR (or /tmp) for vector files.
std::string temp_vector_file_path(const std::string& tag);

}  // namespace plfoc
