// Session: the one-stop public entry point.
//
// Bundles what a caller otherwise wires manually — pattern compression, tip
// binding, storage backend construction (in-RAM / out-of-core / paged), and
// the likelihood engine — behind a small options struct. Mirrors how the
// paper's modified RAxML is driven: pick a dataset, a model, a memory limit
// (-L) or fraction f, and a replacement strategy.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "likelihood/engine.hpp"
#include "likelihood/kernel_pool.hpp"
#include "msa/patterns.hpp"
#include "ooc/inram_store.hpp"
#include "ooc/ooc_store.hpp"
#include "ooc/paged_store.hpp"

namespace plfoc {

enum class Backend {
  kInRam,      ///< the standard implementation (everything resident)
  kOutOfCore,  ///< the paper's slot manager
  kPaged,      ///< deterministic OS-paging baseline (Fig. 5 "Standard")
  kMmap,       ///< memory-mapped file, OS page cache does the caching
};

struct SessionOptions {
  /// Upper bound on `threads`. A count can arrive from outside the process
  /// (a jobfile threads= key, a wire SubmitRequest), and each thread past
  /// the first is an OS thread the kernel pool starts, so validate()
  /// rejects anything above this.
  static constexpr unsigned kMaxThreads = 256;
  /// Upper bound on `categories`, the engine's limit. The count sizes every
  /// vector of the store, so validate() rejects a larger one (or 0) before
  /// any store is built.
  static constexpr unsigned kMaxCategories = 16;

  unsigned categories = 4;  ///< discrete-Γ rate categories, 1..kMaxCategories
  double alpha = 1.0;
  Backend backend = Backend::kInRam;
  /// Kernel threads for pattern-block-parallel PLF kernels (--threads).
  /// 1 = serial (no pool). The log likelihood is bit-identical for every
  /// value; see docs/parallelism.md. 0 is normalised to 1; at most
  /// kMaxThreads.
  unsigned threads = 1;
  /// Collapse identical columns before building vectors (RAxML default).
  bool compress_patterns = true;

  // Out-of-core / paged memory limit. The out-of-core backend takes exactly
  // one of these (`ram_fraction` is the paper's f, `ram_budget_bytes` is
  // RAxML's -L); the paged backend takes only `ram_budget_bytes`. Other
  // backends ignore both. Enforced by validate().
  double ram_fraction = 0.0;
  std::uint64_t ram_budget_bytes = 0;

  ReplacementPolicy policy = ReplacementPolicy::kRandom;
  bool read_skipping = true;
  bool write_back_clean = true;
  /// Store vectors on disk in single precision (out-of-core backend only):
  /// halves file size and transfer bytes at a ~1e-7 relative perturbation
  /// (see ooc/ooc_store.hpp, DiskPrecision).
  bool single_precision_disk = false;
  /// Out-of-core backend only: evict a cherry's vector (both children are
  /// tips) without writing it back, and rebuild it from the tips on its next
  /// read instead of reading the file. Bit-identical either way, also under
  /// single_precision_disk. The paper benches turn it off to keep the
  /// paper's access stream (docs/storage-layer.md).
  bool recompute_cherries = true;
  std::uint64_t seed = 1;
  /// Backing file path (empty = unique temp file, removed on destruction).
  std::string vector_file;
  unsigned num_files = 1;
  std::size_t page_bytes = 4096;  ///< paged backend only
  /// Virtual device cost model applied to all backing-file I/O (see
  /// ooc/file_backend.hpp); disabled by default.
  DeviceModel device;
  /// Seeded fault-injection schedule applied to the backing file of every
  /// file-backed backend (out-of-core / paged); disabled by default.
  /// The mmap and in-RAM backends have no syscall I/O path and ignore it.
  /// Every backing file (and the mmap mapping) carries per-vector checksums
  /// verified at swap-in / re-fault; a mismatch self-heals through the
  /// likelihood engine before surfacing as IntegrityError
  /// (docs/robustness.md).
  FaultConfig faults;
  /// Retry budget + backoff for transient backing-file errors (injected or
  /// real). max_retries = 0 disables retrying: the first transient error
  /// surfaces as IoError.
  RetryPolicy io_retry;
  /// Async I/O engine for the backing file of every file-backed backend
  /// (out-of-core / paged): kSync keeps the historical sequential
  /// syscalls; kThreads is the portable submission/completion thread pool;
  /// kUring is Linux io_uring (degrades to kThreads when the host lacks
  /// support); kDeterministic is the test engine that delivers completions
  /// in a seeded permutation (docs/async-io.md).
  AioEngineKind io_engine = AioEngineKind::kSync;
  /// Submission-queue depth for async engines (clamped to >= 1).
  unsigned io_depth = 8;
  /// Completion-delivery permutation seed (deterministic engine only).
  std::uint64_t io_permute_seed = kAioOrderIdentity;
  /// Open a second O_DIRECT descriptor per backing file and route
  /// 512-byte-aligned transfers through it (best effort: misaligned
  /// attempts and hosts without O_DIRECT fall back to buffered I/O).
  bool direct_io = false;
  /// Optional shared async-I/O engine (see AioEngineHandle in ooc/aio.hpp):
  /// when set, the session's file-backed store adopts this engine instead of
  /// building a private one — the service tier passes one handle to every
  /// worker session so N workers share one submission queue and worker pool
  /// instead of spawning N. Adoption requires the handle's kind/depth to
  /// match io_engine/io_depth and no fault injection; otherwise the store
  /// silently keeps a private engine (see FileBackendOptions::shared_engine).
  std::shared_ptr<AioEngineHandle> shared_aio_engine;
  /// Cooperative cancellation token (util/cancel.hpp). When valid, the
  /// session threads it through the store (checked at every vector acquire),
  /// the kernel pool (checked per pattern-block claim), and the engine
  /// (checked per traversal step), so cancelling or letting the deadline
  /// expire unwinds a running evaluation as CancelledError within one
  /// pattern-block / traversal-step / vector-acquire granularity. The default
  /// (null) token makes every check free.
  CancelToken cancel;

  /// Throws plfoc::Error when `threads` exceeds kMaxThreads or
  /// `categories` is outside 1..kMaxCategories, or unless the
  /// memory-limit fields are consistent with the backend: out-of-core needs
  /// exactly one of ram_fraction / ram_budget_bytes (neither or both is a
  /// configuration error), paged needs ram_budget_bytes and no
  /// ram_fraction. Called by the Session
  /// constructor; the service layer also calls it per job so a bad jobfile
  /// line surfaces as that job's error instead of aborting the batch.
  void validate() const;
};

/// What one evaluation job produced — the service core's per-job payload.
struct EvalResult {
  double log_likelihood = 0.0;
  double wall_seconds = 0.0;
  OocStats stats;  ///< store counters accumulated up to the evaluation's end
};

class Session {
 public:
  /// Takes ownership of the (uncompressed) alignment and the starting tree;
  /// the substitution model's data type must match the alignment.
  Session(Alignment alignment, Tree tree, SubstitutionModel model,
          SessionOptions options = {});
  /// Shares an immutable alignment with whoever else holds it (the service
  /// hands every job over one bound file the same pattern alignment).
  /// Patterns are compressed into a private copy only when
  /// options.compress_patterns is on and the alignment has no weights yet.
  Session(std::shared_ptr<const Alignment> alignment, Tree tree,
          SubstitutionModel model, SessionOptions options = {});
  /// Clears the store's recovery hook (which captures `this`) before the
  /// engine it dispatches to is destroyed.
  ~Session();

  LikelihoodEngine& engine() { return *engine_; }
  Tree& tree() { return tree_; }
  const Alignment& alignment() const { return *alignment_; }
  AncestralStore& store() { return *store_; }
  const OocStats& stats() const { return store_->stats(); }
  void reset_stats() { store_->reset_stats(); }

  /// Non-null only for the out-of-core backend.
  OutOfCoreStore* out_of_core() {
    return dynamic_cast<OutOfCoreStore*>(store_.get());
  }
  PagedStore* paged() { return dynamic_cast<PagedStore*>(store_.get()); }

  std::size_t patterns() const { return alignment_->num_sites(); }
  std::size_t vector_width() const { return store_->width(); }
  const SessionOptions& options() const { return options_; }

  /// Replace the cancellation token and re-thread it through the store, the
  /// kernel pool, and the engine. A tripped token cannot be un-tripped, so
  /// this (with a fresh or null token) is how a caller reuses a session
  /// after a cancelled evaluation; the interrupted steps were invalidated
  /// on unwind, and the next evaluate() recomputes exactly those.
  void set_cancel_token(CancelToken token);

  /// The one-shot job path shared by the CLI's evaluate mode and the batch
  /// service workers: evaluate the log likelihood at the default root branch
  /// and report wall time plus a snapshot of the store's I/O statistics.
  EvalResult evaluate();

 private:
  SessionOptions options_;
  /// Pattern-compressed when requested; the engine holds a reference.
  std::shared_ptr<const Alignment> alignment_;
  Tree tree_;
  std::unique_ptr<AncestralStore> store_;
  std::unique_ptr<KernelPool> kernel_pool_;  ///< null when threads <= 1
  std::unique_ptr<LikelihoodEngine> engine_;
};

}  // namespace plfoc
