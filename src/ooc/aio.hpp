// Asynchronous I/O engine — a submission/completion-queue abstraction under
// the FileBackend (ROADMAP item 2; docs/async-io.md).
//
// The paper's out-of-core regime is disk-bound: a synchronous pread/pwrite
// loop serialises the eviction write-back and the demand read. An AioEngine
// accepts a *batch* of raw transfer ops and delivers their completions as
// they finish, so the stores can overlap the victim write-back with the
// demand read and write a flush's dirty slots as one batch.
//
// Four backends share one contract:
//   kSync          — ops execute in submission order at submit(); the
//                    historical sequential path, byte-identical to the old
//                    one-loop FileBackend (the default).
//   kThreads       — a portable worker pool; completions arrive in whatever
//                    order the workers finish.
//   kUring         — Linux io_uring via raw syscalls (the container carries
//                    no liburing); falls back to kThreads when the kernel
//                    refuses io_uring_setup.
//   kDeterministic — the test backend: ops execute eagerly in submission
//                    order (so file mutation order is deterministic), but the
//                    completions are buffered and delivered in a seed-chosen
//                    permutation. Seed 0 is the identity order, seed 1 fully
//                    reversed, any other seed a splitmix-shuffled order that
//                    also varies per batch. This is what lets the aio test
//                    suite prove the stores' completion handling is
//                    order-independent (docs/async-io.md, "completion-order
//                    determinism contract").
//
// Fault injection and retry live at *submission granularity*: every queued op
// consults the shared FaultInjector schedule before each syscall attempt and
// carries its own RetryPolicy state — one state machine (short-transfer
// resumption, unconditional EINTR retry, bounded transient-error retry with
// exponential backoff) that run_transfer, every engine, and the FileBackend's
// unbatched transfers all share. Instead of throwing, an exhausted op reports
// the final errno in its completion — the FileBackend turns that into a typed
// IoError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "ooc/faults.hpp"
#include "util/mutex.hpp"

namespace plfoc {

enum class AioEngineKind : std::uint8_t {
  kSync,
  kThreads,
  kUring,
  kDeterministic,
};

const char* aio_engine_name(AioEngineKind kind);
/// Parse "sync" | "threads" | "uring" | "deterministic" (the --io-engine
/// vocabulary). Throws plfoc::Error on anything else.
AioEngineKind parse_aio_engine(const std::string& name);

/// Reserved permutation seeds for the deterministic engine.
constexpr std::uint64_t kAioOrderIdentity = 0;  ///< completions in order
constexpr std::uint64_t kAioOrderReverse = 1;   ///< completions reversed

/// One raw transfer: a contiguous span of one file descriptor. `token` is
/// echoed verbatim in the completion so callers can match results to ops.
struct AioOp {
  bool is_write = false;
  int fd = -1;
  /// O_DIRECT sibling of `fd`, or -1. Attempts whose position, length and
  /// buffer are all 512-aligned go through it; others use the buffered fd
  /// (an injected short transfer can break alignment mid-op).
  int direct_fd = -1;
  void* buffer = nullptr;
  std::size_t bytes = 0;
  std::uint64_t offset = 0;
  std::uint64_t token = 0;
};

/// Completion of one AioOp, carrying the outcome plus the counter deltas the
/// per-op retry/injection state machine accumulated. The FileBackend folds
/// the deltas into its robustness atomics at completion time, so totals match
/// the sequential path regardless of delivery order.
struct AioCompletion {
  std::uint64_t token = 0;
  int error = 0;  ///< 0 = success; else errno of the final failed attempt
  std::uint64_t fail_offset = 0;  ///< file position of the failing attempt
  unsigned attempts = 0;          ///< failed attempts + 1 (IoError reporting)
  bool injected = false;  ///< final failure was injector-simulated
  std::uint64_t faults = 0;       ///< injected fault decisions consumed
  std::uint64_t retries = 0;      ///< EINTR / transient / short resumptions
  std::uint64_t exhausted = 0;    ///< 1 when the retry budget ran out
  bool ok() const { return error == 0; }
};

struct AioEngineOptions {
  AioEngineKind kind = AioEngineKind::kSync;
  /// Queue depth: worker count (kThreads) / ring size (kUring). Clamped to
  /// at least 1.
  unsigned depth = 8;
  /// Completion-delivery permutation seed (kDeterministic only).
  std::uint64_t permute_seed = kAioOrderIdentity;
  /// Shared fault-decision stream (may be null: injection disabled). The
  /// engine never owns it — the FileBackend does.
  const FaultInjector* injector = nullptr;
  RetryPolicy retry;
  std::uint64_t latency_ns = 0;  ///< injected latency-spike duration
};

/// Perform one op to completion on the calling thread: the per-op retry and
/// injection state machine driven by pread/pwrite. The sync, thread-pool and
/// deterministic engines run each op through this; the FileBackend calls it
/// directly for its unbatched transfers. Never throws for an I/O failure —
/// exhaustion is reported in the completion.
AioCompletion run_transfer(const AioOp& op, const AioEngineOptions& options);

/// The submission/completion-queue contract. Engines are internally
/// synchronised: submit() and wait() may be called from any one thread at a
/// time (the stores call both under their slot-table locks). Ops submitted
/// in one batch may execute concurrently — callers guarantee their buffers
/// and file ranges do not alias.
class AioEngine {
 public:
  virtual ~AioEngine() = default;
  virtual const char* name() const = 0;
  /// Enqueue `count` ops. May begin — or, for the sync and deterministic
  /// engines, fully perform — execution before returning.
  virtual void submit(const AioOp* ops, std::size_t count) = 0;
  /// Dequeue up to `max` completions, blocking until at least one is
  /// available. Returns 0 only when nothing is in flight or queued.
  virtual std::size_t wait(AioCompletion* out, std::size_t max) = 0;
  /// Collect exactly `count` completions (helper over wait()). Aborts if the
  /// engine runs dry first — that would mean completions were lost.
  void collect(AioCompletion* out, std::size_t count);
};

/// Build an engine. kUring silently degrades to kThreads when io_uring is
/// unavailable (old kernel, seccomp, resource limits) — name() tells.
std::unique_ptr<AioEngine> make_aio_engine(const AioEngineOptions& options);

/// One AioEngine shared by several FileBackends (the service layer's worker
/// Sessions), instead of a private engine — and worker pool — per store. The
/// mutex serialises *whole batches* (submit + collect together), exactly the
/// discipline each FileBackend already applies to its private engine; ops
/// within a batch still overlap, which is where the parallelism is. A store
/// only adopts the handle when it has no fault schedule of its own (the
/// engine binds the injector/retry/latency it was built with), and its
/// resolved `kind`/`depth` must match the store's request — FileBackend
/// checks both and quietly keeps a private engine otherwise.
struct AioEngineHandle {
  AioEngineKind kind = AioEngineKind::kSync;  ///< kind the engine was built as
  unsigned depth = 1;
  Mutex mutex;
  std::unique_ptr<AioEngine> engine PLFOC_GUARDED_BY(mutex);
};

/// Build a shareable engine handle (no injector, default retry). Returns
/// null for kSync — the sequential path has no engine state worth sharing.
std::shared_ptr<AioEngineHandle> make_shared_aio_engine(AioEngineKind kind,
                                                        unsigned depth);

/// True when this host can set up an io_uring instance right now.
bool aio_uring_supported();

}  // namespace plfoc
