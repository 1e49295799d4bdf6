// Persistent thread team for block-parallel PLF kernels.
//
// A KernelPool is created once per Session (sized by --threads) and reused
// for every newview / evaluate_branch call, so the kernels never pay thread
// creation on the hot path. Work is handed out as pattern-block indices from
// an atomic counter: WHICH thread runs WHICH block is nondeterministic, but
// callers only write block-disjoint outputs and reduce per-block partials
// serially in block order, so every result is independent of the thread
// count (see docs/parallelism.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/mutex.hpp"

namespace plfoc {

class KernelPool {
 public:
  /// `threads` is the TOTAL parallelism including the calling thread; the
  /// pool spawns threads - 1 workers (none for threads <= 1). If a spawn
  /// throws, the workers already started are joined before the rethrow.
  explicit KernelPool(unsigned threads);
  ~KernelPool();

  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

  unsigned threads() const { return threads_; }

  /// Runs fn(b) for every b in [0, blocks), distributing blocks across the
  /// team (the caller participates), and returns when all blocks are done.
  /// Rethrows the first exception any invocation of fn raised. Not
  /// re-entrant: one job at a time, submitted from one thread (each Session
  /// owns its pool, so this holds by construction).
  void run_blocks(std::size_t blocks,
                  const std::function<void(std::size_t)>& fn);

  /// Attach a cancellation token, consulted before every pattern-block
  /// claim (caller and workers alike). A tripped token surfaces as a
  /// CancelledError rethrown by run_blocks through the existing
  /// first-exception machinery. Set between jobs only (the pool is
  /// quiescent between run_blocks calls by the non-re-entrancy contract).
  void set_cancel_token(CancelToken token);

 private:
  void worker_loop();
  /// Wake every worker with stop_ set and join it.
  void stop_workers();

  unsigned threads_;
  std::vector<std::thread> workers_;

  // Generation-condvar dispatch state. Everything a worker reads to decide
  // whether (and what) to run is guarded; the block counter is the only
  // cross-thread state touched outside the lock, and it is atomic.
  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  bool stop_ PLFOC_GUARDED_BY(mutex_) = false;
  /// Bumped per job; workers wait on it.
  std::uint64_t generation_ PLFOC_GUARDED_BY(mutex_) = 0;
  std::size_t blocks_ PLFOC_GUARDED_BY(mutex_) = 0;
  const std::function<void(std::size_t)>* job_ PLFOC_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t busy_workers_ PLFOC_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ PLFOC_GUARDED_BY(mutex_);
  /// Copied into each job's dispatch under mutex_; workers read their copy.
  CancelToken cancel_ PLFOC_GUARDED_BY(mutex_);

  std::atomic<std::size_t> next_block_{0};
};

}  // namespace plfoc
