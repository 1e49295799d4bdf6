// Prefetch thread — the paper's Sec. 5 future-work item, implemented as an
// optional extension. A traversal descriptor reveals the exact order in which
// ancestral vectors will be read, so a background thread can swap upcoming
// vectors into RAM while the likelihood kernels compute, hiding swap-in
// latency.
//
// The worker is *cursor-coupled* to the engine: the engine reports how many
// entries of the submitted read sequence it has consumed, and the worker only
// prefetches within a bounded lookahead window beyond that cursor. Without
// the window the worker trails the engine (re-reading vectors that were
// already consumed and evicted — pure waste); without the cursor it cannot
// skip entries the engine has already taken the miss for.
//
// The worker hands the window over in *batches*: up to
// store.prefetch_batch_limit() upcoming indices per wakeup go into one
// OutOfCoreStore::prefetch_batch() call, which async I/O engines turn into a
// single submission-queue batch (adjacent vectors coalesce into ranged
// reads). With the sync engine the limit is 1: one index per call.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "ooc/ooc_store.hpp"
#include "util/mutex.hpp"

namespace plfoc {

class Prefetcher {
 public:
  /// Starts the worker thread. The store must outlive the worker thread:
  /// the constructor registers a lifecycle guard with the store, and
  /// destroying the store while the guard is held aborts (see
  /// OutOfCoreStore::~OutOfCoreStore) instead of letting the worker touch a
  /// dead slot table. `lookahead` bounds how far beyond the engine's cursor
  /// the worker runs (in read-sequence entries).
  explicit Prefetcher(OutOfCoreStore& store, std::size_t lookahead = 8);
  ~Prefetcher();
  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Stop and join the worker thread, then release the store lifecycle
  /// guard. Idempotent — safe to call any number of times, and the
  /// destructor calls it too — so owners that must tear down in a specific
  /// order (a service worker draining its session) can stop the thread
  /// explicitly before the store goes away. Not safe to call concurrently
  /// from two threads. After stop(), submit()/notify_progress() are no-ops
  /// and drain() returns immediately.
  void stop();

  /// Replace the plan with the read sequence of the next traversal (the
  /// inner-vector indices in the order the engine will read them). Resets
  /// the progress cursor.
  void submit(std::vector<std::uint32_t> upcoming);

  /// The engine has consumed `consumed` entries of the current plan; the
  /// worker may advance its window accordingly.
  void notify_progress(std::size_t consumed);

  /// Block until the worker has prefetched everything currently allowed by
  /// the window (for deterministic tests).
  void drain();

 private:
  void worker();
  std::size_t window_end() const PLFOC_REQUIRES(mutex_) {
    const std::size_t end = cursor_ + lookahead_;
    return end < plan_.size() ? end : plan_.size();
  }

  OutOfCoreStore& store_;
  const std::size_t lookahead_;
  mutable Mutex mutex_;
  CondVar wake_;
  CondVar idle_;
  std::vector<std::uint32_t> plan_ PLFOC_GUARDED_BY(mutex_);
  /// Worker position in plan_.
  std::size_t next_ PLFOC_GUARDED_BY(mutex_) = 0;
  /// Engine progress in plan_.
  std::size_t cursor_ PLFOC_GUARDED_BY(mutex_) = 0;
  bool stop_ PLFOC_GUARDED_BY(mutex_) = false;
  bool busy_ PLFOC_GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

}  // namespace plfoc
