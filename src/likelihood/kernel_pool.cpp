#include "likelihood/kernel_pool.hpp"

namespace plfoc {

KernelPool::KernelPool(unsigned threads)
    : threads_(threads == 0 ? 1u : threads) {
  workers_.reserve(threads_ - 1);
  try {
    for (unsigned i = 0; i + 1 < threads_; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // A joinable std::thread destroyed by the unwind would std::terminate.
    stop_workers();
    throw;
  }
}

KernelPool::~KernelPool() { stop_workers(); }

void KernelPool::stop_workers() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void KernelPool::set_cancel_token(CancelToken token) {
  MutexLock lock(mutex_);
  cancel_ = std::move(token);
}

void KernelPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job;
    std::size_t blocks;
    CancelToken cancel;
    {
      MutexLock lock(mutex_);
      while (!stop_ && generation_ == seen) work_cv_.wait(lock);
      if (stop_) return;
      seen = generation_;
      job = job_;
      blocks = blocks_;
      cancel = cancel_;
    }
    try {
      for (;;) {
        // Per-pattern-block cancellation point: a tripped token stops this
        // worker before it claims another block; the CancelledError rides
        // the first-exception slot out of run_blocks.
        cancel.check();
        const std::size_t b =
            next_block_.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks) break;
        (*job)(b);
      }
    } catch (...) {
      MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      MutexLock lock(mutex_);
      if (--busy_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void KernelPool::run_blocks(std::size_t blocks,
                            const std::function<void(std::size_t)>& fn) {
  if (blocks == 0) return;
  CancelToken cancel;
  if (workers_.empty() || blocks == 1) {
    {
      MutexLock lock(mutex_);
      cancel = cancel_;
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      cancel.check();
      fn(b);
    }
    return;
  }
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    blocks_ = blocks;
    error_ = nullptr;
    next_block_.store(0, std::memory_order_relaxed);
    busy_workers_ = workers_.size();
    ++generation_;
    cancel = cancel_;
  }
  work_cv_.notify_all();
  try {
    for (;;) {
      cancel.check();
      const std::size_t b = next_block_.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) break;
      fn(b);
    }
  } catch (...) {
    MutexLock lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  MutexLock lock(mutex_);
  while (busy_workers_ != 0) done_cv_.wait(lock);
  job_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

}  // namespace plfoc
