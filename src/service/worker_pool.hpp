// Fixed-size thread pool for the service workers.
//
// Deliberately minimal: workers are plain std::threads running the service's
// worker loop to completion (the loop exits when the FairJobQueue is closed
// and drained). Each worker owns every Session it builds — no likelihood
// state is ever shared between threads, so the single-threaded out-of-core
// store needs no extra locking.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace plfoc {

class WorkerPool {
 public:
  /// Spawns `workers` (>= 1) threads, each running `body(worker_index)`.
  WorkerPool(std::size_t workers, std::function<void(std::size_t)> body);
  ~WorkerPool();  ///< joins (idempotent with an earlier join())
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Block until every worker's body returns. Idempotent; not safe to call
  /// concurrently from two threads.
  void join();

  std::size_t size() const { return threads_.size(); }

 private:
  std::vector<std::thread> threads_;
};

}  // namespace plfoc
