#include "ooc/aio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "util/checks.hpp"
#include "util/hash.hpp"
#include "util/mutex.hpp"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define PLFOC_HAVE_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#endif

namespace plfoc {
namespace {

/// O_DIRECT demands 512-aligned position, length and buffer; an attempt that
/// violates any of the three goes through the buffered descriptor instead.
int pick_fd(const AioOp& op, std::uint64_t position, std::size_t request,
            const char* cursor) {
  if (op.direct_fd >= 0 && position % 512 == 0 && request % 512 == 0 &&
      reinterpret_cast<std::uintptr_t>(cursor) % 512 == 0)
    return op.direct_fd;
  return op.fd;
}

/// One attempt chosen by TransferState::next_attempt: the byte count to
/// request, or a simulated errno that stands for a syscall which transferred
/// nothing (it never reaches the kernel).
struct Attempt {
  std::size_t request = 0;
  int simulated_errno = 0;
};

/// The per-op retry/injection state machine, in two steps every transfer
/// driver shares: run_transfer loops it over pread/pwrite, the io_uring
/// engine steps it from SQEs and CQEs. POSIX permits pread / pwrite to
/// transfer fewer bytes than requested or fail with EINTR on a perfectly
/// healthy device, so short-transfer resumption and EINTR retry are
/// unconditional — they neither consume retry budget nor depend on fault
/// injection being configured. Transient errors (EIO, ENOSPC, ...) consume
/// the bounded RetryPolicy budget with exponential backoff; completed
/// progress is kept across retries (partial-I/O resumption), and any
/// successful transfer resets the consecutive-failure count. Counter side
/// effects accumulate into the completion, and exhaustion is recorded there
/// instead of thrown: the engines run this off the calling thread, where a
/// throw would terminate the process.
struct TransferState {
  std::size_t done = 0;  ///< bytes completed so far
  unsigned consecutive_failures = 0;
  unsigned faults_this_transfer = 0;  ///< data-path faults (burst cap)
  std::uint64_t backoff_us = 0;
  AioCompletion completion;

  TransferState(const AioOp& op, const AioEngineOptions& options)
      : backoff_us(options.retry.backoff_initial_us) {
    completion.token = op.token;
  }

  bool finished(const AioOp& op) const {
    return done == op.bytes || completion.exhausted != 0;
  }
  std::uint64_t position(const AioOp& op) const { return op.offset + done; }
  char* cursor(const AioOp& op) const {
    return static_cast<char*>(op.buffer) + done;
  }

  /// Step one: consult the injector (when configured) before the attempt.
  Attempt next_attempt(const AioOp& op, const AioEngineOptions& options) {
    const std::size_t remaining = op.bytes - done;
    Attempt attempt{remaining, 0};
    if (options.injector == nullptr) return attempt;
    const FaultDecision fault = const_cast<FaultInjector*>(options.injector)
                                    ->next(op.is_write, faults_this_transfer);
    if (fault.kind != FaultKind::kNone) ++completion.faults;
    switch (fault.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kLatency:
        // A stall, not an error: the transfer proceeds untouched and the
        // spike does not count against the burst cap.
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(options.latency_ns));
        break;
      case FaultKind::kShortTransfer:
        ++faults_this_transfer;
        if (remaining > 1)
          attempt.request = 1 + static_cast<std::size_t>(
                                    fault.fraction *
                                    static_cast<double>(remaining - 1));
        break;
      case FaultKind::kEintr:
        ++faults_this_transfer;
        attempt.simulated_errno = EINTR;
        break;
      case FaultKind::kEio:
        ++faults_this_transfer;
        attempt.simulated_errno = EIO;
        break;
      case FaultKind::kEnospc:
        ++faults_this_transfer;
        attempt.simulated_errno = op.is_write ? ENOSPC : EIO;
        break;
    }
    return attempt;
  }

  /// Step two: absorb one attempt's result — bytes moved, or -errno.
  void absorb(const AioOp& op, ssize_t result, bool injected,
              const AioEngineOptions& options) {
    if (result < 0) {
      const int error = static_cast<int>(-result);
      if (error == EINTR) {
        ++completion.retries;  // mandatory POSIX handling, never budgeted
        return;
      }
      if (consecutive_failures < options.retry.max_retries) {
        ++consecutive_failures;
        ++completion.retries;
        if (backoff_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          backoff_us = std::min<std::uint64_t>(
              options.retry.backoff_max_us,
              static_cast<std::uint64_t>(static_cast<double>(backoff_us) *
                                         options.retry.backoff_multiplier));
        }
        return;  // resume from position(): prior progress is kept
      }
      completion.exhausted = 1;
      completion.error = error;
      completion.fail_offset = position(op);
      completion.attempts = consecutive_failures + 1;
      completion.injected = injected;
      return;
    }
    PLFOC_REQUIRE(result > 0,
                  op.is_write
                      ? "pwrite transferred no bytes"
                      : "pread hit end of vector file (file truncated?)");
    // A transfer that did not finish in this attempt resumes from the new
    // cursor on the next one — count that continuation as a retry.
    if (static_cast<std::size_t>(result) < op.bytes - done)
      ++completion.retries;
    consecutive_failures = 0;
    backoff_us = options.retry.backoff_initial_us;
    done += static_cast<std::size_t>(result);
  }
};

}  // namespace

AioCompletion run_transfer(const AioOp& op, const AioEngineOptions& options) {
  TransferState state(op, options);
  while (!state.finished(op)) {
    const Attempt attempt = state.next_attempt(op, options);
    ssize_t result = -attempt.simulated_errno;
    if (attempt.simulated_errno == 0) {
      const std::uint64_t position = state.position(op);
      char* cursor = state.cursor(op);
      const int fd = pick_fd(op, position, attempt.request, cursor);
      result = op.is_write ? ::pwrite(fd, cursor, attempt.request,
                                      static_cast<off_t>(position))
                           : ::pread(fd, cursor, attempt.request,
                                     static_cast<off_t>(position));
      if (result < 0) result = -errno;
    }
    state.absorb(op, result, attempt.simulated_errno != 0, options);
  }
  return state.completion;
}

namespace {

/// Ops execute inline at submit() in submission order; completions pop FIFO.
/// This is run_transfer, the FileBackend's unbatched path, wearing the queue
/// interface.
class SyncAioEngine final : public AioEngine {
 public:
  explicit SyncAioEngine(const AioEngineOptions& options)
      : options_(options) {}
  const char* name() const override { return "sync"; }

  void submit(const AioOp* ops, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i)
      done_.push_back(run_transfer(ops[i], options_));
  }

  std::size_t wait(AioCompletion* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && !done_.empty()) {
      out[n++] = done_.front();
      done_.pop_front();
    }
    return n;
  }

 private:
  AioEngineOptions options_;
  std::deque<AioCompletion> done_;
};

/// The test backend: ops still execute eagerly in submission order (file
/// mutation order stays deterministic, and in-batch ops never alias by the
/// engine contract), but the batch's completions are delivered in a
/// seed-chosen permutation. Exercises every reordering the async engines can
/// produce, reproducibly.
class DeterministicAioEngine final : public AioEngine {
 public:
  explicit DeterministicAioEngine(const AioEngineOptions& options)
      : options_(options) {}
  const char* name() const override { return "deterministic"; }

  void submit(const AioOp* ops, std::size_t count) override {
    std::vector<AioCompletion> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      batch.push_back(run_transfer(ops[i], options_));
    permute(batch);
    for (const AioCompletion& completion : batch) done_.push_back(completion);
  }

  std::size_t wait(AioCompletion* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && !done_.empty()) {
      out[n++] = done_.front();
      done_.pop_front();
    }
    return n;
  }

 private:
  void permute(std::vector<AioCompletion>& batch) {
    const std::uint64_t batch_id = batch_counter_++;
    if (options_.permute_seed == kAioOrderIdentity || batch.size() < 2) return;
    if (options_.permute_seed == kAioOrderReverse) {
      std::reverse(batch.begin(), batch.end());
      return;
    }
    // Fisher–Yates keyed by (seed, batch index): every batch of a run sees a
    // different but fully reproducible delivery order.
    std::uint64_t state = mix64(options_.permute_seed ^ mix64(batch_id));
    for (std::size_t i = batch.size() - 1; i > 0; --i) {
      state = mix64(state);
      std::swap(batch[i], batch[state % (i + 1)]);
    }
  }

  AioEngineOptions options_;
  std::uint64_t batch_counter_ = 0;
  std::deque<AioCompletion> done_;
};

/// Portable async backend: `depth` worker threads drain a shared submission
/// queue; completions arrive in whatever order the transfers finish. Even on
/// a single core this overlaps device (and injected-latency) waits across
/// ops — the disk-bound regime's win does not need parallel CPUs.
class ThreadPoolAioEngine final : public AioEngine {
 public:
  explicit ThreadPoolAioEngine(const AioEngineOptions& options)
      : options_(options) {
    const unsigned n = std::max(1u, options_.depth);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      workers_.emplace_back([this] { worker(); });
  }

  ~ThreadPoolAioEngine() override {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    work_.notify_all();
    for (std::thread& thread : workers_) thread.join();
  }

  const char* name() const override { return "threads"; }

  void submit(const AioOp* ops, std::size_t count) override {
    {
      MutexLock lock(mutex_);
      for (std::size_t i = 0; i < count; ++i) queue_.push_back(ops[i]);
      pending_ += count;
    }
    if (count == 1)
      work_.notify_one();
    else
      work_.notify_all();
  }

  std::size_t wait(AioCompletion* out, std::size_t max) override {
    MutexLock lock(mutex_);
    while (done_.empty() && pending_ > 0) reaped_.wait(lock);
    std::size_t n = 0;
    while (n < max && !done_.empty()) {
      out[n++] = done_.front();
      done_.pop_front();
    }
    return n;
  }

 private:
  void worker() {
    MutexLock lock(mutex_);
    for (;;) {
      while (!stop_ && queue_.empty()) work_.wait(lock);
      if (stop_) return;
      const AioOp op = queue_.front();
      queue_.pop_front();
      lock.unlock();
      const AioCompletion completion = run_transfer(op, options_);
      lock.lock();
      done_.push_back(completion);
      --pending_;
      reaped_.notify_all();
    }
  }

  AioEngineOptions options_;
  mutable Mutex mutex_;
  CondVar work_;
  CondVar reaped_;
  std::deque<AioOp> queue_ PLFOC_GUARDED_BY(mutex_);
  std::deque<AioCompletion> done_ PLFOC_GUARDED_BY(mutex_);
  /// Ops submitted but not yet moved to done_.
  std::size_t pending_ PLFOC_GUARDED_BY(mutex_) = 0;
  bool stop_ PLFOC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

#ifdef PLFOC_HAVE_URING

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int ring_fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

/// Linux io_uring backend over raw syscalls (the toolchain ships no
/// liburing): one SQ/CQ ring pair, ops resubmitted from the completion
/// handler on short transfers, EINTR, and budgeted transient errors — each
/// op's TransferState, stepped by SQEs and CQEs instead of a loop. Injected
/// faults are decided at (re)submission: a simulated errno never reaches the
/// kernel, it synthesizes a failed attempt inline.
class UringAioEngine final : public AioEngine {
 public:
  static std::unique_ptr<UringAioEngine> create(
      const AioEngineOptions& options) {
    auto engine = std::unique_ptr<UringAioEngine>(new UringAioEngine(options));
    if (!engine->init()) return nullptr;
    return engine;
  }

  ~UringAioEngine() override {
    if (sq_ring_ != nullptr && sq_ring_ != MAP_FAILED)
      ::munmap(sq_ring_, sq_ring_bytes_);
    if (!single_mmap_ && cq_ring_ != nullptr && cq_ring_ != MAP_FAILED)
      ::munmap(cq_ring_, cq_ring_bytes_);
    if (sqes_ != nullptr && static_cast<void*>(sqes_) != MAP_FAILED)
      ::munmap(sqes_, sqe_bytes_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  const char* name() const override { return "uring"; }

  void submit(const AioOp* ops, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      const Pending pending{ops[i], TransferState(ops[i], options_)};
      std::size_t slot;
      if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
        pending_[slot] = pending;
      } else {
        slot = pending_.size();
        pending_.push_back(pending);
      }
      ++in_flight_;
      drive(slot);
    }
    flush(0);  // kick the kernel without waiting
  }

  std::size_t wait(AioCompletion* out, std::size_t max) override {
    while (done_.empty() && in_flight_ > 0) {
      flush(1);
      reap();
    }
    std::size_t n = 0;
    while (n < max && !done_.empty()) {
      out[n++] = done_.front();
      done_.pop_front();
    }
    return n;
  }

 private:
  struct Pending {
    AioOp op;
    TransferState state;
  };

  explicit UringAioEngine(const AioEngineOptions& options)
      : options_(options) {}

  bool init() {
    io_uring_params params;
    std::memset(&params, 0, sizeof params);
    const unsigned entries =
        std::min(1024u, std::max(1u, options_.depth));
    ring_fd_ = sys_io_uring_setup(entries, &params);
    if (ring_fd_ < 0) return false;

    sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(__u32);
    cq_ring_bytes_ =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    single_mmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap_)
      sq_ring_bytes_ = cq_ring_bytes_ =
          std::max(sq_ring_bytes_, cq_ring_bytes_);
    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) return false;
    if (single_mmap_) {
      cq_ring_ = sq_ring_;
    } else {
      cq_ring_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_,
                        IORING_OFF_CQ_RING);
      if (cq_ring_ == MAP_FAILED) return false;
    }
    sqe_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, sqe_bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) return false;

    char* sq = static_cast<char*>(sq_ring_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    sq_entries_ = *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_entries);
    sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    char* cq = static_cast<char*>(cq_ring_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    return true;
  }

  /// Step `slot`'s state machine until an SQE is pushed or the op finishes.
  /// Simulated errnos synthesize a failed attempt without the kernel.
  void drive(std::size_t slot) {
    Pending& p = pending_[slot];
    while (!p.state.finished(p.op)) {
      const Attempt attempt = p.state.next_attempt(p.op, options_);
      if (attempt.simulated_errno == 0) {
        push_sqe(slot, attempt.request);
        return;
      }
      p.state.absorb(p.op, -attempt.simulated_errno, true, options_);
    }
    finish(slot);
  }

  void push_sqe(std::size_t slot, std::size_t request) {
    // Ring full: hand what we have to the kernel first.
    while (*sq_tail_ - __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE) >=
           sq_entries_)
      flush(1);
    Pending& p = pending_[slot];
    const unsigned tail = *sq_tail_;
    const unsigned idx = tail & sq_mask_;
    io_uring_sqe* sqe = &sqes_[idx];
    std::memset(sqe, 0, sizeof *sqe);
    sqe->opcode = p.op.is_write ? IORING_OP_WRITE : IORING_OP_READ;
    const std::uint64_t position = p.state.position(p.op);
    char* cursor = p.state.cursor(p.op);
    sqe->fd = pick_fd(p.op, position, request, cursor);
    sqe->addr = reinterpret_cast<std::uint64_t>(cursor);
    sqe->len = static_cast<unsigned>(request);
    sqe->off = position;
    sqe->user_data = slot;
    sq_array_[idx] = idx;
    __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
    ++to_submit_;
  }

  void flush(unsigned min_complete) {
    for (;;) {
      const int rc = sys_io_uring_enter(ring_fd_, to_submit_, min_complete,
                                        IORING_ENTER_GETEVENTS);
      if (rc >= 0) {
        to_submit_ -= static_cast<unsigned>(rc);
        return;
      }
      PLFOC_REQUIRE(errno == EINTR, std::string("io_uring_enter failed: ") +
                                        std::strerror(errno));
    }
  }

  void reap() {
    unsigned head = *cq_head_;
    const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    std::vector<std::pair<std::size_t, int>> results;
    while (head != tail) {
      const io_uring_cqe& cqe = cqes_[head & cq_mask_];
      results.emplace_back(static_cast<std::size_t>(cqe.user_data), cqe.res);
      ++head;
    }
    __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    for (const auto& [slot, res] : results) {
      Pending& p = pending_[slot];
      p.state.absorb(p.op, res, false, options_);
      drive(slot);
    }
    if (to_submit_ > 0) flush(0);  // resubmissions from this reap
  }

  void finish(std::size_t slot) {
    done_.push_back(pending_[slot].state.completion);
    free_.push_back(slot);
    --in_flight_;
  }

  AioEngineOptions options_;
  int ring_fd_ = -1;
  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  std::size_t cq_ring_bytes_ = 0;
  std::size_t sqe_bytes_ = 0;
  bool single_mmap_ = false;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
  unsigned to_submit_ = 0;
  std::vector<Pending> pending_;
  std::vector<std::size_t> free_;
  std::deque<AioCompletion> done_;
  std::size_t in_flight_ = 0;
};

#endif  // PLFOC_HAVE_URING

}  // namespace

const char* aio_engine_name(AioEngineKind kind) {
  switch (kind) {
    case AioEngineKind::kSync: return "sync";
    case AioEngineKind::kThreads: return "threads";
    case AioEngineKind::kUring: return "uring";
    case AioEngineKind::kDeterministic: return "deterministic";
  }
  return "?";
}

AioEngineKind parse_aio_engine(const std::string& name) {
  if (name == "sync") return AioEngineKind::kSync;
  if (name == "threads") return AioEngineKind::kThreads;
  if (name == "uring") return AioEngineKind::kUring;
  if (name == "deterministic") return AioEngineKind::kDeterministic;
  throw Error("unknown I/O engine '" + name +
              "' (expected sync | threads | uring | deterministic)");
}

void AioEngine::collect(AioCompletion* out, std::size_t count) {
  std::size_t got = 0;
  while (got < count) {
    const std::size_t n = wait(out + got, count - got);
    PLFOC_REQUIRE(n > 0,
                  "AioEngine ran dry before delivering every completion of a "
                  "batch — a completion was lost");
    got += n;
  }
}

bool aio_uring_supported() {
#ifdef PLFOC_HAVE_URING
  io_uring_params params;
  std::memset(&params, 0, sizeof params);
  const int fd = sys_io_uring_setup(1, &params);
  if (fd < 0) return false;
  ::close(fd);
  return true;
#else
  return false;
#endif
}

std::unique_ptr<AioEngine> make_aio_engine(const AioEngineOptions& options) {
  switch (options.kind) {
    case AioEngineKind::kSync:
      return std::make_unique<SyncAioEngine>(options);
    case AioEngineKind::kThreads:
      return std::make_unique<ThreadPoolAioEngine>(options);
    case AioEngineKind::kUring:
#ifdef PLFOC_HAVE_URING
      if (auto engine = UringAioEngine::create(options)) return engine;
#endif
      // The kernel (or seccomp, or RLIMIT_MEMLOCK) refused the ring: degrade
      // to the portable pool rather than failing the run.
      return std::make_unique<ThreadPoolAioEngine>(options);
    case AioEngineKind::kDeterministic:
      return std::make_unique<DeterministicAioEngine>(options);
  }
  return std::make_unique<SyncAioEngine>(options);
}

std::shared_ptr<AioEngineHandle> make_shared_aio_engine(AioEngineKind kind,
                                                        unsigned depth) {
  if (kind == AioEngineKind::kSync) return nullptr;
  AioEngineOptions options;
  options.kind = kind;
  options.depth = depth < 1 ? 1 : depth;
  auto handle = std::make_shared<AioEngineHandle>();
  handle->kind = kind;
  handle->depth = options.depth;
  MutexLock lock(handle->mutex);
  handle->engine = make_aio_engine(options);
  return handle;
}

}  // namespace plfoc
