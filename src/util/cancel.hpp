// Cooperative cancellation and deadlines (docs/robustness.md "Deadlines,
// cancellation, and overload").
//
// A CancelToken is a cheap shared handle to one evaluation's cancellation
// state. The default-constructed token is *null*: every query is false and
// check() is a no-op, so code paths that never got a token pay nothing.
// A live token is threaded from JobSpec through Session into the store,
// the likelihood engine, and the kernel pool; each layer calls check() at
// its natural batching boundary:
//
//   AncestralStore::acquire()  — before any slot mutation (every backend);
//   LikelihoodEngine::execute  — once per traversal step;
//   KernelPool::run_blocks     — before each pattern-block claim.
//
// check() throws CancelledError, a typed plfoc::Error that unwinds through
// the normal lease/RAII machinery — slots are unpinned, no partial install
// happens, and the store stays audit-clean. The throw happens *before* any
// state changes at each check point, which is what makes the granularity
// claim ("within one pattern block / vector acquire") hold.
//
// Three parties may trip a token: the owner (explicit cancel), the deadline
// (a monotonic-clock instant checked inside check()), and the service
// watchdog (a stalled progress counter — check() bumps `progress` on every
// call, so a frozen counter means the evaluation is wedged, not slow).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "util/checks.hpp"

namespace plfoc {

/// Why a token fired. Resolved at trip time and carried on the error so the
/// service can map the unwind to a typed JobStatus.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kExplicit,  ///< Service::cancel or the caller's own cancel()
  kDeadline,  ///< the token's monotonic deadline passed
  kWatchdog,  ///< the service watchdog saw a frozen progress counter
};

inline const char* cancel_reason_name(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kExplicit:
      return "cancelled";
    case CancelReason::kDeadline:
      return "deadline exceeded";
    case CancelReason::kWatchdog:
      return "watchdog stall";
  }
  return "?";
}

/// Thrown by CancelToken::check() on a cancelled evaluation. A sibling of
/// IoError / IntegrityError: typed so the service can classify the unwind
/// without string matching.
class CancelledError : public Error {
 public:
  explicit CancelledError(CancelReason reason)
      : Error(std::string("evaluation cancelled: ") +
              cancel_reason_name(reason)),
        reason_(reason) {}
  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

namespace detail {
struct CancelState {
  std::atomic<bool> cancelled{false};
  std::atomic<std::uint8_t> reason{
      static_cast<std::uint8_t>(CancelReason::kNone)};
  /// Monotonic (steady_clock) deadline in ns since the clock's epoch;
  /// 0 = no deadline.
  std::atomic<std::int64_t> deadline_ns{0};
  /// Bumped by every check(); the watchdog's liveness signal.
  std::atomic<std::uint64_t> progress{0};
  /// Deterministic test hook: auto-cancel with `trip_reason` when
  /// `progress` reaches this count. 0 = off.
  std::atomic<std::uint64_t> trip_at{0};
  std::atomic<std::uint8_t> trip_reason{
      static_cast<std::uint8_t>(CancelReason::kExplicit)};
  /// Deterministic test hook: the check() that brings `progress` to this
  /// count parks until released. 0 = off.
  std::atomic<std::uint64_t> hold_at{0};
  /// kHoldIdle until that check() parks (kHoldParked); kHoldReleased once
  /// release_hold() ran, before or after the park.
  std::atomic<std::uint32_t> hold_state{kHoldIdle};
  static constexpr std::uint32_t kHoldIdle = 0;
  static constexpr std::uint32_t kHoldParked = 1;
  static constexpr std::uint32_t kHoldReleased = 2;
};
}  // namespace detail

class CancelToken {
 public:
  /// Null token: never cancels, check() is free. The library-wide default.
  CancelToken() = default;

  /// A live token with no deadline.
  static CancelToken make() {
    CancelToken token;
    token.state_ = std::make_shared<detail::CancelState>();
    return token;
  }

  /// A live token whose deadline is `seconds` from now (monotonic clock).
  /// seconds <= 0 means "already expired" — the first check() throws.
  static CancelToken with_deadline(double seconds) {
    CancelToken token = make();
    token.set_deadline_after(seconds);
    return token;
  }

  bool valid() const { return state_ != nullptr; }

  /// Trip the token. Idempotent; the first reason wins.
  void cancel(CancelReason reason = CancelReason::kExplicit) {
    if (!state_) return;
    std::uint8_t expected = static_cast<std::uint8_t>(CancelReason::kNone);
    state_->reason.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(reason),
        std::memory_order_relaxed);
    state_->cancelled.store(true, std::memory_order_release);
  }

  void set_deadline_after(double seconds) {
    if (!state_) return;
    state_->deadline_ns.store(now_ns() + seconds_to_ns(seconds),
                              std::memory_order_relaxed);
  }

  /// True once the token has been tripped (explicitly or by a deadline a
  /// previous query observed). Does not itself evaluate the deadline.
  bool cancelled() const {
    return state_ && state_->cancelled.load(std::memory_order_acquire);
  }

  /// True when a deadline is set and has passed (whether or not the token
  /// was tripped yet).
  bool expired() const {
    if (!state_) return false;
    const std::int64_t deadline =
        state_->deadline_ns.load(std::memory_order_relaxed);
    return deadline != 0 && now_ns() >= deadline;
  }

  /// Non-throwing advisory query for paths that must not unwind (a service
  /// worker deciding whether to start a job). Trips the token on an observed expiry so a later check()
  /// reports kDeadline.
  bool cancelled_or_expired() const {
    if (!state_) return false;
    if (state_->cancelled.load(std::memory_order_acquire)) return true;
    if (expired()) {
      const_cast<CancelToken*>(this)->cancel(CancelReason::kDeadline);
      return true;
    }
    return false;
  }

  /// The reason recorded at trip time (kNone while untripped).
  CancelReason reason() const {
    if (!state_) return CancelReason::kNone;
    return static_cast<CancelReason>(
        state_->reason.load(std::memory_order_relaxed));
  }

  /// check() calls so far — the watchdog's liveness counter.
  std::uint64_t progress() const {
    return state_ ? state_->progress.load(std::memory_order_relaxed) : 0;
  }

  /// Deterministic test hook: trip with `reason` when progress reaches
  /// `count` (kDeadline stands in for a deadline elapsing at that check).
  void set_trip_at(std::uint64_t count,
                   CancelReason reason = CancelReason::kExplicit) {
    if (!state_) return;
    state_->trip_reason.store(static_cast<std::uint8_t>(reason),
                              std::memory_order_relaxed);
    state_->trip_at.store(count, std::memory_order_release);
  }

  /// Deterministic test hook: the check() that brings progress to `count`
  /// parks its thread, once, until release_hold(). A test can so hold a
  /// worker mid-evaluation for exactly as long as it needs, where a "slow"
  /// job only makes the race unlikely. The parked check() then goes on to
  /// throw if the token was cancelled meanwhile.
  void set_hold_at(std::uint64_t count) {
    if (!state_) return;
    state_->hold_at.store(count, std::memory_order_release);
  }

  /// Blocks until a check() has parked on the hold (or it was released).
  void wait_until_held() const {
    if (!state_) return;
    state_->hold_state.wait(detail::CancelState::kHoldIdle,
                            std::memory_order_acquire);
  }

  /// Lets the parked check() continue; a hold not reached yet never parks.
  void release_hold() {
    if (!state_) return;
    state_->hold_state.store(detail::CancelState::kHoldReleased,
                             std::memory_order_release);
    state_->hold_state.notify_all();
  }

  /// The cooperative check point: bump progress, then throw CancelledError
  /// if the token has been tripped or its deadline has passed. Called
  /// *before* the work unit it guards, so nothing is half-done on throw.
  void check() {
    if (!state_) return;
    const std::uint64_t done =
        state_->progress.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t trip = state_->trip_at.load(std::memory_order_acquire);
    if (trip != 0 && done >= trip)
      cancel(static_cast<CancelReason>(
          state_->trip_reason.load(std::memory_order_relaxed)));
    if (done == state_->hold_at.load(std::memory_order_acquire)) park();
    if (state_->cancelled.load(std::memory_order_acquire))
      throw CancelledError(reason());
    const std::int64_t deadline =
        state_->deadline_ns.load(std::memory_order_relaxed);
    if (deadline != 0 && now_ns() >= deadline) {
      cancel(CancelReason::kDeadline);
      throw CancelledError(CancelReason::kDeadline);
    }
  }

 private:
  void park() {
    std::uint32_t idle = detail::CancelState::kHoldIdle;
    if (!state_->hold_state.compare_exchange_strong(
            idle, detail::CancelState::kHoldParked,
            std::memory_order_acq_rel))
      return;  // released before it was reached
    state_->hold_state.notify_all();
    state_->hold_state.wait(detail::CancelState::kHoldParked,
                            std::memory_order_acquire);
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static std::int64_t seconds_to_ns(double seconds) {
    return static_cast<std::int64_t>(seconds * 1e9);
  }

  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace plfoc
