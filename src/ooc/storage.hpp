// The ancestral-vector storage interface — the seam the whole design hangs on.
//
// The paper's claim (Sec. 3.3): out-of-core execution can be "entirely
// encapsulated by a function call that returns the address of an ancestral
// probability vector" (RAxML's getxvector(i)). Here that function is
// `AncestralStore::acquire(index, mode)`:
//
//  * it returns a RAII `VectorLease` whose data() is the vector's current RAM
//    address;
//  * while a lease is live its vector is *pinned* — it cannot be chosen as a
//    replacement victim. The likelihood engine holds at most three leases at
//    a time (target + two children), which is exactly the paper's m >= 3
//    constraint;
//  * `mode` tells the store whether this access will fully overwrite the
//    vector (AccessMode::kWrite) — the hook for read skipping (Sec. 3.4) —
//    or read its existing contents (AccessMode::kRead).
//
// Backends: InRamStore (the "standard" RAxML layout, everything resident),
// OutOfCoreStore (the paper's slot manager), PagedStore (the OS-paging
// baseline of Fig. 5, simulated deterministically at 4 KiB page granularity).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "ooc/stats.hpp"
#include "util/cancel.hpp"
#include "util/checks.hpp"

namespace plfoc {

enum class AccessMode {
  kRead,   ///< existing contents will be read
  kWrite,  ///< contents will be fully overwritten before any read
};

class AncestralStore;

/// Move-only RAII pin on one ancestral vector. data() stays valid (and the
/// vector stays in RAM) until the lease is destroyed or release()d.
class VectorLease {
 public:
  VectorLease() = default;
  VectorLease(AncestralStore* store, std::uint32_t index, double* data)
      : store_(store), index_(index), data_(data) {}
  ~VectorLease() { release(); }

  VectorLease(const VectorLease&) = delete;
  VectorLease& operator=(const VectorLease&) = delete;
  VectorLease(VectorLease&& other) noexcept { *this = std::move(other); }
  VectorLease& operator=(VectorLease&& other) noexcept {
    if (this != &other) {
      release();
      store_ = std::exchange(other.store_, nullptr);
      index_ = other.index_;
      data_ = std::exchange(other.data_, nullptr);
    }
    return *this;
  }

  double* data() const {
    PLFOC_DCHECK(data_ != nullptr);
    return data_;
  }
  std::uint32_t index() const { return index_; }
  explicit operator bool() const { return data_ != nullptr; }

  void release();

 private:
  AncestralStore* store_ = nullptr;
  std::uint32_t index_ = 0;
  double* data_ = nullptr;
};

/// Abstract store of `count` ancestral probability vectors of `width` doubles.
class AncestralStore {
 public:
  AncestralStore(std::size_t count, std::size_t width)
      : count_(count), width_(width) {}
  virtual ~AncestralStore() = default;
  AncestralStore(const AncestralStore&) = delete;
  AncestralStore& operator=(const AncestralStore&) = delete;

  std::size_t count() const { return count_; }
  /// Doubles per vector (the paper's slot width w is width() * 8 bytes).
  std::size_t width() const { return width_; }

  /// Pin vector `index` into RAM and return a lease on it. The paper's
  /// getxvector(): transparently swaps the vector in if it is on disk.
  /// The cancellation check fires *before* do_acquire touches any slot
  /// state, so an unwinding CancelledError leaves the store exactly as it
  /// was — no half-installed vector, nothing pinned, audit-clean.
  VectorLease acquire(std::uint32_t index, AccessMode mode) {
    cancel_.check();
    double* data = do_acquire(index, mode);
    return VectorLease(this, index, data);
  }

  /// Attach a cancellation token (util/cancel.hpp). Checked at every
  /// acquire(). Set while the store is quiescent (no concurrent acquires).
  void set_cancel_token(CancelToken token) { cancel_ = std::move(token); }

  /// The caller holds a write lease on `index` and fills the vector from
  /// tip data alone, so recovery_hook_ can rebuild it without acquiring any
  /// other vector. A file-backed store may then drop the vector at eviction
  /// instead of writing it back, and rebuild it on its next read-mode miss.
  /// The next write-mode acquire clears the mark. No-op by default.
  virtual void mark_rebuildable(std::uint32_t /*index*/) {}

  /// Write any RAM-only state back to stable storage (no-op for RAM stores).
  virtual void flush() {}

  const OocStats& stats() const { return stats_; }
  /// Zero the counters. Virtual so file-backed stores can also reset their
  /// backend's robustness counters (and the auditor's monotonicity baseline).
  virtual void reset_stats() { stats_ = OocStats{}; }

  /// Copy of the counters that is safe to take from another thread while
  /// the store is in use; plain stats() is only safe once it is quiescent.
  virtual OocStats stats_snapshot() const { return stats_; }

  /// Human-readable backend name for reports ("in-ram", "out-of-core", ...).
  virtual const char* backend_name() const = 0;

  /// Self-healing seam: recompute vector `index` into `dst` (width() doubles)
  /// from first principles — ancestral vectors are pure functions of the
  /// tree, model, and tip data, so a corrupt on-disk record is a recomputable
  /// cache entry. Returns the number of vectors recomputed (>= 1 — recovery
  /// may recurse into unmaterialized children), or 0 when recomputation is
  /// impossible. Registered by the Session, which owns the likelihood engine
  /// that knows the Felsenstein recurrence; file-backed stores call it on a
  /// checksum mismatch before giving up with IntegrityError, and the
  /// out-of-core store also calls it to rebuild a dropped rebuildable
  /// vector (mark_rebuildable). The hook may re-enter acquire()/release()
  /// on *other* vectors; a CancelledError it throws propagates to the
  /// acquire's caller, with the install undone.
  using RecoveryHook = std::function<std::uint64_t(std::uint32_t, double*)>;
  void set_recovery_hook(RecoveryHook hook) {
    recovery_hook_ = std::move(hook);
  }

 protected:
  friend class VectorLease;
  virtual double* do_acquire(std::uint32_t index, AccessMode mode) = 0;
  virtual void do_release(std::uint32_t index) = 0;

  std::size_t count_;
  std::size_t width_;
  OocStats stats_;
  RecoveryHook recovery_hook_;  ///< empty: recovery impossible, throw typed
  CancelToken cancel_;          ///< null by default: checks are free
};

inline void VectorLease::release() {
  if (store_ != nullptr) {
    store_->do_release(index_);
    store_ = nullptr;
    data_ = nullptr;
  }
}

}  // namespace plfoc
