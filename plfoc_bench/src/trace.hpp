// Tracing for the per-layer run (--trace 1). Everything here lives in
// benchmark code: spans are taken around calls into each layer's public
// functions, and TimedStore times every vector acquire the likelihood
// engine makes by decorating the store the Session built. Untraced runs use
// none of it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ooc/storage.hpp"
#include "report.hpp"

namespace plfoc::e2e {

/// In-memory span log, written out once at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;        ///< index of the enclosing span, -1 for roots
    std::uint64_t job = 0;  ///< serve spans: the request id
  };

  /// Open a span now; returns its id for close() and for child spans.
  int open(std::string name, int parent = -1, std::uint64_t job = 0);
  /// Close a span now; returns its duration in seconds.
  double close(int id);
  /// Record an already finished span.
  int add(std::string name, double start, double end, int parent = -1,
          std::uint64_t job = 0);

  const std::vector<Span>& spans() const { return spans_; }
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// AncestralStore decorator: forwards every acquire/release to the wrapped
/// store, timing it and sorting it into a bucket by the change the call
/// made to the wrapped store's stats(). Counters are taken relative to the
/// wrapped store's state when the decorator was built, so an engine over a
/// fresh decorator measures exactly its own traffic. Buckets:
///   hit        — served from a RAM slot;
///   miss_noio  — a slot was free (or the read was skipped) and nothing
///                was written back;
///   miss_write — a victim was written back, no read was needed;
///   miss_read  — the vector was read from the file.
class TimedStore final : public AncestralStore {
 public:
  enum Bucket { kHit, kMissNoIo, kMissWrite, kMissRead, kBuckets };
  struct Tally {
    std::uint64_t count = 0;
    double seconds = 0.0;
  };

  explicit TimedStore(AncestralStore& inner);
  const char* backend_name() const override { return inner_.backend_name(); }
  void flush() override { inner_.flush(); }

  const std::array<Tally, kBuckets>& tallies() const { return tallies_; }
  /// Acquires in write mode: one per newview (pruning step).
  std::uint64_t write_acquires() const { return write_acquires_; }
  /// Time inside the wrapped store's acquire and release.
  double store_seconds() const;
  /// Time of the acquires that wrote a victim back.
  double write_back_seconds() const { return write_back_seconds_; }
  /// True when the wrapped store is the out-of-core slot manager.
  bool out_of_core() const;
  /// The wrapped store's counters and file I/O operations since this
  /// decorator was built.
  OocStats stats_delta() const;
  std::uint64_t io_ops_delta() const;

 protected:
  double* do_acquire(std::uint32_t index, AccessMode mode) override;
  void do_release(std::uint32_t index) override;

 private:
  std::uint64_t io_ops() const;

  AncestralStore& inner_;
  OocStats baseline_;
  std::uint64_t baseline_io_ops_ = 0;
  std::vector<VectorLease> leases_;  ///< live inner leases (at most three)
  std::array<Tally, kBuckets> tallies_{};
  double release_seconds_ = 0.0;
  double write_back_seconds_ = 0.0;
  std::uint64_t write_acquires_ = 0;
};

/// Per-layer counters and times of the likelihood and storage layers,
/// summed over the fixed set of traced units of one run.
struct StoreLayerTotals {
  std::array<TimedStore::Tally, TimedStore::kBuckets> tallies{};
  double store_seconds = 0.0;
  double write_back_seconds = 0.0;
  double compute_span_seconds = 0.0;  ///< engine work the store time is part of
  std::uint64_t write_acquires = 0;
  std::uint64_t vector_bytes = 0;  ///< bytes of one ancestral vector
  bool out_of_core = false;
  OocStats ooc;
  std::uint64_t io_ops = 0;

  /// Fold in one traced unit: its decorator and the span time of the
  /// engine calls it served.
  void add(const TimedStore& timed, double compute_seconds);
  /// Emit the likelihood.* and ooc.* metrics. The ooc.* ones stay 0 unless
  /// the wrapped store was the out-of-core one.
  void emit(Report& report) const;
};

}  // namespace plfoc::e2e
