#include "trace.hpp"

#include <cstdio>

#include "ooc/ooc_store.hpp"

namespace plfoc::e2e {

int Tracer::open(std::string name, int parent, std::uint64_t job) {
  return add(std::move(name), now_seconds(), 0.0, parent, job);
}

double Tracer::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = now_seconds();
  return span.end - span.start;
}

int Tracer::add(std::string name, double start, double end, int parent,
                std::uint64_t job) {
  spans_.push_back({std::move(name), start, end, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "plfoc_bench: cannot write trace %s\n", path.c_str());
    return;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"job\": %llu}%s\n",
                 i, span.name.c_str(), span.start - origin, span.end - origin,
                 span.parent, static_cast<unsigned long long>(span.job),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

TimedStore::TimedStore(AncestralStore& inner)
    : AncestralStore(inner.count(), inner.width()),
      inner_(inner),
      baseline_(inner.stats()),
      baseline_io_ops_(io_ops()) {}

bool TimedStore::out_of_core() const {
  return dynamic_cast<const OutOfCoreStore*>(&inner_) != nullptr;
}

std::uint64_t TimedStore::io_ops() const {
  const auto* ooc_store = dynamic_cast<const OutOfCoreStore*>(&inner_);
  return ooc_store == nullptr ? 0 : ooc_store->file().io_operations();
}

OocStats TimedStore::stats_delta() const {
  const OocStats& now = inner_.stats();
  OocStats delta;
  delta.accesses = now.accesses - baseline_.accesses;
  delta.hits = now.hits - baseline_.hits;
  delta.misses = now.misses - baseline_.misses;
  delta.evictions = now.evictions - baseline_.evictions;
  delta.file_reads = now.file_reads - baseline_.file_reads;
  delta.file_writes = now.file_writes - baseline_.file_writes;
  delta.skipped_reads = now.skipped_reads - baseline_.skipped_reads;
  delta.bytes_read = now.bytes_read - baseline_.bytes_read;
  delta.bytes_written = now.bytes_written - baseline_.bytes_written;
  return delta;
}

std::uint64_t TimedStore::io_ops_delta() const {
  return io_ops() - baseline_io_ops_;
}

double TimedStore::store_seconds() const {
  double total = release_seconds_;
  for (const Tally& tally : tallies_) total += tally.seconds;
  return total;
}

double* TimedStore::do_acquire(std::uint32_t index, AccessMode mode) {
  const OocStats before = inner_.stats();
  const double start = now_seconds();
  VectorLease lease = inner_.acquire(index, mode);
  const double seconds = now_seconds() - start;
  const OocStats& after = inner_.stats();

  Bucket bucket = kHit;
  if (after.misses != before.misses) {
    if (after.file_reads != before.file_reads)
      bucket = kMissRead;
    else if (after.file_writes != before.file_writes)
      bucket = kMissWrite;
    else
      bucket = kMissNoIo;
  }
  if (after.file_writes != before.file_writes) write_back_seconds_ += seconds;
  ++tallies_[bucket].count;
  tallies_[bucket].seconds += seconds;
  if (mode == AccessMode::kWrite) ++write_acquires_;

  double* data = lease.data();
  leases_.push_back(std::move(lease));
  return data;
}

void TimedStore::do_release(std::uint32_t index) {
  for (auto it = leases_.rbegin(); it != leases_.rend(); ++it) {
    if (it->index() != index) continue;
    const double start = now_seconds();
    it->release();
    release_seconds_ += now_seconds() - start;
    leases_.erase(std::next(it).base());
    return;
  }
}

void StoreLayerTotals::add(const TimedStore& timed, double compute_seconds) {
  for (std::size_t b = 0; b < tallies.size(); ++b) {
    tallies[b].count += timed.tallies()[b].count;
    tallies[b].seconds += timed.tallies()[b].seconds;
  }
  store_seconds += timed.store_seconds();
  write_back_seconds += timed.write_back_seconds();
  compute_span_seconds += compute_seconds;
  write_acquires += timed.write_acquires();
  vector_bytes = timed.width() * sizeof(double);
  if (timed.out_of_core()) {
    out_of_core = true;
    ooc += timed.stats_delta();
    io_ops += timed.io_ops_delta();
  }
}

void StoreLayerTotals::emit(Report& report) const {
  report.metric("likelihood.self_s", compute_span_seconds - store_seconds);
  report.metric("likelihood.newview_ops", static_cast<double>(write_acquires));
  // Computed, not measured: one full vector written per newview.
  report.metric("likelihood.newview_bytes",
                static_cast<double>(write_acquires * vector_bytes));
  if (!out_of_core) return;

  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  std::uint64_t acquires = 0;
  for (const TimedStore::Tally& tally : tallies) acquires += tally.count;
  report.metric("ooc.acquires", count(acquires));
  report.metric("ooc.acquire_s", store_seconds);
  const char* names[TimedStore::kBuckets] = {"ooc.hits", "ooc.miss_noio",
                                             "ooc.miss_write", "ooc.miss_read"};
  const char* time_names[TimedStore::kBuckets] = {
      "ooc.hit_s", "ooc.miss_noio_s", "ooc.miss_write_s", "ooc.miss_read_s"};
  for (std::size_t b = 0; b < tallies.size(); ++b) {
    report.metric(names[b], count(tallies[b].count));
    report.metric(time_names[b], tallies[b].seconds);
  }
  report.metric("ooc.miss_rate", ooc.miss_rate());
  report.metric("ooc.read_rate", ooc.read_rate());
  report.metric("ooc.read_skip_rate", ooc.read_skip_rate());
  report.metric("ooc.evictions", count(ooc.evictions));
  report.metric("ooc.file_reads", count(ooc.file_reads));
  report.metric("ooc.file_writes", count(ooc.file_writes));
  report.metric("ooc.bytes_read", count(ooc.bytes_read));
  report.metric("ooc.bytes_written", count(ooc.bytes_written));
  report.metric("ooc.io_ops", count(io_ops));
  report.metric("ooc.write_mib_per_s",
                write_back_seconds > 0.0
                    ? static_cast<double>(ooc.bytes_written) / 1048576.0 /
                          write_back_seconds
                    : 0.0);
}

}  // namespace plfoc::e2e
