// Shared vocabulary of the end-to-end benchmark: run options, the report
// that becomes the final JSON line, and the small statistics helpers every
// workload uses (nearest-rank percentiles, peak RSS, digests).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace plfoc::e2e {

struct Timings;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement window of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool smoke = false;     ///< reduced sizes (ctest smoke)
  std::string workdir;    ///< work directory for inputs, vector files, traces
};

/// Seconds on the monotonic clock since an arbitrary fixed origin.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile: the smallest value with at least p·n values at
/// or below it (p in (0, 1]). p50 of {1,2,3,4} is 2; p99 of 50 values is
/// the maximum, so a tail percentile needs >= 10 samples beyond it to mean
/// more than "the slowest one" — report sample counts alongside.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();
/// Restart the peak at the current resident size, so the next
/// peak_rss_mib() covers only what ran in between. Best effort: where the
/// kernel refuses, the peak keeps covering the whole process.
void reset_peak_rss();

/// FNV-1a over bytes; digests identify a workload's inputs and results
/// across commits.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  void add(const std::string& text) { add(text.data(), text.size()); }
  void add_u64(std::uint64_t value) { add(&value, sizeof value); }
  void add_double(double value);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Deterministic per-unit seed: unit i of a run seeded s gets its own
/// input, the same on every run with seed s.
std::uint64_t unit_seed(std::uint64_t seed, std::uint64_t unit);

/// Paces a run made of repeated units of work inside the measurement
/// window: another unit starts only while the median unit so far would
/// still end inside the window, and never fewer than `min_units` run.
class UnitWindow {
 public:
  UnitWindow(double seconds, std::size_t min_units)
      : seconds_(seconds), min_units_(min_units), start_(now_seconds()) {}
  bool more() const {
    if (durations_.size() < min_units_) return true;
    return now_seconds() - start_ + median(durations_) <= seconds_;
  }
  void record(double unit_seconds) { durations_.push_back(unit_seconds); }

 private:
  double seconds_;
  std::size_t min_units_;
  double start_;
  std::vector<double> durations_;
};

/// The final JSON line. Metric names and units come from two fixed tables
/// (report.cpp) that mirror BENCHMARK.json: the end-to-end table is printed
/// by untraced runs, the per-layer table by traced runs.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Set a metric by name; the name must be in one of the two tables.
  /// A per-layer metric a workload never sets prints as 0.
  void metric(const std::string& name, double value);
  /// Set the timed end-to-end metrics from their values scaled to the
  /// reference host speed (host_speed.hpp); the unscaled values and the
  /// typical scale go to the info line.
  void timings(const Timings& scaled, const Timings& raw, double scale);
  /// Free-form facts (digests, sample counts, sizes) for the info line.
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Record a wrong or failed result; the run then reports correct=false
  /// and exits non-zero.
  void fail(const std::string& why);

  void attempt() { ++attempted_; }
  void failed_unit(std::uint64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }

  /// Print the info line, then the result line, to stdout. An end-to-end
  /// metric left unset is a benchmark bug: it fails the run.
  void print();

 private:
  bool trace_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Workload entry points (one translation unit each).
void run_search_dna(const RunOptions& options, Report& report);
void run_search_protein(const RunOptions& options, Report& report);
void run_traverse(const RunOptions& options, Report& report);
void run_serve(const RunOptions& options, Report& report);

}  // namespace plfoc::e2e
