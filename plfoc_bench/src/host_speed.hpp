// Host-speed scaling of the end-to-end times.
//
// The benchmark runs on VMs whose vCPUs share physical cores with other
// tenants. On the 4-vCPU host it was tuned on, each vCPU's speed changes on
// its own, by about 1.5x and in busy periods by several times, for anything
// from a fraction of a second to minutes: unscaled times of one commit
// spread by 10-40% across runs. The fix here is to time a fixed piece of
// benchmark-owned work, the reference work, next to the measured work, and
// report each time at the speed that the reference work was given:
//
//   - a single-threaded unit (a search, a traversal) is scaled by timings
//     taken on its own thread right before and right after it;
//   - a serving phase, whose threads spread over every CPU, is scaled by
//     timings taken on every CPU at once, at its start, about once a
//     second and at its end.
//
// The reference work is benchmark code, so a faster library lowers the
// scaled times by the same share as the raw ones. Raw times stay in the
// info line.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace plfoc::e2e {

/// The reference work, chosen to slow down with the host the way a
/// workload's own hot loops do.
enum class Reference {
  /// Small dense 20-state matrix-vector products, like the likelihood
  /// kernels, and a byte scan with a hash, like the FASTA parser.
  kCompute,
  /// Overwriting 2 MiB of a file in the page cache in 256 KiB writes, like
  /// the out-of-core store writing vectors back. A traversal slows with
  /// this, not with arithmetic.
  kFileWrite,
};

/// Seconds the reference work takes on the tuning host, typically: a time
/// scaled by nominal_seconds(kind) / measured reads as it would there.
constexpr double nominal_seconds(Reference kind) {
  return kind == Reference::kCompute ? 1.0e-3 : 1.2e-4;
}

/// The compute reference work timed on every CPU the process may use (at
/// most 8) at once, each on a thread pinned to its CPU: the mean over CPUs
/// of each CPU's median of three.
double reference_seconds_all_cpus();

/// The three timed end-to-end metrics of a run.
struct Timings {
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double throughput_per_s = 0.0;
};

/// The times of a run made of single-threaded units, each scaled by the
/// nominal reference time over the mean of the reference timings taken on
/// its thread right before and right after it.
class UnitTimings {
 public:
  /// `busy_includes_setup`: whether throughput counts set-up time.
  /// `workdir` holds the file of the file-write reference work.
  UnitTimings(Reference reference, bool busy_includes_setup,
              const std::string& workdir);
  ~UnitTimings();
  UnitTimings(const UnitTimings&) = delete;
  UnitTimings& operator=(const UnitTimings&) = delete;

  /// Time the reference work on this thread (the median of three): call it
  /// right before and right after each unit, and pass both timings to add().
  double time_reference();
  void add(double setup_s, double work_s, double before, double after);

  /// setup_s: median set-up; p50_ms: median work; throughput_per_s: units
  /// per second of work (and set-up, when counted).
  Timings raw() const { return summarise(false); }
  Timings scaled() const { return summarise(true); }
  /// Median per-unit scale, for the info line.
  double median_scale() const;

 private:
  Timings summarise(bool scaled) const;

  Reference reference_;
  bool busy_includes_setup_;
  int file_ = -1;                ///< kFileWrite: the file it overwrites
  std::vector<char> block_;      ///< kFileWrite: one write's bytes
  std::vector<double> setup_s_;
  std::vector<double> work_s_;
  std::vector<double> scale_;
};

}  // namespace plfoc::e2e
