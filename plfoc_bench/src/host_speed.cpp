#include "host_speed.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <thread>

#include "report.hpp"
#include "util/checks.hpp"

namespace plfoc::e2e {
namespace {

constexpr int kStates = 20;
constexpr int kColumns = 128;
constexpr std::size_t kTextBytes = 1 << 14;
constexpr int kRepeats = 16;
constexpr std::size_t kFileBlock = 256 << 10;
constexpr int kFileBlocks = 8;

/// Keeps the reference work from being optimised away.
thread_local volatile double g_sink = 0.0;

/// Inputs of the reference work, one set per thread so that timings on
/// different CPUs never share cache lines. About 40 KiB: small next to any
/// workload's memory, so peak RSS hardly sees it.
struct ReferenceData {
  std::vector<double> matrix;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<double> out;
  std::vector<std::uint8_t> text;

  ReferenceData()
      : matrix(kStates * kStates),
        left(kStates * kColumns, 0.5),
        right(kStates * kColumns, 0.25),
        out(kStates * kColumns),
        text(kTextBytes) {
    for (int i = 0; i < kStates * kStates; ++i) matrix[i] = 1.0 / (3 + i % 7);
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    for (std::uint8_t& c : text) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<std::uint8_t>(">ACGT-N\n"[x & 7]);
    }
  }
};

/// One timing of the compute reference work: about a millisecond on the
/// tuning host.
double time_reference(ReferenceData& data) {
  const double start = now_seconds();
  double acc = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int c = 0; c < kColumns; ++c) {
      const double* l = &data.left[c * kStates];
      const double* r = &data.right[c * kStates];
      double* o = &data.out[c * kStates];
      for (int i = 0; i < kStates; ++i) {
        double a = 0.0;
        double b = 0.0;
        for (int j = 0; j < kStates; ++j) {
          a += data.matrix[i * kStates + j] * l[j];
          b += data.matrix[j * kStates + i] * r[j];
        }
        o[i] = a * b;
      }
    }
    // Feed each repeat's result into the next, so none can be skipped.
    acc += data.out[rep % kColumns];
    data.left[rep] += 1e-9 * acc;
    std::uint64_t hash = 0xcbf29ce484222325ull ^ static_cast<std::uint64_t>(rep);
    int lines = 0;
    for (const std::uint8_t c : data.text) {
      if (c == '\n')
        ++lines;
      else if (c != '>')
        hash = (hash ^ c) * 0x100000001b3ull;
    }
    acc += static_cast<double>(hash & 1023) + lines;
  }
  g_sink = g_sink + acc;
  return now_seconds() - start;
}

/// Median of three compute timings, on the calling thread.
double median_of_three(ReferenceData& data) {
  double times[3];
  for (double& t : times) t = time_reference(data);
  std::sort(std::begin(times), std::end(times));
  return times[1];
}

/// Median of three overwrites of the same kFileBlocks blocks of `file`.
/// The pages stay in the page cache, so this times the system call and the
/// copy into the cache, not the disk.
double file_write_median_of_three(int file, std::vector<char>& block) {
  double times[3];
  for (double& t : times) {
    const double start = now_seconds();
    for (int k = 0; k < kFileBlocks; ++k) {
      block[0] = static_cast<char>(block[0] + 1);
      const ssize_t written = ::pwrite(file, block.data(), block.size(),
                                       static_cast<off_t>(k * block.size()));
      PLFOC_REQUIRE(written == static_cast<ssize_t>(block.size()),
                    "reference file write failed");
    }
    t = now_seconds() - start;
  }
  std::sort(std::begin(times), std::end(times));
  return times[1];
}

}  // namespace

double reference_seconds_all_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 8; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: one unpinned thread

  std::vector<double> per_cpu(cpus.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < cpus.size(); ++k) {
    threads.emplace_back([&, k] {
      if (cpus[k] >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[k], &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      }
      ReferenceData data;
      per_cpu[k] = median_of_three(data);
    });
  }
  for (std::thread& thread : threads) thread.join();
  double sum = 0.0;
  for (const double t : per_cpu) sum += t;
  return sum / static_cast<double>(per_cpu.size());
}

UnitTimings::UnitTimings(Reference reference, bool busy_includes_setup,
                         const std::string& workdir)
    : reference_(reference), busy_includes_setup_(busy_includes_setup) {
  if (reference_ != Reference::kFileWrite) return;
  file_ = ::open((workdir + "/reference.bin").c_str(),
                 O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  PLFOC_REQUIRE(file_ >= 0, "cannot open the reference file in " + workdir);
  block_.assign(kFileBlock, 1);
  // Give the file its pages before the first timing.
  file_write_median_of_three(file_, block_);
}

UnitTimings::~UnitTimings() {
  if (file_ >= 0) ::close(file_);
}

double UnitTimings::time_reference() {
  if (reference_ == Reference::kFileWrite)
    return file_write_median_of_three(file_, block_);
  thread_local ReferenceData data;
  return median_of_three(data);
}

void UnitTimings::add(double setup_s, double work_s, double before,
                      double after) {
  setup_s_.push_back(setup_s);
  work_s_.push_back(work_s);
  scale_.push_back(2.0 * nominal_seconds(reference_) / (before + after));
}

double UnitTimings::median_scale() const { return median(scale_); }

Timings UnitTimings::summarise(bool scaled) const {
  std::vector<double> setup;
  std::vector<double> work;
  double busy = 0.0;
  for (std::size_t i = 0; i < work_s_.size(); ++i) {
    const double scale = scaled ? scale_[i] : 1.0;
    setup.push_back(setup_s_[i] * scale);
    work.push_back(work_s_[i] * scale);
    busy += work.back() + (busy_includes_setup_ ? setup.back() : 0.0);
  }
  return {median(setup), 1e3 * median(work),
          static_cast<double>(work.size()) / busy};
}

}  // namespace plfoc::e2e
