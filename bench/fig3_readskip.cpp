// Figure 3 reproduction: the effect of read skipping. Same grid as Figure 2,
// but reporting the *read rate* — the fraction of vector accesses that issue
// an actual file read. Without read skipping the read rate equals the miss
// rate; with it, more than half of all reads (> 25% of all I/O operations)
// are elided because a vector whose first access is write-only need not be
// swapped in from disk (Sec. 3.4).
#include "bench_common.hpp"

using namespace plfoc;
using namespace plfoc::bench;

int main() {
  const Scale scale = scale_from_env();
  const std::size_t taxa = scale == Scale::kQuick ? 200 : 1288;
  const std::size_t sites = scale == Scale::kQuick ? 300 : 1200;
  const SearchDataset dataset = make_search_dataset(taxa, sites, 20110516);
  print_header("Figure 3: read rate with read skipping", dataset, scale);

  const SearchWorkloadOptions workload = workload_for(scale);
  const double fractions[] = {0.25, 0.50, 0.75};
  const ReplacementPolicy policies[] = {
      ReplacementPolicy::kTopological, ReplacementPolicy::kLfu,
      ReplacementPolicy::kRandom, ReplacementPolicy::kLru};

  std::printf("%-12s %6s %14s %14s %14s %16s %10s %10s\n", "strategy", "f",
              "miss_rate_%", "read_rate_%", "reads_elided_%",
              "io_ops_saved_%", "misses", "reads");
  for (ReplacementPolicy policy : policies) {
    for (double f : fractions) {
      SessionOptions options;
      options.backend = Backend::kOutOfCore;
      options.recompute_cherries = false;  // the paper's access stream
      options.policy = policy;
      options.ram_fraction = f;
      options.read_skipping = true;
      options.seed = 7;
      const WorkloadResult result =
          run_search_workload(dataset, options, workload);
      const OocStats& stats = result.stats;
      // Without read skipping every miss would read: reads-elided is the
      // fraction of would-be reads that were skipped, and the total I/O
      // saving counts writes too (Sec. 4.1: >50% of reads, >25% of all I/O).
      const double elided =
          stats.misses == 0
              ? 0.0
              : 100.0 * static_cast<double>(stats.skipped_reads) /
                    static_cast<double>(stats.misses);
      const std::uint64_t io_with_skip = stats.file_reads + stats.file_writes;
      const std::uint64_t io_without = stats.misses + stats.file_writes;
      const double io_saved =
          io_without == 0
              ? 0.0
              : 100.0 * static_cast<double>(io_without - io_with_skip) /
                    static_cast<double>(io_without);
      std::printf("%-12s %6.2f %14.3f %14.3f %14.1f %16.1f %10llu %10llu\n",
                  policy_name(policy), f, 100.0 * stats.miss_rate(),
                  100.0 * stats.read_rate(), elided, io_saved,
                  static_cast<unsigned long long>(stats.misses),
                  static_cast<unsigned long long>(stats.file_reads));
      std::fflush(stdout);
    }
  }
  return 0;
}
