// Online-supplement reproduction: the 1908-taxon x 1424-site analogue of
// Figures 2 and 3 (the paper reports "analogous plots with slightly better
// miss rates" for this larger dataset). One grid, both metrics.
#include "bench_common.hpp"

using namespace plfoc;
using namespace plfoc::bench;

int main() {
  const Scale scale = scale_from_env();
  const std::size_t taxa = scale == Scale::kQuick ? 250 : 1908;
  const std::size_t sites = scale == Scale::kQuick ? 350 : 1424;
  const SearchDataset dataset = make_search_dataset(taxa, sites, 19081424);
  print_header(
      "Supplement: miss & read rates, 1908-taxon dataset (Figs. 2-3 analogue)",
      dataset, scale);

  SearchWorkloadOptions workload = workload_for(scale);
  // Keep the harness's total cost comparable to fig2 despite the larger n.
  workload.prune_stride *= 2;

  const double fractions[] = {0.25, 0.50, 0.75};
  const ReplacementPolicy policies[] = {
      ReplacementPolicy::kTopological, ReplacementPolicy::kLfu,
      ReplacementPolicy::kRandom, ReplacementPolicy::kLru};

  std::printf("%-12s %6s %14s %14s %14s %10s %10s %10s\n", "strategy", "f",
              "miss_rate_%", "read_rate_%", "reads_elided_%", "accesses",
              "misses", "reads");
  for (ReplacementPolicy policy : policies) {
    for (double f : fractions) {
      SessionOptions options;
      options.backend = Backend::kOutOfCore;
      options.recompute_cherries = false;  // the paper's access stream
      options.policy = policy;
      options.ram_fraction = f;
      options.seed = 7;
      const WorkloadResult result =
          run_search_workload(dataset, options, workload);
      const OocStats& stats = result.stats;
      const double elided =
          stats.misses == 0
              ? 0.0
              : 100.0 * static_cast<double>(stats.skipped_reads) /
                    static_cast<double>(stats.misses);
      std::printf("%-12s %6.2f %14.3f %14.3f %14.1f %10llu %10llu %10llu\n",
                  policy_name(policy), f, 100.0 * stats.miss_rate(),
                  100.0 * stats.read_rate(), elided,
                  static_cast<unsigned long long>(stats.accesses),
                  static_cast<unsigned long long>(stats.misses),
                  static_cast<unsigned long long>(stats.file_reads));
      std::fflush(stdout);
    }
  }
  return 0;
}
