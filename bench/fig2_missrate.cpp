// Figure 2 reproduction: ancestral-vector miss rates of the four replacement
// strategies (Random, LRU, LFU, Topological) at f = 0.25 / 0.50 / 0.75 on a
// 1288-taxon, 1200-site DNA dataset under GTR+Γ4, measured over a tree-search
// workload from a fixed starting tree.
//
// Paper result to reproduce (shape): all strategies except LFU stay below a
// 10% miss rate even at f = 0.25; Random ~ LRU ~ Topological; rates fall
// towards 0 as f grows.
#include "bench_common.hpp"

using namespace plfoc;
using namespace plfoc::bench;

int main() {
  const Scale scale = scale_from_env();
  const std::size_t taxa = scale == Scale::kQuick ? 200 : 1288;
  const std::size_t sites = scale == Scale::kQuick ? 300 : 1200;
  const SearchDataset dataset = make_search_dataset(taxa, sites, 20110516);
  print_header("Figure 2: miss rate by replacement strategy and RAM fraction f",
               dataset, scale);

  const SearchWorkloadOptions workload = workload_for(scale);
  const double fractions[] = {0.25, 0.50, 0.75};
  const ReplacementPolicy policies[] = {
      ReplacementPolicy::kTopological, ReplacementPolicy::kLfu,
      ReplacementPolicy::kRandom, ReplacementPolicy::kLru};

  std::printf("%-12s %6s %12s %12s %14s %10s %12s\n", "strategy", "f",
              "accesses", "misses", "miss_rate_%", "logL", "seconds");
  double reference_ll = 0.0;
  bool have_reference = false;
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
      std::printf("%-12s %6.2f %12llu %12llu %14.3f %10.1f %12.1f\n",
                  policy_name(policy), f,
                  static_cast<unsigned long long>(result.stats.accesses),
                  static_cast<unsigned long long>(result.stats.misses),
                  100.0 * result.stats.miss_rate(),
                  result.final_log_likelihood, result.wall_seconds);
      std::fflush(stdout);
      // Correctness criterion (Sec. 4.1): identical final scores across all
      // strategies and fractions.
      if (!have_reference) {
        reference_ll = result.final_log_likelihood;
        have_reference = true;
      } else if (result.final_log_likelihood != reference_ll) {
        std::printf("# WARNING: logL deviates from the first configuration!\n");
        return 1;
      }
    }
  }
  std::printf("# all configurations produced the identical final logL %.6f\n",
              reference_ll);
  return 0;
}
