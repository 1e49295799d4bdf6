// Figure 4 reproduction: miss rate as a function of f under the Random
// strategy, halving f per run down to the 5-slot minimum (Sec. 4.2).
//
// Paper result to reproduce (shape): monotone increase as f shrinks, yet even
// the most extreme case (five RAM slots for ~1286 vectors) stays at a
// comparatively low miss rate (~20%) thanks to the access locality of branch
// -length optimisation and lazy SPR.
//
// `--json PATH` additionally writes the host facts and one row per f
// (slots, accesses, misses, miss rate, seconds) as one JSON object.
#include "bench_common.hpp"

using namespace plfoc;
using namespace plfoc::bench;

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  const Scale scale = scale_from_env();
  const std::size_t taxa = scale == Scale::kQuick ? 200 : 1288;
  const std::size_t sites = scale == Scale::kQuick ? 300 : 1200;
  const SearchDataset dataset = make_search_dataset(taxa, sites, 20110516);
  print_header("Figure 4: miss rate vs RAM fraction f (Random strategy)",
               dataset, scale);

  const SearchWorkloadOptions workload = workload_for(scale);
  const std::size_t vectors = dataset.start_tree.num_inner();

  std::printf("%10s %8s %12s %12s %14s %12s\n", "f", "slots", "accesses",
              "misses", "miss_rate_%", "seconds");
  std::string rows;
  double f = 0.5;
  for (;;) {
    const std::size_t slots = OocStoreOptions::slots_from_fraction(f, vectors);
    SessionOptions options;
    options.backend = Backend::kOutOfCore;
    options.recompute_cherries = false;  // the paper's access stream
    options.policy = ReplacementPolicy::kRandom;
    options.ram_fraction = f;
    options.seed = 7;
    const WorkloadResult result =
        run_search_workload(dataset, options, workload);
    std::printf("%10.5f %8zu %12llu %12llu %14.3f %12.1f\n", f, slots,
                static_cast<unsigned long long>(result.stats.accesses),
                static_cast<unsigned long long>(result.stats.misses),
                100.0 * result.stats.miss_rate(), result.wall_seconds);
    std::fflush(stdout);
    char row[256];
    std::snprintf(row, sizeof row,
                  "%s{\"f\":%.6g,\"slots\":%zu,\"accesses\":%llu,"
                  "\"misses\":%llu,\"miss_rate\":%.6f,\"seconds\":%.3f}",
                  rows.empty() ? "" : ",", f, slots,
                  static_cast<unsigned long long>(result.stats.accesses),
                  static_cast<unsigned long long>(result.stats.misses),
                  result.stats.miss_rate(), result.wall_seconds);
    rows += row;
    if (slots <= 5) break;  // the paper's most extreme case: 5 slots
    f /= 2.0;
    // Clamp the final step to exactly five slots, as in the paper.
    if (OocStoreOptions::slots_from_fraction(f, vectors) < 5)
      f = 5.0 / static_cast<double>(vectors);
  }
  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\"bench\":\"fig4_fsweep\",\"scale\":\"%s\",\"taxa\":%zu,"
                 "\"sites\":%zu,\"vectors\":%zu,\"host\":%s,\"rows\":[%s]}\n",
                 scale_name(scale), dataset.taxa, dataset.sites, vectors,
                 host_facts_json().c_str(), rows.c_str());
    std::fclose(out);
  }
  return 0;
}
