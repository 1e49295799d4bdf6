// Design-choice ablations called out in DESIGN.md:
//
//  A. File striping (Sec. 3.2): the paper stored vectors in a single binary
//     file and reports that splitting across several files made a "minimal"
//     difference. Reproduced: identical miss/read statistics, comparable
//     wall time for 1/2/4/8 stripes.
//  B. Victim write-back policy: the paper's swap always writes the victim
//     back; dirty tracking (an extension) skips clean write-backs. Measures
//     the saved write operations.
//  C. Read skipping on/off (complements Fig. 3 with total-I/O effect).
#include "bench_common.hpp"

using namespace plfoc;
using namespace plfoc::bench;

int main() {
  const Scale scale = scale_from_env();
  const std::size_t taxa = scale == Scale::kQuick ? 150 : 640;
  const std::size_t sites = scale == Scale::kQuick ? 250 : 800;
  const SearchDataset dataset = make_search_dataset(taxa, sites, 8844);
  print_header("Ablations: striping, write-back policy, read skipping",
               dataset, scale);
  SearchWorkloadOptions workload = workload_for(scale);

  const auto run = [&](SessionOptions options) {
    options.backend = Backend::kOutOfCore;
    options.recompute_cherries = false;  // the paper's access stream
    options.policy = ReplacementPolicy::kLru;
    options.seed = 7;
    if (options.ram_fraction == 0.0) options.ram_fraction = 0.25;
    return run_search_workload(dataset, options, workload);
  };

  std::printf("\n[A] file striping (paper: minimal difference)\n");
  std::printf("%8s %12s %12s %12s %10s %10s\n", "files", "misses", "reads",
              "writes", "logL_ok", "seconds");
  double reference_ll = 0.0;
  for (unsigned files : {1u, 2u, 4u, 8u}) {
    SessionOptions options;
    options.num_files = files;
    const WorkloadResult result = run(options);
    if (files == 1) reference_ll = result.final_log_likelihood;
    std::printf("%8u %12llu %12llu %12llu %10s %10.1f\n", files,
                static_cast<unsigned long long>(result.stats.misses),
                static_cast<unsigned long long>(result.stats.file_reads),
                static_cast<unsigned long long>(result.stats.file_writes),
                result.final_log_likelihood == reference_ll ? "yes" : "NO",
                result.wall_seconds);
    std::fflush(stdout);
  }

  std::printf("\n[B] victim write-back policy\n");
  std::printf("%-22s %12s %14s\n", "policy", "writes", "MB_written");
  for (bool always : {true, false}) {
    SessionOptions options;
    options.write_back_clean = always;
    const WorkloadResult result = run(options);
    std::printf("%-22s %12llu %14.1f\n",
                always ? "always (paper)" : "dirty-tracking",
                static_cast<unsigned long long>(result.stats.file_writes),
                static_cast<double>(result.stats.bytes_written) / 1048576.0);
    std::fflush(stdout);
  }

  std::printf("\n[D] on-disk precision (paper ref. [1]: SP halves memory)\n");
  // Measured on a FIXED workload (repeated full traversals), not the search:
  // under a search the ~1e-7 relative perturbations flip accept/stop
  // decisions and the runs diverge to different optima, which says nothing
  // about evaluation accuracy.
  std::printf("%-12s %14s %14s %18s\n", "precision", "MB_read", "MB_written",
              "logL");
  double double_ll = 0.0;
  for (bool single : {false, true}) {
    SessionOptions options;
    options.backend = Backend::kOutOfCore;
    options.recompute_cherries = false;  // the paper's access stream
    options.policy = ReplacementPolicy::kLru;
    options.ram_fraction = 0.1;
    options.seed = 7;
    options.single_precision_disk = single;
    Session session(dataset.alignment, dataset.start_tree, benchmark_gtr(),
                    options);
    double ll = 0.0;
    for (int i = 0; i < 3; ++i)
      ll = session.engine().full_traversal_log_likelihood();
    if (!single) double_ll = ll;
    std::printf("%-12s %14.1f %14.1f %18.6f\n", single ? "single" : "double",
                static_cast<double>(session.stats().bytes_read) / 1048576.0,
                static_cast<double>(session.stats().bytes_written) / 1048576.0,
                ll);
    if (single)
      std::printf("# logL deviation from double-precision disk: %.2e "
                  "(relative %.2e)\n",
                  ll - double_ll,
                  std::abs(ll - double_ll) / std::abs(double_ll));
    std::fflush(stdout);
  }

  std::printf("\n[C] read skipping\n");
  std::printf("%-12s %12s %12s %14s\n", "skipping", "reads", "writes",
              "total_io_ops");
  for (bool skipping : {false, true}) {
    SessionOptions options;
    options.read_skipping = skipping;
    const WorkloadResult result = run(options);
    std::printf("%-12s %12llu %12llu %14llu\n", skipping ? "on" : "off",
                static_cast<unsigned long long>(result.stats.file_reads),
                static_cast<unsigned long long>(result.stats.file_writes),
                static_cast<unsigned long long>(result.stats.file_reads +
                                                result.stats.file_writes));
    std::fflush(stdout);
  }
  return 0;
}
