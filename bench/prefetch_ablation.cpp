// Section 5 extension ablation: the paper lists a prefetch thread as future
// work ("we will assess if pre-fetching can be deployed by means of a
// prefetch thread"). We implement it (ooc/prefetch.hpp): the engine submits
// each traversal descriptor's read-set before computing, and a background
// thread swaps the upcoming vectors in while the kernels run. This harness
// compares full-traversal workloads with and without the prefetcher.
#include "bench_common.hpp"

#include "ooc/prefetch.hpp"

using namespace plfoc;
using namespace plfoc::bench;

namespace {

struct AblationResult {
  double wall = 0.0;
  std::uint64_t engine_misses = 0;
  std::uint64_t engine_reads = 0;
  std::uint64_t prefetch_reads = 0;
  double loglik = 0.0;
  AccessStream stream;  ///< the baseline's
};

AblationResult run(const PlannedDataset& data, bool with_prefetch,
                   std::uint64_t budget, int traversals) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.recompute_cherries = false;  // the paper's access stream
  options.policy = ReplacementPolicy::kLru;
  options.ram_budget_bytes = budget;
  options.compress_patterns = false;
  options.seed = 5;
  Session session(data.alignment, data.tree, benchmark_gtr(), options);
  AblationResult result;
  if (!with_prefetch) {
    // Its counts are exact, so the baseline also records the access stream.
    result.stream = record_access_stream(session, traversals);
    result.wall = result.stream.wall;
    result.loglik = result.stream.loglik;
    result.engine_misses = result.stream.stats.misses;
    result.engine_reads = result.stream.stats.file_reads;
    return result;
  }
  Prefetcher prefetcher(*session.out_of_core());
  session.engine().attach_prefetcher(&prefetcher);
  // Warm-up traversal populates the file; the measured part starts clean.
  session.engine().full_traversal_log_likelihood();
  session.reset_stats();
  Timer timer;
  for (int i = 0; i < traversals; ++i)
    result.loglik = session.engine().full_traversal_log_likelihood();
  result.wall = timer.seconds();
  result.engine_misses = session.stats().misses;
  result.engine_reads = session.stats().file_reads;
  result.prefetch_reads = session.stats().prefetch_reads;
  session.engine().attach_prefetcher(nullptr);
  return result;
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  DatasetPlan plan;
  plan.num_taxa = scale == Scale::kQuick ? 128 : 512;
  plan.target_ancestral_bytes =
      scale == Scale::kQuick ? (16ull << 20) : (256ull << 20);
  plan.seed = 77;
  const PlannedDataset data = make_dna_dataset(plan);
  const std::uint64_t budget = plan.target_ancestral_bytes / 8;
  const int traversals = 3;

  std::printf("# Prefetch-thread ablation: %d full traversals, %zu taxa, "
              "%.0f MiB vectors, %.0f MiB budget, scale=%s\n",
              traversals, plan.num_taxa,
              static_cast<double>(plan.target_ancestral_bytes) / 1048576.0,
              static_cast<double>(budget) / 1048576.0, scale_name(scale));
  std::printf("%-12s %10s %14s %14s %16s\n", "variant", "wall_s",
              "engine_misses", "engine_reads", "prefetch_reads");

  const AblationResult off = run(data, false, budget, traversals);
  std::printf("%-12s %10.1f %14llu %14llu %16llu\n", "baseline", off.wall,
              static_cast<unsigned long long>(off.engine_misses),
              static_cast<unsigned long long>(off.engine_reads),
              static_cast<unsigned long long>(off.prefetch_reads));
  const AblationResult on = run(data, true, budget, traversals);
  std::printf("%-12s %10.1f %14llu %14llu %16llu\n", "prefetch", on.wall,
              static_cast<unsigned long long>(on.engine_misses),
              static_cast<unsigned long long>(on.engine_reads),
              static_cast<unsigned long long>(on.prefetch_reads));

  print_access_stream(off.stream);
  std::printf("# prefetch moved %.1f%% of swap-in reads off the engine's "
              "critical path\n",
              off.engine_reads == 0
                  ? 0.0
                  : 100.0 *
                        static_cast<double>(off.engine_reads -
                                            on.engine_reads) /
                        static_cast<double>(off.engine_reads));
  if (on.loglik != off.loglik) {
    std::printf("# WARNING: logL mismatch between variants\n");
    return 1;
  }
  return 0;
}
