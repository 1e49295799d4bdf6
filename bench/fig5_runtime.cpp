// Figure 5 reproduction: execution time of 5 full tree traversals (the
// paper's -f z worst case: every ancestral vector recomputed, minimal
// locality) on simulated DNA datasets whose ancestral-vector footprint sweeps
// past the RAM budget, comparing
//   standard  — the unmodified implementation relying on (simulated) OS
//               paging: 4 KiB-page LRU over the same backing file;
//   ooc-lru / ooc-rand — the out-of-core slot manager with the -L byte budget.
//
// The paper ran on a 2 GB-RAM machine with 1-32 GB datasets against real
// swap. A large-RAM host page-caches the whole file, so wall clock alone no
// longer shows the disk-bound regime; every backing-file operation therefore
// also accrues *modeled device time* (2010-era HDD: 8 ms seek + 100 MB/s) and
// the projected total (compute wall time + modeled device time) is the
// figure's series. Shape to reproduce: standard wins while the data fits the
// budget; beyond it the out-of-core version wins by a widening factor
// (> 5x at the top size in the paper).
#include "bench_common.hpp"

#include "likelihood/memory_model.hpp"

using namespace plfoc;
using namespace plfoc::bench;

namespace {

struct Variant {
  const char* name;
  Backend backend;
  ReplacementPolicy policy;
};

struct RunResult {
  double wall = 0.0;
  double device = 0.0;
  double loglik = 0.0;
  std::uint64_t io_ops = 0;
  std::uint64_t faults_or_misses = 0;
};

RunResult run_traversals(const PlannedDataset& data, const Variant& variant,
                         std::uint64_t budget_bytes, int traversals) {
  SessionOptions options;
  options.backend = variant.backend;
  options.recompute_cherries = false;  // the paper's access stream
  options.policy = variant.policy;
  options.ram_budget_bytes = budget_bytes;
  options.compress_patterns = false;  // keep the exact planned footprint
  options.device = DeviceModel::hdd_2010();
  options.seed = 3;
  Session session(data.alignment, data.tree, benchmark_gtr(), options);

  Timer timer;
  RunResult result;
  for (int i = 0; i < traversals; ++i)
    result.loglik = session.engine().full_traversal_log_likelihood();
  result.wall = timer.seconds();
  if (OutOfCoreStore* ooc = session.out_of_core()) {
    result.device = ooc->file().modeled_device_seconds();
    result.io_ops = ooc->file().io_operations();
  } else if (PagedStore* paged = session.paged()) {
    result.device = paged->file().modeled_device_seconds();
    result.io_ops = paged->file().io_operations();
    result.faults_or_misses = paged->page_faults();
  }
  if (session.out_of_core() != nullptr)
    result.faults_or_misses = session.stats().misses;
  return result;
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  std::size_t taxa = 1024;
  std::uint64_t budget = 64ull << 20;
  std::vector<std::uint64_t> sizes;
  switch (scale) {
    case Scale::kQuick:
      taxa = 128;
      budget = 4ull << 20;
      sizes = {2ull << 20, 4ull << 20, 8ull << 20, 16ull << 20};
      break;
    case Scale::kPaper:
      sizes = {32ull << 20, 64ull << 20, 128ull << 20, 256ull << 20,
               512ull << 20};
      break;
    case Scale::kFull:
      taxa = 8192;
      budget = 1ull << 30;
      sizes = {512ull << 20, 1ull << 30, 2ull << 30, 4ull << 30, 8ull << 30};
      break;
  }
  const int traversals = 5;

  std::printf("# Figure 5: 5 full tree traversals, %zu taxa, RAM budget "
              "%.0f MiB, scale=%s\n",
              taxa, static_cast<double>(budget) / 1048576.0,
              scale_name(scale));
  std::printf("# device model: 8 ms seek + 100 MB/s (2010 HDD); projected = "
              "compute wall + modeled device time\n");
  std::printf("%10s %-10s %10s %12s %12s %12s %14s\n", "size_MiB", "variant",
              "wall_s", "device_s", "projected_s", "io_ops",
              "faults/misses");

  const Variant variants[] = {
      {"standard", Backend::kPaged, ReplacementPolicy::kRandom},
      {"ooc-lru", Backend::kOutOfCore, ReplacementPolicy::kLru},
      {"ooc-rand", Backend::kOutOfCore, ReplacementPolicy::kRandom},
  };

  for (std::uint64_t size : sizes) {
    DatasetPlan plan;
    plan.num_taxa = taxa;
    plan.target_ancestral_bytes = size;
    plan.seed = 99;
    const PlannedDataset data = make_dna_dataset(plan);
    double reference_ll = 0.0;
    bool have_reference = false;
    for (const Variant& variant : variants) {
      const RunResult result =
          run_traversals(data, variant, budget, traversals);
      std::printf("%10.0f %-10s %10.1f %12.1f %12.1f %12llu %14llu\n",
                  static_cast<double>(size) / 1048576.0, variant.name,
                  result.wall, result.device, result.wall + result.device,
                  static_cast<unsigned long long>(result.io_ops),
                  static_cast<unsigned long long>(result.faults_or_misses));
      std::fflush(stdout);
      if (!have_reference) {
        reference_ll = result.loglik;
        have_reference = true;
      } else if (result.loglik != reference_ll) {
        std::printf("# WARNING: logL mismatch across variants (%f vs %f)\n",
                    result.loglik, reference_ll);
        return 1;
      }
    }
  }
  return 0;
}
