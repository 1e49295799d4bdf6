// Transfer-granularity ablation: WHY the application-level layer wins.
//
// Sec. 3.1 argues that an ancestral probability vector is the natural
// logical block — far larger than the 512 B / 8 KiB hardware blocks — so
// every transfer is one large contiguous I/O. This harness holds the memory
// budget fixed and sweeps the paged baseline's page size from 4 KiB towards
// vector size; the out-of-core store (vector granularity + pinning + read
// skipping) is the limit case and still wins even against huge pages
// because generic paging cannot skip reads or pin the working triple.
#include "bench_common.hpp"

using namespace plfoc;
using namespace plfoc::bench;

int main() {
  const Scale scale = scale_from_env();
  DatasetPlan plan;
  plan.num_taxa = scale == Scale::kQuick ? 128 : 512;
  plan.target_ancestral_bytes =
      scale == Scale::kQuick ? (16ull << 20) : (256ull << 20);
  plan.seed = 31;
  const PlannedDataset data = make_dna_dataset(plan);
  const std::uint64_t budget = plan.target_ancestral_bytes / 4;
  const int traversals = 3;
  const std::uint64_t vector_bytes = data.memory.vector_bytes();

  std::printf("# Granularity ablation: %d full traversals, %.0f MiB vectors "
              "(%.0f KiB each), %.0f MiB budget\n",
              traversals,
              static_cast<double>(plan.target_ancestral_bytes) / 1048576.0,
              static_cast<double>(vector_bytes) / 1024.0,
              static_cast<double>(budget) / 1048576.0);
  std::printf("%-22s %12s %12s %12s %14s\n", "configuration", "io_ops",
              "MB_read", "MB_written", "device_s");

  const auto report = [&](const char* label, const OocStats& stats,
                          std::uint64_t ops, double device_s) {
    std::printf("%-22s %12llu %12.1f %12.1f %14.1f\n", label,
                static_cast<unsigned long long>(ops),
                static_cast<double>(stats.bytes_read) / 1048576.0,
                static_cast<double>(stats.bytes_written) / 1048576.0,
                device_s);
    std::fflush(stdout);
  };

  for (std::size_t page : {4096u, 16384u, 65536u, 262144u}) {
    SessionOptions options;
    options.backend = Backend::kPaged;
    options.ram_budget_bytes = budget;
    options.page_bytes = page;
    options.compress_patterns = false;
    options.device = DeviceModel::hdd_2010();
    Session session(data.alignment, data.tree, benchmark_gtr(), options);
    for (int i = 0; i < traversals; ++i)
      session.engine().full_traversal_log_likelihood();
    char label[64];
    std::snprintf(label, sizeof(label), "paged %zu KiB pages", page / 1024);
    report(label, session.stats(), session.paged()->file().io_operations(),
           session.paged()->file().modeled_device_seconds());
  }

  SessionOptions ooc;
  ooc.backend = Backend::kOutOfCore;
  ooc.recompute_cherries = false;  // the paper's access stream
  ooc.ram_budget_bytes = budget;
  ooc.policy = ReplacementPolicy::kLru;
  ooc.compress_patterns = false;
  ooc.device = DeviceModel::hdd_2010();
  Session session(data.alignment, data.tree, benchmark_gtr(), ooc);
  for (int i = 0; i < traversals; ++i)
    session.engine().full_traversal_log_likelihood();
  report("ooc (vector blocks)", session.stats(),
         session.out_of_core()->file().io_operations(),
         session.out_of_core()->file().modeled_device_seconds());
  return 0;
}
