// Robustness-layer overhead: what does the fault-injection / retry machinery
// cost on top of the checksummed clean path? Variants:
//
//   integrity     checksums verified at swap-in / updated at write-back
//                 (the only vector-file format; no faults armed)
//   rate=0.10     the same plus a fault schedule at a 10% rate, with a
//                 retry budget absorbing every fault
//
// The interesting number is the armed/integrity wall ratio (the injection
// machinery itself) — results must stay bit-identical throughout
// (docs/robustness.md). The checksum layer's own cost shows as the record
// hash's throughput (and the serial checksum64 digest's, for scale) at a
// 4 KiB page, a search-dna vector (25600 B) and a Fig. 5 vector (256 KiB).
// The final stdout line is a JSON object with every variant's numbers for
// dashboards and CI scraping.
#include "bench_common.hpp"
#include "ooc/record_checksum.hpp"

using namespace plfoc;
using namespace plfoc::bench;

namespace {

struct OverheadResult {
  double wall = 0.0;
  double loglik = 0.0;
  OocStats stats;
};

OverheadResult run(const PlannedDataset& data, const FaultConfig& faults,
                   std::uint64_t budget, int traversals) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.policy = ReplacementPolicy::kLru;
  options.ram_budget_bytes = budget;
  options.compress_patterns = false;
  options.seed = 5;
  options.faults = faults;
  options.io_retry.backoff_initial_us = 0;  // measure the loop, not sleeps
  Session session(data.alignment, data.tree, benchmark_gtr(), options);
  // Warm-up traversal populates the file; the measured part starts clean.
  session.engine().full_traversal_log_likelihood();
  session.reset_stats();
  Timer timer;
  OverheadResult result;
  for (int i = 0; i < traversals; ++i)
    result.loglik = session.engine().full_traversal_log_likelihood();
  result.wall = timer.seconds();
  result.stats = session.store().stats_snapshot();
  return result;
}

constexpr std::size_t kChecksumSizes[] = {4096, 25600, 256 * 1024};

/// Best-of-3 throughput in GB/s of `hash` over `bytes`-byte buffers.
template <typename Hash>
double checksum_gbps(Hash hash, std::size_t bytes, std::uint64_t total) {
  std::vector<unsigned char> buffer(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    buffer[i] = static_cast<unsigned char>(mix64(i));
  const std::uint64_t reps = std::max<std::uint64_t>(1, total / bytes);
  double best = 0.0;
  volatile std::uint64_t sink = 0;  // keeps the hash calls observable
  for (int round = 0; round < 3; ++round) {
    Timer timer;
    for (std::uint64_t i = 0; i < reps; ++i)
      sink = sink ^ hash(i, buffer.data(), bytes);
    const double seconds = timer.seconds();
    if (seconds > 0.0)
      best = std::max(best, static_cast<double>(reps * bytes) / seconds / 1e9);
  }
  return best;
}

void print_row(const char* name, const OverheadResult& r) {
  std::printf("%-14s %10.2f %10llu %10llu %10llu\n", name, r.wall,
              static_cast<unsigned long long>(r.stats.faults_injected),
              static_cast<unsigned long long>(r.stats.io_retries),
              static_cast<unsigned long long>(r.stats.io_exhausted));
}

void print_json_variant(const char* name, const OverheadResult& r,
                        const char* trailer) {
  std::printf("\"%s\":{\"wall_s\":%.4f,\"file_reads\":%llu,\"file_writes\":"
              "%llu,\"faults\":%llu,\"retried\":%llu,\"exhausted\":%llu}%s",
              name, r.wall,
              static_cast<unsigned long long>(r.stats.file_reads),
              static_cast<unsigned long long>(r.stats.file_writes),
              static_cast<unsigned long long>(r.stats.faults_injected),
              static_cast<unsigned long long>(r.stats.io_retries),
              static_cast<unsigned long long>(r.stats.io_exhausted), trailer);
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

  std::printf("# Robustness-layer overhead: %d full traversals, %zu taxa, "
              "%.0f MiB vectors, %.0f MiB budget, scale=%s\n",
              traversals, plan.num_taxa,
              static_cast<double>(plan.target_ancestral_bytes) / 1048576.0,
              static_cast<double>(budget) / 1048576.0, scale_name(scale));
  const std::uint64_t hashed = scale == Scale::kQuick ? (64ull << 20)
                                                       : (1ull << 30);
  double record_gbps[3];
  double digest_gbps[3];
  for (int i = 0; i < 3; ++i) {
    record_gbps[i] = checksum_gbps(record_checksum, kChecksumSizes[i], hashed);
    digest_gbps[i] = checksum_gbps(checksum64, kChecksumSizes[i], hashed);
  }
  std::printf("%-14s %10s %10s %10s\n", "checksum GB/s", "4096 B",
              "25600 B", "262144 B");
  std::printf("%-14s %10.2f %10.2f %10.2f\n", "record", record_gbps[0],
              record_gbps[1], record_gbps[2]);
  std::printf("%-14s %10.2f %10.2f %10.2f\n", "digest", digest_gbps[0],
              digest_gbps[1], digest_gbps[2]);

  std::printf("%-14s %10s %10s %10s %10s\n", "variant", "wall_s", "faults",
              "retried", "exhausted");

  const FaultConfig off;  // rate 0: the injector is never constructed
  const OverheadResult checked = run(data, off, budget, traversals);
  print_row("integrity", checked);

  FaultConfig armed;
  armed.seed = 20260805;
  armed.rate = 0.10;  // the acceptance ceiling
  armed.burst = 2;    // fits inside the default retry budget of 4
  const OverheadResult faulty = run(data, armed, budget, traversals);
  print_row("rate=0.10", faulty);

  const double armed_overhead =
      checked.wall == 0.0 ? 0.0 : faulty.wall / checked.wall;
  std::printf("# armed/integrity wall ratio: %.2fx\n", armed_overhead);

  const bool identical = checked.loglik == faulty.loglik;
  if (!identical) std::printf("# WARNING: logL mismatch between variants\n");
  else std::printf("# logL bit-identical across variants: %.6f\n",
                   checked.loglik);

  // Machine-readable summary (one line, scraped by dashboards / CI).
  std::printf("{\"bench\":\"fault_overhead\",\"scale\":\"%s\",\"traversals\""
              ":%d,", scale_name(scale), traversals);
  print_json_variant("integrity", checked, ",");
  print_json_variant("faulty", faulty, ",");
  for (const auto& [name, gbps] :
       {std::pair{"record_checksum_gbps", record_gbps},
        std::pair{"digest_checksum_gbps", digest_gbps}})
    std::printf("\"%s\":{\"4096\":%.2f,\"25600\":%.2f,\"262144\":%.2f},",
                name, gbps[0], gbps[1], gbps[2]);
  std::printf("\"armed_overhead\":%.4f,\"logl_bit_identical\":%s}\n",
              armed_overhead, identical ? "true" : "false");
  return identical ? 0 : 1;
}
