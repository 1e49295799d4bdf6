// Async-I/O engine sweep (docs/async-io.md): the Fig. 5 disk-bound traversal
// workload re-run under --io-engine sync | threads | uring across a queue-
// depth sweep. A demand miss hands the engine one batch of at most two ops
// (victim write-back and demand read), so depths above 2 leave the rows
// unchanged.
//
// A large-RAM host page-caches the whole vector file, so an unadorned run
// cannot show what overlapped submission buys on the paper's 2 GB machine.
// An injected per-transfer latency spike (FaultConfig kLatency, rate 1) is
// the stand-in disk: a REAL sleep inside every payload transfer, which
// concurrent engine workers overlap but the sequential path serialises.
// Wall time under that latency is the headline; the fig5 modeled HDD time
// is reported alongside (it charges per device operation, so coalesced
// ranged reads show up there, but the model has no concurrency and cannot
// see overlap).
//
// Read skipping is disabled: the sweep measures the engine on the *full*
// swap path — victim write-back plus demand read, the pair the stores
// overlap — rather than the write-only regime skipping reduces Fig. 5's
// traversals to. Log likelihoods must stay bit-identical across every
// engine and depth (the run exits nonzero otherwise).
//
// JSON: one row per (engine, depth) with wall/device/projected seconds and
// the io_batches / io_coalesced counters; written to the --json path (CI
// uploads it as BENCH_aio.json) and echoed to stdout.
#include "bench_common.hpp"

#include <cstring>

using namespace plfoc;
using namespace plfoc::bench;

namespace {

struct RunResult {
  double wall = 0.0;
  double device = 0.0;
  double loglik = 0.0;
  OocStats stats;
  const char* engine = "?";  ///< resolved name (uring may degrade to threads)
  unsigned depth = 1;
};

SessionOptions sweep_options(AioEngineKind engine, unsigned depth,
                             std::uint64_t budget, std::uint64_t latency_ns) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.recompute_cherries = false;  // the paper's access stream
  options.policy = ReplacementPolicy::kTopological;
  // Full swap path: every miss pays victim write-back + demand read, the
  // pair the stores hand to the engine as one overlapped batch. Skipping
  // would reduce -f z traversals to almost pure writes and starve the sweep.
  options.read_skipping = false;
  options.ram_budget_bytes = budget;
  options.compress_patterns = false;
  options.device = DeviceModel::hdd_2010();
  options.seed = 9;
  options.io_engine = engine;
  options.io_depth = depth;
  // The stand-in disk: every payload transfer stalls latency_ns once.
  FaultConfig spindle;
  spindle.seed = 20260808;
  spindle.rate = 1.0;
  spindle.burst = 1;
  spindle.kinds = kFaultLatency;
  spindle.latency_ns = latency_ns;
  options.faults = spindle;
  options.io_retry.backoff_initial_us = 0;
  return options;
}

RunResult run(const PlannedDataset& data, AioEngineKind engine,
              unsigned depth, std::uint64_t budget, int traversals,
              std::uint64_t latency_ns) {
  Session session(data.alignment, data.tree, benchmark_gtr(),
                  sweep_options(engine, depth, budget, latency_ns));
  OutOfCoreStore* store = session.out_of_core();

  RunResult result;
  result.depth = depth;
  // Warm-up traversal populates the file; the measured part starts cold in
  // RAM but with every vector on disk, exactly the fig5 -f z regime.
  session.engine().full_traversal_log_likelihood();
  session.reset_stats();
  store->file().reset_device_accounting();
  Timer timer;
  for (int i = 0; i < traversals; ++i)
    result.loglik = session.engine().full_traversal_log_likelihood();
  result.wall = timer.seconds();
  result.device = store->file().modeled_device_seconds();
  result.stats = session.store().stats_snapshot();
  result.engine = store->file().io_engine_name();
  return result;
}

double hit_rate(const RunResult& r) {
  return r.stats.accesses == 0
             ? 0.0
             : static_cast<double>(r.stats.hits) /
                   static_cast<double>(r.stats.accesses);
}

void print_row(const RunResult& r) {
  std::printf("%-8s %5u %8.2f %8.2f %9.2f %10llu %10llu %10llu %7llu %6.2f\n",
              r.engine, r.depth, r.wall, r.device, r.wall + r.device,
              static_cast<unsigned long long>(r.stats.file_reads +
                                              r.stats.file_writes),
              static_cast<unsigned long long>(r.stats.io_batches),
              static_cast<unsigned long long>(r.stats.io_coalesced),
              static_cast<unsigned long long>(r.stats.io_write_coalesced),
              hit_rate(r));
}

void append_json_row(std::string& json, const RunResult& r, bool first) {
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "%s{\"engine\":\"%s\",\"depth\":%u,\"wall_s\":%.4f,\"device_s\":%.4f,"
      "\"projected_s\":%.4f,\"file_reads\":%llu,\"file_writes\":%llu,"
      "\"io_batches\":%llu,\"io_coalesced\":%llu,\"io_write_coalesced\":%llu,"
      "\"hit_rate\":%.4f}",
      first ? "" : ",", r.engine, r.depth, r.wall, r.device,
      r.wall + r.device, static_cast<unsigned long long>(r.stats.file_reads),
      static_cast<unsigned long long>(r.stats.file_writes),
      static_cast<unsigned long long>(r.stats.io_batches),
      static_cast<unsigned long long>(r.stats.io_coalesced),
      static_cast<unsigned long long>(r.stats.io_write_coalesced),
      hit_rate(r));
  json += buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  const Scale scale = scale_from_env();
  DatasetPlan plan;
  plan.num_taxa = scale == Scale::kQuick ? 48 : 128;
  plan.target_ancestral_bytes =
      scale == Scale::kQuick ? (4ull << 20) : (16ull << 20);
  plan.seed = 41;
  const PlannedDataset data = make_dna_dataset(plan);
  // Disk-bound: fig5 keeps ~1/4 of the vectors in RAM.
  const std::uint64_t budget = plan.target_ancestral_bytes / 4;
  const int traversals = scale == Scale::kQuick ? 2 : 3;
  const std::uint64_t latency_ns =
      scale == Scale::kQuick ? 1'000'000 : 2'000'000;

  std::printf("# Async-I/O engine sweep: %d full traversals, %zu taxa, "
              "%.0f MiB vectors, %.0f MiB budget, %.2f ms/transfer stand-in "
              "latency, scale=%s\n",
              traversals, plan.num_taxa,
              static_cast<double>(plan.target_ancestral_bytes) / 1048576.0,
              static_cast<double>(budget) / 1048576.0,
              static_cast<double>(latency_ns) / 1e6, scale_name(scale));
  std::printf("# uring rows silently degrade to the thread pool when the "
              "host refuses io_uring (engine column shows the resolved "
              "backend)\n");
  std::printf("%-8s %5s %8s %8s %9s %10s %10s %10s %7s %6s\n", "engine",
              "depth", "wall_s", "device_s", "proj_s", "transfers", "batches",
              "coalesced", "w_coal", "hit");

  const unsigned depths[] = {1, 2, 4, 8, 16};
  std::vector<RunResult> rows;
  rows.push_back(
      run(data, AioEngineKind::kSync, 1, budget, traversals, latency_ns));
  print_row(rows.back());
  for (const AioEngineKind engine :
       {AioEngineKind::kThreads, AioEngineKind::kUring}) {
    for (const unsigned depth : depths) {
      rows.push_back(
          run(data, engine, depth, budget, traversals, latency_ns));
      print_row(rows.back());
    }
  }

  const RunResult& sync = rows.front();
  bool identical = true;
  double best_async = -1.0;
  const char* best_label = "?";
  for (const RunResult& r : rows) {
    if (r.loglik != sync.loglik) identical = false;
    if (&r == &sync || r.depth < 8) continue;
    if (best_async < 0.0 || r.wall < best_async) {
      best_async = r.wall;
      best_label = r.engine;
    }
  }
  std::printf("# best async engine at depth >= 8: %s, wall %.2fs vs sync "
              "%.2fs (%.2fx speedup under the stand-in disk)\n",
              best_label, best_async, sync.wall,
              best_async > 0.0 ? sync.wall / best_async : 0.0);

  std::printf(identical
                  ? "# logL bit-identical across all engines and depths\n"
                  : "# WARNING: logL mismatch across engines\n");

  std::string json = "{\"bench\":\"aio\",\"scale\":\"";
  json += scale_name(scale);
  json += "\",\"traversals\":" + std::to_string(traversals);
  json += ",\"latency_ns\":" + std::to_string(latency_ns);
  json += ",\"sync_wall_s\":";
  char head[80];
  std::snprintf(head, sizeof(head), "%.4f", sync.wall);
  json += head;
  std::snprintf(head, sizeof(head), ",\"best_async_wall_s\":%.4f",
                best_async);
  json += head;
  json += ",\"async_beats_sync\":";
  json += (best_async > 0.0 && best_async < sync.wall) ? "true" : "false";
  json += ",\"logl_bit_identical\":";
  json += identical ? "true" : "false";
  json += ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i)
    append_json_row(json, rows[i], i == 0);
  json += "]}";
  std::printf("%s\n", json.c_str());
  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out, "%s\n", json.c_str());
    std::fclose(out);
  }
  return identical ? 0 : 1;
}
