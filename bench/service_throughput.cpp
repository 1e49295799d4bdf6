// Batch-service throughput: jobs/sec and aggregate miss rate as a function
// of worker count and the global slot-memory budget (docs/service.md), plus
// the serving tier on top of it (docs/serving.md):
//
//   phase 1 — the in-process worker x budget sweep. Expected shape:
//     job-level speedup > 1 at 4 workers vs 1 worker under an unlimited
//     budget; tightening the budget degrades jobs to smaller stores while
//     peak charged slot memory stays within it; log likelihoods are
//     bit-identical across every cell (the determinism contract).
//   phase 2 — a networked many-tenant zipfian-repeat workload through a
//     loopback Server, cache-off vs cache-on. Expected shape: the repeat
//     mass turns into cache hits (>50% hit rate), collapsing p50/p99
//     latency and raising jobs/sec.
//   phase 3 — weighted fairness: two tenants at 3:1 weights through one
//     worker; the deficit-round-robin completed ratio tracks 3:1 within
//     10% at any aligned cut.
//   phase 4 — overload: offered load far above one worker's capacity, with
//     and without deadlines + queue-wait shedding (docs/robustness.md).
//     Expected shape: unprotected, every job runs and the accepted p99
//     (queue + evaluation) grows linearly with the backlog; protected, the
//     late arrivals are shed / expired and the p99 of the jobs that DO run
//     is bounded by the shed budget — the report asserts
//     p99(protected) <= p99(unprotected).
//
// `--json <path>` additionally writes all phases as a machine-readable
// report for CI artifacts and trend tracking.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "likelihood/memory_model.hpp"
#include "msa/fasta.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "tree/phylo2vec.hpp"
#include "tree/random_tree.hpp"
#include "util/mutex.hpp"

using namespace plfoc;
using namespace plfoc::bench;

namespace {

struct SweepCell {
  std::size_t workers;
  std::uint64_t budget;
  double jobs_per_second = 0.0;
  double miss_rate = 0.0;
  std::uint64_t peak_bytes = 0;
  std::size_t degraded = 0;
};

JobSpec make_job(const SearchDataset& dataset, std::size_t index) {
  JobSpec spec{"job-" + std::to_string(index + 1), dataset.alignment,
               dataset.start_tree, benchmark_gtr(), SessionOptions{}, ""};
  spec.session.backend = Backend::kOutOfCore;
  spec.session.ram_fraction = 0.25;
  spec.session.policy = ReplacementPolicy::kLru;
  spec.session.seed = index + 1;
  return spec;
}

/// Nearest-rank percentile: the ceil(p * n)-th smallest value.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

struct NetworkCell {
  std::size_t cache_entries = 0;
  std::size_t jobs = 0;
  double jobs_per_second = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double hit_rate = 0.0;
};

/// Phase 2: N jobs over the wire, tree picked zipfian from a fixed pool so
/// a heavy head repeats while a long tail stays cold; tenants round-robin.
NetworkCell run_network_phase(const std::string& fasta_path,
                              const std::vector<Phylo2Vec>& pool,
                              const std::vector<std::size_t>& picks,
                              std::size_t cache_entries) {
  ServerOptions options = loopback_server_options(2, picks.size());
  options.service.result_cache_entries = cache_entries;
  Server server(std::move(options));
  server.start();

  const char* tenants[] = {"ants", "bees", "crows", "deer"};
  BlockingClient client("127.0.0.1", server.port());
  Timer timer;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const Phylo2Vec& tree = pool[picks[i]];
    SubmitRequest request;
    request.request_id = i + 1;
    request.tenant = tenants[i % (sizeof tenants / sizeof *tenants)];
    char name[24];
    std::snprintf(name, sizeof name, "z%zu", i + 1);
    request.name = name;
    request.msa_path = fasta_path;
    request.tree_kind = WireTreeKind::kPhylo2Vec;
    request.tree_v = tree.v;
    request.tree_lengths = tree.lengths;
    request.taxa_digest = phylo2vec_taxa_digest(tree.taxa);
    client.submit(request);
  }
  std::vector<double> latencies;
  latencies.reserve(picks.size());
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const ClientResponse response = client.wait(i + 1);
    if (!response.result ||
        response.result->status != static_cast<std::uint8_t>(JobStatus::kDone))
      std::fprintf(stderr, "networked job %zu failed\n", i + 1);
    else
      latencies.push_back(response.result->queue_seconds +
                          response.result->wall_seconds);
  }
  const double wall = timer.seconds();
  const StatsResponse stats = client.stats();
  server.stop();

  NetworkCell cell;
  cell.cache_entries = cache_entries;
  cell.jobs = picks.size();
  cell.jobs_per_second =
      wall > 0.0 ? static_cast<double>(latencies.size()) / wall : 0.0;
  cell.p50_latency_s = percentile(latencies, 0.50);
  cell.p99_latency_s = percentile(latencies, 0.99);
  cell.hit_rate = stats.cache_lookups > 0
                      ? static_cast<double>(stats.cache_hits) /
                            static_cast<double>(stats.cache_lookups)
                      : 0.0;
  return cell;
}

struct FairnessResult {
  std::uint64_t completed_heavy = 0;
  std::uint64_t completed_light = 0;
  double ratio = 0.0;
};

/// Phase 3: a saturated single worker splits completions 3:1 between the
/// tenants. The completion ORDER is recorded and the ratio measured over a
/// fixed prefix (`window`, a whole number of deficit rounds), so the
/// measurement sees steady-state scheduling, not the backlog tails.
FairnessResult run_fairness_phase(std::size_t window) {
  std::vector<std::string> completion_order;
  Mutex order_mutex;
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 256;
  options.tenants["heavy"] = {.weight = 3,
                              .max_in_flight = 0,
                              .ram_share_bytes = 0};
  options.tenants["light"] = {.weight = 1,
                              .max_in_flight = 0,
                              .ram_share_bytes = 0};
  options.on_complete = [&](const JobResult& result) {
    MutexLock lock(order_mutex);
    completion_order.push_back(result.tenant);
  };
  Service service(options);

  DatasetPlan plan;
  plan.num_taxa = 24;
  plan.num_sites = 120;
  plan.seed = 77;
  const PlannedDataset data = make_dna_dataset(plan);
  const auto submit = [&](const char* tenant, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      JobSpec spec{"", data.alignment, data.tree, benchmark_gtr(),
                   SessionOptions{}, tenant};
      spec.session.backend = Backend::kInRam;
      service.submit(std::move(spec));
    }
  };
  // Backlogs sized so neither tenant runs dry inside the window: the
  // window's worst case takes 3/4 of it from heavy and 1/4 from light.
  submit("heavy", window);
  submit("light", window / 2);
  service.drain();

  FairnessResult result;
  const std::size_t cut = std::min(window, completion_order.size());
  for (std::size_t i = 0; i < cut; ++i) {
    if (completion_order[i] == "heavy")
      ++result.completed_heavy;
    else
      ++result.completed_light;
  }
  result.ratio = result.completed_light > 0
                     ? static_cast<double>(result.completed_heavy) /
                           static_cast<double>(result.completed_light)
                     : 0.0;
  return result;
}

struct OverloadCell {
  bool protected_run = false;  ///< deadlines + shedding on
  std::size_t offered = 0;
  std::size_t accepted = 0;   ///< kDone
  std::size_t shed = 0;       ///< kOverloaded
  std::size_t expired = 0;    ///< kDeadlineExceeded
  double shed_rate = 0.0;     ///< (shed + expired) / offered
  double p99_accepted_s = 0.0;  ///< queue + evaluation, accepted jobs only
};

/// Phase 4: `offered` cheap in-RAM jobs dumped on one worker at once — a
/// backlog many times deeper than capacity. The protected run arms a queue-
/// wait shed budget of ~8 jobs' service time and a per-job deadline at 2x
/// that; the unprotected run takes the full latency hit.
OverloadCell run_overload_phase(const PlannedDataset& data,
                                std::size_t offered, double per_job_s,
                                bool protect) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = offered;
  const double shed_budget = 8.0 * per_job_s;
  if (protect) options.shed_queue_seconds = shed_budget;
  Service service(options);
  for (std::size_t i = 0; i < offered; ++i) {
    JobSpec spec{"", data.alignment, data.tree, benchmark_gtr(),
                 SessionOptions{}, ""};
    spec.session.backend = Backend::kInRam;
    if (protect) spec.deadline_seconds = 2.0 * shed_budget;
    service.submit(std::move(spec));
  }
  const std::vector<JobResult> results = service.drain();

  OverloadCell cell;
  cell.protected_run = protect;
  cell.offered = offered;
  std::vector<double> accepted_latencies;
  for (const JobResult& result : results) {
    switch (result.status) {
      case JobStatus::kDone:
        ++cell.accepted;
        accepted_latencies.push_back(result.queue_seconds +
                                     result.wall_seconds);
        break;
      case JobStatus::kOverloaded:
        ++cell.shed;
        break;
      case JobStatus::kDeadlineExceeded:
        ++cell.expired;
        break;
      default:
        std::fprintf(stderr, "overload job unexpectedly %s\n",
                     job_status_name(result.status));
        break;
    }
  }
  cell.shed_rate = offered > 0
                       ? static_cast<double>(cell.shed + cell.expired) /
                             static_cast<double>(offered)
                       : 0.0;
  cell.p99_accepted_s = percentile(accepted_latencies, 0.99);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];

  const Scale scale = scale_from_env();
  const std::size_t taxa = scale == Scale::kQuick ? 48 : 128;
  const std::size_t sites = scale == Scale::kQuick ? 240 : 600;
  const std::size_t jobs = scale == Scale::kFull ? 32 : 16;
  const SearchDataset dataset = make_search_dataset(taxa, sites, 20110516);
  print_header("Service throughput: workers x global RAM budget", dataset,
               scale);

  // Price one job with the same conservative model the scheduler uses.
  const JobSpec probe = make_job(dataset, 0);
  const JobDemand demand = JobDemand::from_spec(probe);
  const std::uint64_t desired = demand.desired_bytes();
  std::printf("# %zu jobs, per-job demand %llu B (min %llu B)\n", jobs,
              static_cast<unsigned long long>(desired),
              static_cast<unsigned long long>(demand.minimum_bytes()));

  const std::size_t worker_counts[] = {1, 2, 4};
  // 0 = unlimited; 1.5x one job leaves a half-desired remainder that forces
  // a concurrent peer into a degraded (smaller-store) admission; 1x
  // serialises peers entirely.
  const std::uint64_t budgets[] = {0, desired + desired / 2, desired};

  std::vector<double> reference;  // logLs of the first cell, by job index
  bool deterministic = true;
  std::vector<SweepCell> cells;
  for (const std::size_t workers : worker_counts) {
    for (const std::uint64_t budget : budgets) {
      ServiceOptions options;
      options.workers = workers;
      options.queue_capacity = jobs;
      options.ram_budget_bytes = budget;
      Service service(options);
      Timer timer;
      for (std::size_t j = 0; j < jobs; ++j)
        service.submit(make_job(dataset, j));
      const std::vector<JobResult> results = service.drain();
      const double wall = timer.seconds();

      SweepCell cell{workers, budget};
      cell.jobs_per_second = wall > 0.0 ? results.size() / wall : 0.0;
      cell.miss_rate = service.merged_stats().miss_rate();
      cell.peak_bytes = service.peak_charged_bytes();
      if (reference.empty()) {
        for (const JobResult& r : results)
          reference.push_back(r.log_likelihood);
      }
      for (std::size_t j = 0; j < results.size(); ++j) {
        if (results[j].status != JobStatus::kDone ||
            results[j].log_likelihood != reference[j])
          deterministic = false;
        if (results[j].degraded) ++cell.degraded;
      }
      cells.push_back(cell);
      std::fflush(stdout);
    }
  }

  const double base = cells.front().jobs_per_second;  // 1 worker, unlimited
  std::printf("%8s %14s %10s %10s %12s %14s %9s\n", "workers", "budget_B",
              "jobs_s", "speedup", "miss_rate_%", "peak_B", "degraded");
  for (const SweepCell& cell : cells) {
    char budget_text[32];
    if (cell.budget == 0)
      std::snprintf(budget_text, sizeof budget_text, "%s", "unlimited");
    else
      std::snprintf(budget_text, sizeof budget_text, "%llu",
                    static_cast<unsigned long long>(cell.budget));
    std::printf("%8zu %14s %10.2f %10.2f %12.3f %14llu %9zu\n", cell.workers,
                budget_text, cell.jobs_per_second,
                base > 0.0 ? cell.jobs_per_second / base : 0.0,
                100.0 * cell.miss_rate,
                static_cast<unsigned long long>(cell.peak_bytes),
                cell.degraded);
  }
  std::printf("# deterministic across all cells: %s\n",
              deterministic ? "yes" : "NO");

  // ---- phase 2: networked zipfian-repeat workload, cache-off vs cache-on.
  const std::size_t zipf_taxa = scale == Scale::kQuick ? 24 : 32;
  const std::size_t zipf_sites = scale == Scale::kQuick ? 120 : 160;
  const std::size_t zipf_jobs =
      scale == Scale::kQuick ? 32 : (scale == Scale::kFull ? 96 : 48);
  DatasetPlan zipf_plan;
  zipf_plan.num_taxa = zipf_taxa;
  zipf_plan.num_sites = zipf_sites;
  zipf_plan.seed = 20260808;
  const PlannedDataset zipf_data = make_dna_dataset(zipf_plan);
  const std::string fasta_path =
      "/tmp/plfoc_bench_" + std::to_string(::getpid()) + "_zipf.fasta";
  write_fasta_file(fasta_path, zipf_data.alignment);

  std::vector<std::string> taxa_names;
  for (std::size_t i = 0; i < zipf_data.alignment.num_taxa(); ++i)
    taxa_names.push_back(zipf_data.alignment.name(i));
  constexpr std::size_t kPoolSize = 8;
  std::vector<Phylo2Vec> pool;
  Rng pool_rng(99);
  for (std::size_t k = 0; k < kPoolSize; ++k)
    pool.push_back(phylo2vec_encode(random_tree(taxa_names, pool_rng)));

  // Zipf(1.2) over the pool: the head tree dominates, the tail stays cold.
  std::vector<double> cdf(kPoolSize);
  double mass = 0.0;
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    mass += 1.0 / std::pow(static_cast<double>(k + 1), 1.2);
    cdf[k] = mass;
  }
  Rng pick_rng(7);
  std::vector<std::size_t> picks(zipf_jobs);
  for (std::size_t i = 0; i < zipf_jobs; ++i) {
    const double u = pick_rng.uniform() * mass;
    picks[i] = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }

  std::vector<NetworkCell> network;
  network.push_back(run_network_phase(fasta_path, pool, picks, 0));
  network.push_back(run_network_phase(fasta_path, pool, picks, 256));
  std::remove(fasta_path.c_str());

  std::printf("\n# networked zipfian repeat (%zu jobs, pool %zu, 4 tenants)\n",
              zipf_jobs, kPoolSize);
  std::printf("%8s %10s %14s %14s %10s\n", "cache", "jobs_s", "p50_latency_s",
              "p99_latency_s", "hit_rate");
  for (const NetworkCell& cell : network)
    std::printf("%8zu %10.2f %14.6f %14.6f %10.3f\n", cell.cache_entries,
                cell.jobs_per_second, cell.p50_latency_s, cell.p99_latency_s,
                cell.hit_rate);
  const bool cache_helped =
      network[1].hit_rate > 0.5 &&
      network[1].p99_latency_s <= network[0].p99_latency_s;
  std::printf("# cache-on beats cache-off (hit rate > 0.5, p99 <=): %s\n",
              cache_helped ? "yes" : "NO");

  // ---- phase 3: 3:1 weighted fairness through one worker.
  const FairnessResult fairness =
      run_fairness_phase(scale == Scale::kQuick ? 24 : 40);
  std::printf("\n# weighted fairness: heavy=%llu light=%llu ratio=%.3f "
              "(target 3.0 +/- 10%%)\n",
              static_cast<unsigned long long>(fairness.completed_heavy),
              static_cast<unsigned long long>(fairness.completed_light),
              fairness.ratio);
  const bool fair = fairness.ratio >= 2.7 && fairness.ratio <= 3.3;
  if (!fair) std::printf("# FAIRNESS OUT OF TOLERANCE\n");

  // ---- phase 4: overload, with and without deadlines + shedding.
  DatasetPlan overload_plan;
  overload_plan.num_taxa = 24;
  overload_plan.num_sites = 120;
  overload_plan.seed = 4242;
  const PlannedDataset overload_data = make_dna_dataset(overload_plan);
  // Price one job empirically; the shed budget is phrased in multiples of
  // this, so the phase self-scales to the host (and to sanitizer slowdown).
  double per_job_s;
  {
    Timer probe_timer;
    Session probe_session(Alignment(overload_data.alignment),
                          Tree(overload_data.tree), benchmark_gtr(),
                          SessionOptions{});
    probe_session.evaluate();
    per_job_s = std::max(probe_timer.seconds(), 1e-4);
  }
  const std::size_t offered =
      scale == Scale::kQuick ? 48 : (scale == Scale::kFull ? 128 : 64);
  const OverloadCell unprotected =
      run_overload_phase(overload_data, offered, per_job_s, false);
  const OverloadCell protected_cell =
      run_overload_phase(overload_data, offered, per_job_s, true);
  std::printf("\n# overload: %zu jobs on 1 worker (~%.4fs each, shed budget "
              "8x, deadline 16x)\n",
              offered, per_job_s);
  std::printf("%12s %9s %9s %6s %8s %10s %16s\n", "config", "offered",
              "accepted", "shed", "expired", "shed_rate", "p99_accepted_s");
  for (const OverloadCell* cell : {&unprotected, &protected_cell})
    std::printf("%12s %9zu %9zu %6zu %8zu %10.3f %16.6f\n",
                cell->protected_run ? "protected" : "unprotected",
                cell->offered, cell->accepted, cell->shed, cell->expired,
                cell->shed_rate, cell->p99_accepted_s);
  const bool overload_bounded =
      protected_cell.p99_accepted_s <= unprotected.p99_accepted_s &&
      protected_cell.accepted > 0;
  std::printf("# shedding bounds accepted p99 (protected <= unprotected): "
              "%s\n",
              overload_bounded ? "yes" : "NO");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"service_throughput\",\n");
    std::fprintf(out, "  \"scale\": \"%s\",\n  \"jobs\": %zu,\n",
                 scale_name(scale), jobs);
    std::fprintf(out, "  \"deterministic\": %s,\n  \"sweep\": [\n",
                 deterministic ? "true" : "false");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const SweepCell& cell = cells[i];
      std::fprintf(out,
                   "    {\"workers\": %zu, \"ram_budget_bytes\": %llu, "
                   "\"jobs_per_second\": %.4f, \"speedup_vs_serial\": %.4f, "
                   "\"miss_rate\": %.6f, \"peak_charged_bytes\": %llu, "
                   "\"degraded_jobs\": %zu}%s\n",
                   cell.workers,
                   static_cast<unsigned long long>(cell.budget),
                   cell.jobs_per_second,
                   base > 0.0 ? cell.jobs_per_second / base : 0.0,
                   cell.miss_rate,
                   static_cast<unsigned long long>(cell.peak_bytes),
                   cell.degraded, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"network\": [\n");
    for (std::size_t i = 0; i < network.size(); ++i) {
      const NetworkCell& cell = network[i];
      std::fprintf(out,
                   "    {\"cache_entries\": %zu, \"jobs\": %zu, "
                   "\"jobs_per_second\": %.4f, \"p50_latency_s\": %.6f, "
                   "\"p99_latency_s\": %.6f, \"cache_hit_rate\": %.4f}%s\n",
                   cell.cache_entries, cell.jobs, cell.jobs_per_second,
                   cell.p50_latency_s, cell.p99_latency_s, cell.hit_rate,
                   i + 1 < network.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"fairness\": {\"weights\": \"3:1\", "
                 "\"completed_heavy\": %llu, \"completed_light\": %llu, "
                 "\"ratio\": %.4f, \"within_tolerance\": %s},\n",
                 static_cast<unsigned long long>(fairness.completed_heavy),
                 static_cast<unsigned long long>(fairness.completed_light),
                 fairness.ratio, fair ? "true" : "false");
    std::fprintf(out, "  \"overload\": [\n");
    const OverloadCell* overload_cells[] = {&unprotected, &protected_cell};
    for (std::size_t i = 0; i < 2; ++i) {
      const OverloadCell& cell = *overload_cells[i];
      std::fprintf(out,
                   "    {\"protected\": %s, \"offered\": %zu, "
                   "\"accepted\": %zu, \"shed\": %zu, \"expired\": %zu, "
                   "\"shed_rate\": %.4f, \"p99_accepted_s\": %.6f}%s\n",
                   cell.protected_run ? "true" : "false", cell.offered,
                   cell.accepted, cell.shed, cell.expired, cell.shed_rate,
                   cell.p99_accepted_s, i == 0 ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"overload_p99_bounded\": %s\n",
                 overload_bounded ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
  }
  return deterministic && fair && overload_bounded ? 0 : 1;
}
