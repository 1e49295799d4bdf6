// Shared infrastructure for the experiment harnesses (one binary per figure
// or table of the paper; see DESIGN.md's experiment index).
//
// Scale control: PLFOC_BENCH_SCALE = quick | paper | full.
//   quick — small datasets for smoke-testing the harnesses (~seconds each);
//   paper — the paper's dataset *dimensions* with subsampled prune candidates
//           (default; minutes per binary on one core);
//   full  — paper dimensions, denser scans (long).
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "search/search.hpp"
#include "search/stepwise.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "util/timer.hpp"

namespace plfoc::bench {

enum class Scale { kQuick, kPaper, kFull };

inline Scale scale_from_env() {
  const char* env = std::getenv("PLFOC_BENCH_SCALE");
  if (env == nullptr) return Scale::kPaper;
  const std::string value = env;
  if (value == "quick") return Scale::kQuick;
  if (value == "full") return Scale::kFull;
  if (value == "paper") return Scale::kPaper;
  std::fprintf(stderr, "unknown PLFOC_BENCH_SCALE '%s', using 'paper'\n",
               env);
  return Scale::kPaper;
}

inline const char* scale_name(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return "quick";
    case Scale::kPaper: return "paper";
    case Scale::kFull: return "full";
  }
  return "?";
}

/// One miss-rate experiment dataset: simulated alignment of the paper's
/// dimensions plus the fixed starting tree shared by every configuration
/// ("Given a fixed starting tree, RAxML is deterministic", Sec. 4.1).
struct SearchDataset {
  Alignment alignment;
  Tree start_tree;
  std::size_t taxa;
  std::size_t sites;
};

inline SearchDataset make_search_dataset(std::size_t taxa, std::size_t sites,
                                         std::uint64_t seed) {
  DatasetPlan plan;
  plan.num_taxa = taxa;
  plan.num_sites = sites;
  plan.seed = seed;
  plan.alpha = 0.6;
  PlannedDataset data = make_dna_dataset(plan);
  Rng rng(seed + 1);
  StepwiseOptions stepwise;
  stepwise.max_candidates = 64;
  Timer timer;
  Tree start = stepwise_addition_tree(data.alignment, rng, stepwise);
  std::fprintf(stderr, "# starting tree built in %.1fs\n", timer.seconds());
  return {std::move(data.alignment), std::move(start), taxa, sites};
}

/// The search workload whose vector accesses the paper measures: one branch
/// smoothing pass, Γ-shape optimisation (full traversals), one lazy-SPR round.
struct SearchWorkloadOptions {
  std::size_t prune_stride = 16;
  unsigned radius_max = 5;
  bool optimize_model = true;
};

inline SearchWorkloadOptions workload_for(Scale scale) {
  SearchWorkloadOptions options;
  switch (scale) {
    case Scale::kQuick: options.prune_stride = 4; break;
    case Scale::kPaper: options.prune_stride = 16; break;
    case Scale::kFull: options.prune_stride = 4; break;
  }
  return options;
}

struct WorkloadResult {
  double final_log_likelihood = 0.0;
  OocStats stats;
  double wall_seconds = 0.0;
};

/// Run the search workload on a fresh Session over the dataset. The stats are
/// reset after construction so cold population is included exactly as in the
/// paper (every swap-in counts).
inline WorkloadResult run_search_workload(const SearchDataset& dataset,
                                          SessionOptions session_options,
                                          const SearchWorkloadOptions& workload) {
  Session session(dataset.alignment, dataset.start_tree, benchmark_gtr(),
                  std::move(session_options));
  Timer timer;
  SearchOptions search;
  search.initial_smoothing_passes = 1;
  search.optimize_model = workload.optimize_model;
  search.model.tolerance = 1e-2;
  search.spr.rounds = 1;
  search.spr.radius_max = workload.radius_max;
  search.spr.prune_stride = workload.prune_stride;
  search.final_smoothing_passes = 0;
  const SearchResult result = run_search(session.engine(), search);
  WorkloadResult out;
  out.final_log_likelihood = result.final_log_likelihood;
  out.stats = session.stats();
  out.wall_seconds = timer.seconds();
  return out;
}

inline void print_header(const char* title, const SearchDataset& dataset,
                         Scale scale) {
  std::printf("# %s\n", title);
  std::printf("# dataset: %zu taxa x %zu sites (%zu patterns after "
              "compression computed per run), scale=%s\n",
              dataset.taxa, dataset.sites, dataset.alignment.num_sites(),
              scale_name(scale));
}

/// Host facts for a BENCH_*.json file (CPU model, logical cores, physical
/// RAM, compiler), so a committed number says what it was measured on.
inline std::string host_facts_json() {
  std::string cpu = "unknown";
  if (std::FILE* info = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, info) != nullptr) {
      const char* colon = std::strchr(line, ':');
      if (std::strncmp(line, "model name", 10) != 0 || colon == nullptr)
        continue;
      cpu.clear();
      for (const char* c = colon + 1; *c != '\0' && *c != '\n'; ++c)
        if (*c != '"' && *c != '\\' && !(cpu.empty() && *c == ' '))
          cpu.push_back(*c);
      break;
    }
    std::fclose(info);
  }
  const double ram_gib = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                         static_cast<double>(sysconf(_SC_PAGESIZE)) /
                         (1024.0 * 1024.0 * 1024.0);
  char buffer[768];
  std::snprintf(buffer, sizeof buffer,
                "{\"cpu\":\"%s\",\"logical_cores\":%u,\"ram_gib\":%.1f,"
                "\"compiler\":\"%s\"}",
                cpu.c_str(), std::thread::hardware_concurrency(), ram_gib,
#ifdef __clang__
                "clang " __clang_version__);
#else
                "gcc " __VERSION__);
#endif
  return buffer;
}

}  // namespace plfoc::bench
