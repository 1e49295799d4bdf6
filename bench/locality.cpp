// Section 4.2 reproduction: where does the PLF's access locality come from?
//
// The paper attributes the low miss rates to (a) branch-length optimisation
// — a Newton-Raphson loop that touches only the two vectors at the ends of
// one branch, accounting for 20-30% of execution time — and (b) lazy SPR
// re-optimising only three branches per move. This harness measures, per
// workload phase, the miss rate at a harsh memory limit (f = 0.05) and the
// share of vector accesses each phase generates.
#include "bench_common.hpp"

using namespace plfoc;
using namespace plfoc::bench;

namespace {

struct PhaseRow {
  const char* phase;
  OocStats stats;
  double seconds;
};

void print_row(const PhaseRow& row, std::uint64_t total_accesses) {
  std::printf("%-24s %12llu %10.1f %10llu %14.3f %12.1f\n", row.phase,
              static_cast<unsigned long long>(row.stats.accesses),
              100.0 * static_cast<double>(row.stats.accesses) /
                  static_cast<double>(total_accesses),
              static_cast<unsigned long long>(row.stats.misses),
              100.0 * row.stats.miss_rate(), row.seconds);
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  const std::size_t taxa = scale == Scale::kQuick ? 128 : 512;
  const std::size_t sites = scale == Scale::kQuick ? 200 : 600;
  const SearchDataset dataset = make_search_dataset(taxa, sites, 452);

  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.recompute_cherries = false;  // the paper's access stream
  options.policy = ReplacementPolicy::kLru;
  options.ram_fraction = 0.05;
  options.seed = 11;
  Session session(dataset.alignment, dataset.start_tree, benchmark_gtr(),
                  options);
  LikelihoodEngine& engine = session.engine();

  print_header("Section 4.2: access locality by workload phase (f = 0.05)",
               dataset, scale);

  std::vector<PhaseRow> rows;
  const auto run_phase = [&](const char* name, auto&& body) {
    session.reset_stats();
    Timer timer;
    body();
    rows.push_back({name, session.stats(), timer.seconds()});
  };

  run_phase("full traversal (worst)", [&] {
    engine.orientation().invalidate_all();
    engine.full_traversal_log_likelihood();
  });
  run_phase("branch smoothing pass", [&] { engine.optimize_all_branches(1); });
  run_phase("alpha optimisation", [&] { optimize_alpha(engine, 0.05, 20.0, 1e-2); });
  run_phase("lazy SPR round", [&] {
    SprOptions spr;
    spr.rounds = 1;
    spr.prune_stride = scale == Scale::kQuick ? 4 : 8;
    spr_search(engine, spr);
  });

  std::uint64_t total = 0;
  for (const PhaseRow& row : rows) total += row.stats.accesses;

  std::printf("%-24s %12s %10s %10s %14s %12s\n", "phase", "accesses",
              "share_%", "misses", "miss_rate_%", "seconds");
  for (const PhaseRow& row : rows) print_row(row, total);

  // The paper's qualitative claims, checked mechanically:
  const double full_miss = rows[0].stats.miss_rate();
  const double smooth_miss = rows[1].stats.miss_rate();
  const double spr_miss = rows[3].stats.miss_rate();
  std::printf("\n# branch smoothing miss rate %.3f%% vs full traversal "
              "%.3f%% -> locality factor %.1fx\n",
              100.0 * smooth_miss, 100.0 * full_miss,
              smooth_miss > 0 ? full_miss / smooth_miss : 0.0);
  std::printf("# lazy SPR miss rate %.3f%%\n", 100.0 * spr_miss);
  return (smooth_miss < full_miss && spr_miss < full_miss) ? 0 : 1;
}
