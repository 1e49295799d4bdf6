// search-dna and search-protein: the paper's tree-search workload, end to
// end — parse a FASTA file, build the stepwise-addition start tree, build
// the Session, run the search — repeated on fresh seeded inputs for the
// whole measurement window.
//
// search-dna is the Fig. 2 working point scaled so one search takes under a
// second (384 taxa, 200 patterns): GTR+Γ4 DNA on the out-of-core backend at
// f = 0.25, LRU, one thread, sync I/O. The store is mostly on its hit path,
// so kernel and search-algorithm changes show here. search-protein is
// Poisson+Γ4 with 256 patterns in RAM on one thread: compute-bound 20-state
// kernels, never touching the out-of-core layer, so a storage change must
// leave it flat. Every input has exactly the recipe's pattern count, so
// units differ in their data, not in their vector width.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "host_speed.hpp"
#include "msa/fasta.hpp"
#include "search/search.hpp"
#include "search/stepwise.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "sim/simulate.hpp"
#include "tree/newick.hpp"
#include "trace.hpp"
#include "util/checks.hpp"

namespace plfoc::e2e {
namespace {

struct Recipe {
  const char* workload;
  DataType type;
  std::size_t taxa;
  std::size_t patterns;  ///< distinct alignment columns of every input
  bool out_of_core;
  std::size_t prune_stride;
};

SubstitutionModel recipe_model(const Recipe& recipe) {
  return recipe.type == DataType::kDna ? benchmark_gtr() : poisson_protein();
}

SessionOptions session_options(const Recipe& recipe) {
  SessionOptions options;
  options.categories = 4;
  if (recipe.out_of_core) {
    options.backend = Backend::kOutOfCore;
    options.ram_fraction = 0.25;
    options.policy = ReplacementPolicy::kLru;
    options.io_engine = AioEngineKind::kSync;
  }
  return options;
}

SearchOptions search_options(const Recipe& recipe) {
  SearchOptions search;
  search.initial_smoothing_passes = 1;
  search.optimize_model = true;
  search.model.tolerance = 1e-2;
  search.spr.rounds = 1;
  search.spr.radius_max = 5;
  search.spr.prune_stride = recipe.prune_stride;
  search.final_smoothing_passes = 0;
  return search;
}

/// Simulate one unit's alignment and write it as FASTA: the shortest
/// prefix of a long simulated alignment that holds exactly
/// `recipe.patterns` distinct columns, so every unit's vectors have the
/// same width and only the data differ. Input making, not timed.
void make_input(const Recipe& recipe, std::uint64_t seed,
                const std::string& path, Digest& digest) {
  Rng rng(seed);
  const Tree truth = random_tree(recipe.taxa, rng);
  SimulationOptions sim;
  sim.categories = 4;
  sim.alpha = 0.6;
  const Alignment full = simulate_alignment(
      truth, recipe_model(recipe), 8 * recipe.patterns, rng, sim);
  std::vector<std::string> rows;
  for (std::size_t t = 0; t < full.num_taxa(); ++t)
    rows.push_back(full.text(t));
  std::unordered_set<std::string> columns;
  std::size_t sites = 0;
  for (; sites < full.num_sites() && columns.size() < recipe.patterns;
       ++sites) {
    std::string column;
    for (const std::string& row : rows) column += row[sites];
    columns.insert(std::move(column));
  }
  PLFOC_REQUIRE(columns.size() == recipe.patterns,
                "simulated alignment has too few distinct columns");
  Alignment alignment(full.data_type(), sites);
  for (std::size_t t = 0; t < full.num_taxa(); ++t) {
    alignment.add_sequence(full.name(t), rows[t].substr(0, sites));
    digest.add(rows[t].substr(0, sites));
  }
  write_fasta_file(path, alignment);
}

struct SetupTimes {
  double parse = 0.0;
  double start_tree = 0.0;
  double session = 0.0;
  double total() const { return parse + start_tree + session; }
};

/// Parse, start tree, Session: everything until the search can start.
std::unique_ptr<Session> set_up(const Recipe& recipe, const std::string& path,
                                std::uint64_t seed, SetupTimes& times) {
  double t0 = now_seconds();
  Alignment alignment = read_fasta_file(path, recipe.type);
  double t1 = now_seconds();
  Rng rng(seed + 1);
  Tree start = stepwise_addition_tree(alignment, rng);
  double t2 = now_seconds();
  auto session = std::make_unique<Session>(std::move(alignment),
                                           std::move(start),
                                           recipe_model(recipe),
                                           session_options(recipe));
  double t3 = now_seconds();
  times = {t1 - t0, t2 - t1, t3 - t2};
  return session;
}

/// What a finished search leaves for the correctness gate.
struct Outcome {
  Alignment alignment;  ///< pattern-compressed, as the engine saw it
  Tree tree;
  double alpha = 0.0;
  double log_likelihood = 0.0;  ///< see incremental_log_likelihood
};

/// The engine's log likelihood at the default root branch, recomputing only
/// the vectors the search left invalid. A vector the search changed without
/// invalidating it is reused here, so it shows as a difference from a fresh
/// evaluation; log_likelihood() would recompute every vector and hide it.
double incremental_log_likelihood(LikelihoodEngine& engine) {
  const auto [a, b] = engine.tree().default_root_branch();
  return engine.log_likelihood(a, b);
}

Outcome outcome_of(Session& session) {
  return {session.alignment(), session.tree(), session.engine().config().alpha,
          incremental_log_likelihood(session.engine())};
}

/// The gate, run after each unit's timed part: the final tree evaluated in
/// a fresh in-RAM Session must give the search engine's incremental log
/// likelihood bit for bit.
bool reference_matches(const Recipe& recipe, const Outcome& outcome) {
  SessionOptions options;
  options.categories = 4;
  options.alpha = outcome.alpha;
  Session reference(outcome.alignment, outcome.tree, recipe_model(recipe),
                    options);
  return reference.evaluate().log_likelihood == outcome.log_likelihood;
}

struct UnitTimes {
  SetupTimes setup;
  double search = 0.0;
};

/// The untraced unit: run_search exactly as a caller would.
Outcome run_untraced(const Recipe& recipe, const std::string& path,
                     std::uint64_t seed, UnitTimes& times) {
  std::unique_ptr<Session> session = set_up(recipe, path, seed, times.setup);
  const double start = now_seconds();
  run_search(session->engine(), search_options(recipe));
  times.search = now_seconds() - start;
  return outcome_of(*session);
}

struct TracedSearch {
  double start_eval = 0.0;
  double smoothing = 0.0;
  double model_opt = 0.0;
  double spr = 0.0;
  double phases() const { return start_eval + smoothing + model_opt + spr; }
};

/// The traced unit: the same public calls run_search makes, in the same
/// order, each inside a span, on an engine built over a TimedStore that
/// wraps the store the Session built.
Outcome run_traced(const Recipe& recipe, const std::string& path,
                   std::uint64_t seed, Tracer& tracer, UnitTimes& times,
                   TracedSearch& phases, SprResult& spr,
                   StoreLayerTotals* totals) {
  const int unit = tracer.open("unit");
  const int setup = tracer.open("setup", unit);
  std::unique_ptr<Session> session = set_up(recipe, path, seed, times.setup);
  tracer.close(setup);
  const double setup_start = tracer.spans()[setup].start;
  tracer.add("msa.parse", setup_start, setup_start + times.setup.parse, setup);
  tracer.add("search.start_tree", setup_start + times.setup.parse,
             setup_start + times.setup.parse + times.setup.start_tree, setup);
  tracer.add("session.build", setup_start + times.setup.parse +
                                  times.setup.start_tree,
             setup_start + times.setup.total(), setup);

  TimedStore timed(session->store());
  ModelConfig config;
  config.substitution = recipe_model(recipe);
  config.categories = session->options().categories;
  config.alpha = session->options().alpha;
  LikelihoodEngine engine(session->alignment(), session->tree(),
                          std::move(config), timed);

  const SearchOptions options = search_options(recipe);
  const int search = tracer.open("search", unit);
  int span = tracer.open("search.start_eval", search);
  engine.log_likelihood();
  phases.start_eval = tracer.close(span);
  span = tracer.open("search.smoothing", search);
  engine.optimize_all_branches(options.initial_smoothing_passes);
  phases.smoothing = tracer.close(span);
  span = tracer.open("search.model_opt", search);
  optimize_model(engine, options.model);
  phases.model_opt = tracer.close(span);
  span = tracer.open("search.spr", search);
  spr = spr_search(engine, options.spr);
  phases.spr = tracer.close(span);
  times.search = tracer.close(search);
  tracer.close(unit);

  if (totals != nullptr) totals->add(timed, phases.phases());
  return {session->alignment(), session->tree(), engine.config().alpha,
          incremental_log_likelihood(engine)};
}

void run_search_workload(const Recipe& recipe, const RunOptions& options,
                         Report& report) {
  const std::string path = options.workdir + "/" + recipe.workload + ".fasta";
  // Units whose per-layer numbers are reported in a traced run; counts over
  // a fixed unit set repeat exactly for a given seed.
  constexpr std::size_t kTraceUnits = 3;
  UnitWindow window(options.seconds, options.trace ? kTraceUnits : 3);
  Tracer tracer;
  StoreLayerTotals totals;
  TracedSearch phase_totals;
  std::uint64_t insertions = 0;
  std::uint64_t moves = 0;
  std::vector<SetupTimes> setups;
  std::vector<double> overhead;
  std::vector<double> rss;
  UnitTimings timings(Reference::kCompute, /*busy_includes_setup=*/true,
                      options.workdir);
  Digest input_digest;
  Digest result_digest;

  for (std::size_t i = 0; window.more(); ++i) {
    const std::uint64_t seed = unit_seed(options.seed, i);
    Digest digest;
    make_input(recipe, seed, path, digest);
    if (i == 0) input_digest = digest;
    report.attempt();
    // The host's speed on this thread, right before and after the unit.
    const double before = timings.time_reference();
    const double unit_start = now_seconds();
    reset_peak_rss();
    UnitTimes times;
    std::optional<Outcome> outcome;
    if (!options.trace) {
      outcome = run_untraced(recipe, path, seed, times);
    } else {
      // Untraced and traced twins on the same input, alternating which
      // runs first; the traced one must reproduce the untraced bits.
      UnitTimes plain_times;
      UnitTimes traced_times;
      TracedSearch phases;
      SprResult spr;
      const bool counted = i < kTraceUnits;
      std::optional<Outcome> plain;
      std::optional<Outcome> traced;
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == (i % 2 == 0))
          plain = run_untraced(recipe, path, seed, plain_times);
        else
          traced = run_traced(recipe, path, seed, tracer, traced_times, phases,
                              spr, counted ? &totals : nullptr);
      }
      if (traced->log_likelihood != plain->log_likelihood)
        report.fail("traced search changed the final log likelihood");
      const double span_sum = phases.phases();
      if (std::abs(span_sum - traced_times.search) >
          0.02 * traced_times.search)
        report.fail("search phase spans do not sum to the search time");
      overhead.push_back(traced_times.search / plain_times.search - 1.0);
      if (counted) {
        phase_totals.start_eval += phases.start_eval;
        phase_totals.smoothing += phases.smoothing;
        phase_totals.model_opt += phases.model_opt;
        phase_totals.spr += phases.spr;
        insertions += spr.insertions_tried;
        moves += spr.moves_accepted;
      }
      times = plain_times;
      outcome = std::move(plain);
    }
    timings.add(times.setup.total(), times.search, before,
                timings.time_reference());
    setups.push_back(times.setup);
    // Memory of this unit, read before its in-RAM reference runs.
    rss.push_back(peak_rss_mib());
    if (!reference_matches(recipe, *outcome)) {
      report.failed_unit();
      report.fail("unit " + std::to_string(i) +
                  ": final tree does not re-evaluate bit-identically");
    }
    if (i == 0) {
      result_digest.add_double(outcome->log_likelihood);
      result_digest.add(to_newick(outcome->tree, 17));
    }
    window.record(now_seconds() - unit_start);
  }

  report.info("units", static_cast<double>(setups.size()));
  report.info("taxa", static_cast<double>(recipe.taxa));
  report.info("patterns", static_cast<double>(recipe.patterns));
  report.info("input_digest", input_digest.hex());
  report.info("result_digest", result_digest.hex());
  const auto setup_median = [&](double SetupTimes::*part) {
    std::vector<double> values;
    for (const SetupTimes& setup : setups) values.push_back(setup.*part);
    return median(values);
  };
  report.timings(timings.scaled(), timings.raw(), timings.median_scale());
  report.metric("peak_rss_mib", *std::max_element(rss.begin(), rss.end()));
  if (!options.trace) return;

  report.info("traced_units", static_cast<double>(kTraceUnits));
  report.metric("msa.parse_s", setup_median(&SetupTimes::parse));
  report.metric("search.start_tree_s", setup_median(&SetupTimes::start_tree));
  report.metric("session.build_s", setup_median(&SetupTimes::session));
  report.metric("search.start_eval_s", phase_totals.start_eval);
  report.metric("search.smoothing_s", phase_totals.smoothing);
  report.metric("search.model_opt_s", phase_totals.model_opt);
  report.metric("search.spr_s", phase_totals.spr);
  report.metric("search.insertions_tried", static_cast<double>(insertions));
  report.metric("search.moves_accepted", static_cast<double>(moves));
  totals.emit(report);
  report.metric("trace.overhead", median(overhead));
  tracer.write_json(options.workdir + "/trace-" + recipe.workload + ".json");
}

}  // namespace

void run_search_dna(const RunOptions& options, Report& report) {
  const Recipe recipe{"search-dna", DataType::kDna,
                      options.smoke ? 32u : 384u, options.smoke ? 100u : 200u,
                      /*out_of_core=*/true, /*prune_stride=*/16};
  run_search_workload(recipe, options, report);
}

void run_search_protein(const RunOptions& options, Report& report) {
  const Recipe recipe{"search-protein", DataType::kProtein,
                      options.smoke ? 6u : 8u, options.smoke ? 128u : 256u,
                      /*out_of_core=*/false, /*prune_stride=*/4};
  run_search_workload(recipe, options, report);
}

}  // namespace plfoc::e2e
