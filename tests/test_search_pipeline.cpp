// End-to-end checks of the run_search orchestration (smoothing -> model
// optimisation -> lazy SPR -> final smoothing).
#include <gtest/gtest.h>

#include "search/search.hpp"
#include "search/stepwise.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/compare.hpp"
#include "tree/newick.hpp"

namespace plfoc {
namespace {

struct Pipeline {
  PlannedDataset data;
  Tree start;

  explicit Pipeline(std::uint64_t seed, std::size_t taxa = 16,
                    std::size_t sites = 120)
      : data(make_data(seed, taxa, sites)), start(make_start(seed)) {}

  static PlannedDataset make_data(std::uint64_t seed, std::size_t taxa,
                                  std::size_t sites) {
    DatasetPlan plan;
    plan.num_taxa = taxa;
    plan.num_sites = sites;
    plan.seed = seed;
    return make_dna_dataset(plan);
  }
  Tree make_start(std::uint64_t seed) {
    Rng rng(seed + 3);
    return stepwise_addition_tree(data.alignment, rng);
  }
};

TEST(SearchPipeline, StagesAreMonotone) {
  Pipeline p(21);
  Session session(p.data.alignment, p.start, benchmark_gtr(),
                  SessionOptions{});
  SearchOptions options;
  options.spr.rounds = 2;
  const SearchResult result = run_search(session.engine(), options);
  EXPECT_GE(result.after_smoothing, result.starting_log_likelihood - 1e-9);
  EXPECT_GE(result.after_model_opt, result.after_smoothing - 1e-6);
  EXPECT_GE(result.spr.final_log_likelihood, result.after_model_opt - 1e-6);
  EXPECT_GE(result.final_log_likelihood,
            result.spr.final_log_likelihood - 1e-6);
}

TEST(SearchPipeline, ModelOptimizationCanBeDisabled) {
  Pipeline p(29);
  Session session(p.data.alignment, p.start, benchmark_gtr(),
                  SessionOptions{});
  const double alpha_before = session.engine().config().alpha;
  SearchOptions options;
  options.optimize_model = false;
  options.spr.rounds = 1;
  run_search(session.engine(), options);
  EXPECT_EQ(session.engine().config().alpha, alpha_before);
}

TEST(SearchPipeline, FullPipelineBitIdenticalOutOfCore) {
  Pipeline p(31, 14, 90);
  const auto run_one = [&](SessionOptions session_options) {
    Session session(p.data.alignment, p.start, benchmark_gtr(),
                    std::move(session_options));
    SearchOptions options;
    options.spr.rounds = 1;
    const SearchResult result = run_search(session.engine(), options);
    return std::make_pair(result.final_log_likelihood,
                          to_newick(session.engine().tree()));
  };
  const auto reference = run_one(SessionOptions{});
  SessionOptions ooc;
  ooc.backend = Backend::kOutOfCore;
  ooc.ram_fraction = 0.2;
  ooc.policy = ReplacementPolicy::kTopological;
  const auto result = run_one(ooc);
  EXPECT_EQ(result.first, reference.first);
  EXPECT_EQ(result.second, reference.second);
}

TEST(SearchPipeline, ImprovesTowardTruthTopology) {
  Pipeline p(37, 20, 500);
  Session session(p.data.alignment, p.start, benchmark_gtr(),
                  SessionOptions{});
  const unsigned rf_start = robinson_foulds(p.start, p.data.tree);
  SearchOptions options;
  options.spr.rounds = 3;
  options.spr.radius_max = 8;
  run_search(session.engine(), options);
  const unsigned rf_end = robinson_foulds(session.engine().tree(), p.data.tree);
  EXPECT_LE(rf_end, rf_start);
}

}  // namespace
}  // namespace plfoc
