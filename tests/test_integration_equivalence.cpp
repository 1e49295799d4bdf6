// The paper's correctness criterion (Sec. 4.1): "regardless of f and the
// selected replacement strategy, the resulting tree (and log likelihood
// score) must always be identical to the tree returned by the standard RAxML
// implementation." Here: the same deterministic search pipeline must produce
// bit-identical log likelihoods on the in-RAM store, the out-of-core store
// under every strategy and fraction, and the paged baseline.
#include <gtest/gtest.h>

#include <ostream>

#include "search/search.hpp"
#include "search/stepwise.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/newick.hpp"

namespace plfoc {
namespace {

struct PipelineResult {
  double simple_ll;
  double search_ll;
  std::string final_tree;
};

PipelineResult run_pipeline(SessionOptions options) {
  DatasetPlan plan;
  plan.num_taxa = 14;
  plan.num_sites = 90;
  plan.seed = 424242;
  PlannedDataset data = make_dna_dataset(plan);

  // Fixed deterministic starting tree (same for every backend).
  Rng rng(7);
  StepwiseOptions stepwise;
  Tree start = stepwise_addition_tree(data.alignment, rng, stepwise);

  options.categories = 4;
  options.alpha = 0.8;
  Session session(std::move(data.alignment), std::move(start),
                  benchmark_gtr(), options);

  PipelineResult result;
  result.simple_ll = session.engine().log_likelihood();

  SearchOptions search;
  search.initial_smoothing_passes = 1;
  search.optimize_model = true;
  search.model.optimize_rates = false;
  search.spr.rounds = 1;
  search.spr.radius_max = 4;
  search.final_smoothing_passes = 1;
  const SearchResult sr = run_search(session.engine(), search);
  result.search_ll = sr.final_log_likelihood;
  result.final_tree = to_newick(session.tree());
  return result;
}

class BackendEquivalence : public ::testing::Test {
 protected:
  static const PipelineResult& baseline() {
    static const PipelineResult result = [] {
      SessionOptions options;
      options.backend = Backend::kInRam;
      return run_pipeline(options);
    }();
    return result;
  }
};

TEST_F(BackendEquivalence, BaselineIsFiniteAndImproving) {
  EXPECT_TRUE(std::isfinite(baseline().simple_ll));
  EXPECT_GT(baseline().search_ll, baseline().simple_ll);
}

struct OocCase {
  ReplacementPolicy policy;
  double fraction;
};

// gtest prints the parameter into every test's listed name; without this
// it prints the struct's raw bytes, uninitialised padding included.
void PrintTo(const OocCase& param, std::ostream* out) {
  *out << policy_name(param.policy) << ", RAM fraction " << param.fraction;
}

class OocEquivalence : public BackendEquivalence,
                       public ::testing::WithParamInterface<OocCase> {};

TEST_P(OocEquivalence, MatchesInRamBitExactly) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.policy = GetParam().policy;
  options.ram_fraction = GetParam().fraction;
  options.seed = 99;
  const PipelineResult result = run_pipeline(options);
  // Bit-identical: same arithmetic in the same order, only storage differs.
  EXPECT_EQ(result.simple_ll, baseline().simple_ll);
  EXPECT_EQ(result.search_ll, baseline().search_ll);
  EXPECT_EQ(result.final_tree, baseline().final_tree);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndFractions, OocEquivalence,
    ::testing::Values(OocCase{ReplacementPolicy::kRandom, 0.25},
                      OocCase{ReplacementPolicy::kRandom, 0.5},
                      OocCase{ReplacementPolicy::kLru, 0.25},
                      OocCase{ReplacementPolicy::kLru, 0.75},
                      OocCase{ReplacementPolicy::kLfu, 0.25},
                      OocCase{ReplacementPolicy::kLfu, 0.5},
                      OocCase{ReplacementPolicy::kTopological, 0.25},
                      OocCase{ReplacementPolicy::kTopological, 0.5},
                      // Minimum-RAM extreme: 5 slots via tiny fraction.
                      OocCase{ReplacementPolicy::kRandom, 0.001},
                      OocCase{ReplacementPolicy::kLru, 0.001}),
    [](const ::testing::TestParamInfo<OocCase>& param_info) {
      return std::string(policy_name(param_info.param.policy)) + "_f" +
             std::to_string(static_cast<int>(param_info.param.fraction * 1000));
    });

TEST_F(BackendEquivalence, ReadSkippingDoesNotChangeResults) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.25;
  options.read_skipping = false;
  const PipelineResult result = run_pipeline(options);
  EXPECT_EQ(result.search_ll, baseline().search_ll);
  EXPECT_EQ(result.final_tree, baseline().final_tree);
}

TEST_F(BackendEquivalence, DirtyTrackingDoesNotChangeResults) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.25;
  options.write_back_clean = false;
  const PipelineResult result = run_pipeline(options);
  EXPECT_EQ(result.search_ll, baseline().search_ll);
  EXPECT_EQ(result.final_tree, baseline().final_tree);
}

TEST_F(BackendEquivalence, MultiFileDoesNotChangeResults) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.25;
  options.num_files = 4;
  const PipelineResult result = run_pipeline(options);
  EXPECT_EQ(result.search_ll, baseline().search_ll);
}

TEST_F(BackendEquivalence, PagedBackendMatches) {
  SessionOptions options;
  options.backend = Backend::kPaged;
  options.ram_budget_bytes = 512 * 1024;
  const PipelineResult result = run_pipeline(options);
  EXPECT_EQ(result.simple_ll, baseline().simple_ll);
  EXPECT_EQ(result.search_ll, baseline().search_ll);
  EXPECT_EQ(result.final_tree, baseline().final_tree);
}

}  // namespace
}  // namespace plfoc
