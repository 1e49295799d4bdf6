#include "search/mcmc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ooc/inram_store.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "sim/simulate.hpp"
#include "tree/random_tree.hpp"

namespace plfoc {
namespace {

struct Fixture {
  Tree tree;
  Alignment alignment;
  InRamStore store;
  LikelihoodEngine engine;

  explicit Fixture(std::uint64_t seed, std::size_t taxa = 10,
                   std::size_t sites = 80)
      : tree(make_tree(seed, taxa)),
        alignment(make_alignment(seed, sites, tree)),
        store(tree.num_inner(),
              LikelihoodEngine::vector_width(alignment, 2)),
        engine(alignment, tree, ModelConfig{jc69(), 2, 1.0}, store) {}

  static Tree make_tree(std::uint64_t seed, std::size_t taxa) {
    Rng rng(seed);
    return random_tree(taxa, rng);
  }
  static Alignment make_alignment(std::uint64_t seed, std::size_t sites,
                                  const Tree& tree) {
    Rng rng(seed + 31);
    return simulate_alignment(tree, jc69(), sites, rng,
                              SimulationOptions{2, 1.0});
  }
};

TEST(Mcmc, LogBranchPriorMatchesManualSum) {
  Fixture fx(3);
  const double mean = 0.1;
  double expected = 0.0;
  for (const auto& [a, b] : fx.tree.edges())
    expected += std::log(1.0 / mean) - fx.tree.branch_length(a, b) / mean;
  EXPECT_NEAR(log_branch_prior(fx.tree, mean), expected, 1e-12);
}

TEST(Mcmc, ChainRunsAndCountsProposals) {
  Fixture fx(5);
  Rng rng(1);
  McmcOptions options;
  options.iterations = 500;
  const McmcResult result = run_mcmc(fx.engine, rng, options);
  EXPECT_EQ(result.branch_proposals + result.nni_proposals, 500u);
  EXPECT_GT(result.branch_proposals, 0u);
  EXPECT_GT(result.nni_proposals, 0u);
  EXPECT_GE(result.branch_accepts, 1u);
  EXPECT_LE(result.branch_accepts, result.branch_proposals);
  EXPECT_LE(result.nni_accepts, result.nni_proposals);
}

TEST(Mcmc, DeterministicForSeed) {
  Fixture a(7);
  Fixture b(7);
  Rng ra(9);
  Rng rb(9);
  McmcOptions options;
  options.iterations = 300;
  const McmcResult result_a = run_mcmc(a.engine, ra, options);
  const McmcResult result_b = run_mcmc(b.engine, rb, options);
  EXPECT_EQ(result_a.final_log_posterior, result_b.final_log_posterior);
  EXPECT_EQ(result_a.branch_accepts, result_b.branch_accepts);
  EXPECT_EQ(result_a.nni_accepts, result_b.nni_accepts);
  EXPECT_EQ(result_a.trace, result_b.trace);
}

TEST(Mcmc, EngineStateStaysConsistent) {
  // After thousands of accept/reject cycles the incremental likelihood state
  // must agree with a clean full recomputation.
  Fixture fx(11);
  Rng rng(13);
  McmcOptions options;
  options.iterations = 1000;
  run_mcmc(fx.engine, rng, options);
  const double incremental = fx.engine.log_likelihood();
  const double full = fx.engine.full_traversal_log_likelihood();
  EXPECT_NEAR(incremental, full, 1e-8);
}

TEST(Mcmc, PosteriorImprovesFromBadStart) {
  // Start from a tree with absurd branch lengths; burn-in should find its
  // way to a vastly better posterior.
  Fixture fx(17);
  for (const auto& [a, b] : fx.tree.edges())
    fx.tree.set_branch_length(a, b, 5.0);
  fx.engine.orientation().invalidate_all();
  Rng rng(19);
  McmcOptions options;
  options.iterations = 3000;
  options.nni_probability = 0.1;
  const McmcResult result = run_mcmc(fx.engine, rng, options);
  EXPECT_GT(result.best_log_posterior,
            result.initial_log_posterior + 50.0);
}

TEST(Mcmc, TraceSamplingHonoursInterval) {
  Fixture fx(23);
  Rng rng(29);
  McmcOptions options;
  options.iterations = 400;
  options.sample_every = 40;
  const McmcResult result = run_mcmc(fx.engine, rng, options);
  EXPECT_EQ(result.trace.size(), 10u);
  McmcOptions no_sampling;
  no_sampling.iterations = 100;
  no_sampling.sample_every = 0;
  Rng rng2(29);
  EXPECT_TRUE(run_mcmc(fx.engine, rng2, no_sampling).trace.empty());
}

TEST(Mcmc, BitIdenticalAcrossStorageBackends) {
  // The Bayesian analogue of the paper's correctness criterion.
  DatasetPlan plan;
  plan.num_taxa = 12;
  plan.num_sites = 60;
  plan.seed = 555;
  const PlannedDataset data = make_dna_dataset(plan);

  const auto run_chain = [&](SessionOptions options) {
    Session session(data.alignment, data.tree, benchmark_gtr(),
                    std::move(options));
    Rng rng(99);
    McmcOptions mcmc;
    mcmc.iterations = 400;
    return run_mcmc(session.engine(), rng, mcmc);
  };

  SessionOptions in_ram;
  const McmcResult reference = run_chain(in_ram);

  for (ReplacementPolicy policy :
       {ReplacementPolicy::kRandom, ReplacementPolicy::kLru,
        ReplacementPolicy::kTopological}) {
    SessionOptions ooc;
    ooc.backend = Backend::kOutOfCore;
    ooc.ram_fraction = 0.3;
    ooc.policy = policy;
    const McmcResult result = run_chain(ooc);
    EXPECT_EQ(result.final_log_posterior, reference.final_log_posterior)
        << policy_name(policy);
    EXPECT_EQ(result.branch_accepts, reference.branch_accepts);
    EXPECT_EQ(result.nni_accepts, reference.nni_accepts);
    EXPECT_EQ(result.trace, reference.trace);
  }
}

TEST(Mcmc, NniDisabledWithZeroProbability) {
  Fixture fx(31);
  Rng rng(37);
  McmcOptions options;
  options.iterations = 200;
  options.nni_probability = 0.0;
  const McmcResult result = run_mcmc(fx.engine, rng, options);
  EXPECT_EQ(result.nni_proposals, 0u);
  EXPECT_EQ(result.branch_proposals, 200u);
}

}  // namespace
}  // namespace plfoc
