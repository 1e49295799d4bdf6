#include "likelihood/engine.hpp"

#include <gtest/gtest.h>

#include "ooc/inram_store.hpp"
#include "msa/patterns.hpp"
#include "reference_likelihood.hpp"
#include "sim/simulate.hpp"
#include "tree/newick.hpp"
#include "tree/random_tree.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

struct EngineFixture {
  Alignment alignment;
  Tree tree;
  InRamStore store;
  LikelihoodEngine engine;

  EngineFixture(Alignment msa, Tree t, SubstitutionModel model,
                unsigned categories = 1, double alpha = 1.0)
      : alignment(std::move(msa)),
        tree(std::move(t)),
        store(tree.num_inner(),
              LikelihoodEngine::vector_width(alignment, categories)),
        engine(alignment, tree, ModelConfig{std::move(model), categories, alpha},
               store) {}
};

struct SimData {
  Tree tree;
  Alignment alignment;
};

SimData simulated(std::size_t taxa, std::size_t sites, std::uint64_t seed,
                  unsigned categories = 1, double alpha = 1.0) {
  Rng rng(seed);
  Tree tree = random_tree(taxa, rng);
  SimulationOptions options;
  options.categories = categories;
  options.alpha = alpha;
  Alignment alignment = simulate_alignment(
      tree, gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24}),
      sites, rng, options);
  return {std::move(tree), std::move(alignment)};
}

TEST(Engine, MatchesReferenceJc69NoGamma) {
  Tree tree = parse_newick("(a:0.1,b:0.2,(c:0.3,d:0.15):0.25);");
  Alignment alignment(DataType::kDna, 5);
  alignment.add_sequence("a", "ACGTA");
  alignment.add_sequence("b", "ACGTC");
  alignment.add_sequence("c", "AGGTA");
  alignment.add_sequence("d", "ACTTA");
  const double expected =
      testing::reference_log_likelihood(tree, alignment, jc69(), 1, 1.0);
  EngineFixture fx(std::move(alignment), std::move(tree), jc69(), 1);
  EXPECT_NEAR(fx.engine.log_likelihood(), expected, 1e-9);
}

TEST(Engine, MatchesReferenceGtrGamma4) {
  auto [tree, alignment] = simulated(8, 40, 101, 4, 0.7);
  const SubstitutionModel model =
      gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24});
  const double expected =
      testing::reference_log_likelihood(tree, alignment, model, 4, 0.7);
  EngineFixture fx(std::move(alignment), std::move(tree), model, 4, 0.7);
  EXPECT_NEAR(fx.engine.log_likelihood(), expected, 1e-7);
}

TEST(Engine, MatchesReferenceWithAmbiguityAndGaps) {
  Tree tree = parse_newick("(a:0.1,b:0.2,(c:0.3,d:0.15):0.25);");
  Alignment alignment(DataType::kDna, 6);
  alignment.add_sequence("a", "AC-TRN");
  alignment.add_sequence("b", "ACGT?C");
  alignment.add_sequence("c", "AGG-AY");
  alignment.add_sequence("d", "WCTTAK");
  const SubstitutionModel model = hky85(2.5, {0.3, 0.2, 0.2, 0.3});
  const double expected =
      testing::reference_log_likelihood(tree, alignment, model, 2, 0.5);
  EngineFixture fx(std::move(alignment), std::move(tree), model, 2, 0.5);
  EXPECT_NEAR(fx.engine.log_likelihood(), expected, 1e-9);
}

TEST(Engine, PatternCompressionPreservesLikelihood) {
  auto [tree, alignment] = simulated(6, 120, 7);
  const SubstitutionModel model = jc69();
  Tree tree_copy = tree;
  EngineFixture raw(alignment, std::move(tree), model, 1);
  Alignment compressed = compress_patterns(alignment).compressed;
  ASSERT_LT(compressed.num_sites(), alignment.num_sites());
  EngineFixture packed(std::move(compressed), std::move(tree_copy), model, 1);
  EXPECT_NEAR(raw.engine.log_likelihood(), packed.engine.log_likelihood(),
              1e-8);
}

TEST(Engine, LikelihoodInvariantUnderEvaluationBranch) {
  auto [tree, alignment] = simulated(10, 30, 13, 4, 1.0);
  const SubstitutionModel model =
      gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24});
  EngineFixture fx(std::move(alignment), std::move(tree), model, 4, 1.0);
  const double reference_value = fx.engine.log_likelihood();
  for (const auto& [a, b] : fx.tree.edges())
    EXPECT_NEAR(fx.engine.log_likelihood(a, b), reference_value, 1e-8)
        << "branch " << a << "-" << b;
}

TEST(Engine, FullTraversalMatchesIncremental) {
  auto [tree, alignment] = simulated(12, 25, 17, 4, 0.8);
  const SubstitutionModel model = jc69();
  EngineFixture fx(std::move(alignment), std::move(tree), model, 4, 0.8);
  const double incremental = fx.engine.log_likelihood();
  const double full = fx.engine.full_traversal_log_likelihood();
  EXPECT_NEAR(incremental, full, 1e-9);
}

TEST(Engine, ScalingKeepsDeepTreesFinite) {
  // 64 taxa with long branches: per-site likelihoods underflow double range
  // without scaling.
  Rng rng(23);
  RandomTreeOptions options;
  options.mean_branch_length = 1.0;
  Tree tree = random_tree(64, rng);
  Alignment alignment =
      simulate_alignment(tree, jc69(), 20, rng, SimulationOptions{1, 1.0});
  EngineFixture fx(std::move(alignment), std::move(tree), jc69(), 1);
  const double ll = fx.engine.log_likelihood();
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_LT(ll, 0.0);
}

TEST(Engine, SetAlphaChangesLikelihood) {
  auto [tree, alignment] = simulated(8, 60, 29, 4, 0.3);
  EngineFixture fx(std::move(alignment), std::move(tree), jc69(), 4, 0.3);
  const double at_03 = fx.engine.log_likelihood();
  fx.engine.set_alpha(5.0);
  const double at_5 = fx.engine.log_likelihood();
  EXPECT_NE(at_03, at_5);
  fx.engine.set_alpha(0.3);
  EXPECT_NEAR(fx.engine.log_likelihood(), at_03, 1e-9);
}

TEST(Engine, SetModelMatchesFreshEngine) {
  auto [tree, alignment] = simulated(6, 30, 31);
  Tree tree_copy = tree;
  const SubstitutionModel target = hky85(3.0, {0.4, 0.1, 0.2, 0.3});
  EngineFixture fx(alignment, std::move(tree), jc69(), 2, 1.0);
  fx.engine.log_likelihood();
  fx.engine.set_substitution_model(target);
  EngineFixture fresh(std::move(alignment), std::move(tree_copy), target, 2,
                      1.0);
  EXPECT_NEAR(fx.engine.log_likelihood(), fresh.engine.log_likelihood(), 1e-9);
}

TEST(Engine, BranchValueDerivativeSignsBracketOptimum) {
  auto [tree, alignment] = simulated(8, 80, 37);
  EngineFixture fx(std::move(alignment), std::move(tree), jc69(), 1);
  // Find a branch whose ML length is interior, then the log-likelihood
  // derivative must be positive below it and negative above it.
  bool found_interior = false;
  for (const auto& [a, b] : fx.tree.edges()) {
    fx.engine.optimize_branch(a, b, 64);
    const double optimum = fx.tree.branch_length(a, b);
    fx.engine.log_likelihood(a, b);  // validate endpoint vectors
    const BranchValue high = fx.engine.branch_value(a, b, 20.0, true);
    EXPECT_LT(high.d1, 0.0);  // saturation always hurts
    if (optimum > 0.01 && optimum < 1.0) {
      found_interior = true;
      const BranchValue below =
          fx.engine.branch_value(a, b, optimum * 0.25, true);
      const BranchValue above =
          fx.engine.branch_value(a, b, optimum * 4.0, true);
      EXPECT_GT(below.d1, 0.0) << "branch " << a << "-" << b;
      EXPECT_LT(above.d1, 0.0) << "branch " << a << "-" << b;
    }
  }
  EXPECT_TRUE(found_interior);
}

TEST(Engine, RejectsMismatchedStore) {
  Tree tree = parse_newick("(a:0.1,b:0.1,c:0.1);");
  Alignment alignment(DataType::kDna, 2);
  alignment.add_sequence("a", "AC");
  alignment.add_sequence("b", "AC");
  alignment.add_sequence("c", "GT");
  InRamStore bad_store(5, 8);  // wrong count and width
  EXPECT_THROW(LikelihoodEngine(alignment, tree,
                                ModelConfig{jc69(), 1, 1.0}, bad_store),
               Error);
}

TEST(Engine, VectorWidthFormula) {
  Alignment alignment(DataType::kDna, 100);
  EXPECT_EQ(LikelihoodEngine::vector_width(alignment, 4), 100u * 4 * 4);
  Alignment protein(DataType::kProtein, 50);
  EXPECT_EQ(LikelihoodEngine::vector_width(protein, 4), 50u * 4 * 20);
}

TEST(Engine, ProteinLikelihoodMatchesReference) {
  Rng rng(43);
  Tree tree = random_tree(5, rng);
  const SubstitutionModel model = poisson_protein();
  Alignment alignment =
      simulate_alignment(tree, model, 15, rng, SimulationOptions{1, 1.0});
  const double expected =
      testing::reference_log_likelihood(tree, alignment, model, 1, 1.0);
  EngineFixture fx(std::move(alignment), std::move(tree), model, 1);
  EXPECT_NEAR(fx.engine.log_likelihood(), expected, 1e-8);
}

}  // namespace
}  // namespace plfoc
