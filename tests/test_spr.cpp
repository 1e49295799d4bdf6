#include "search/spr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <memory>

#include "ooc/inram_store.hpp"
#include "ooc/ooc_store.hpp"
#include "search/mcmc.hpp"
#include "search/stepwise.hpp"
#include "sim/simulate.hpp"
#include "tree/newick.hpp"
#include "tree/random_tree.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

struct SearchFixture {
  Tree truth;
  Alignment alignment;
  Tree start;
  InRamStore store;
  LikelihoodEngine engine;

  SearchFixture(std::uint64_t seed, std::size_t taxa, std::size_t sites,
                bool random_start = true)
      : truth(make_truth(seed, taxa)),
        alignment(make_alignment(seed, sites, truth)),
        start(make_start(seed, alignment, random_start)),
        store(start.num_inner(),
              LikelihoodEngine::vector_width(alignment, 2)),
        engine(alignment, start, ModelConfig{jc69(), 2, 1.0}, store) {}

  static Tree make_truth(std::uint64_t seed, std::size_t taxa) {
    Rng rng(seed);
    RandomTreeOptions options;
    options.mean_branch_length = 0.15;
    return random_tree(taxa, rng, options);
  }
  static Alignment make_alignment(std::uint64_t seed, std::size_t sites,
                                  const Tree& truth) {
    Rng rng(seed + 77);
    return simulate_alignment(truth, jc69(), sites, rng,
                              SimulationOptions{2, 1.0});
  }
  static Tree make_start(std::uint64_t seed, const Alignment& alignment,
                         bool random_start) {
    Rng rng(seed + 154);
    if (random_start) {
      StepwiseOptions options;
      options.use_parsimony = false;  // deliberately bad starting tree
      return stepwise_addition_tree(alignment, rng, options);
    }
    StepwiseOptions options;
    return stepwise_addition_tree(alignment, rng, options);
  }
};

TEST(SprSearch, NeverDecreasesLikelihood) {
  SearchFixture fx(3, 12, 80);
  SprOptions options;
  options.rounds = 1;
  const SprResult result = spr_search(fx.engine, options);
  EXPECT_GE(result.final_log_likelihood,
            result.initial_log_likelihood - 1e-6);
  fx.engine.tree().validate();
}

TEST(SprSearch, ImprovesBadStartingTrees) {
  SearchFixture fx(7, 14, 150, /*random_start=*/true);
  SprOptions options;
  options.rounds = 2;
  const SprResult result = spr_search(fx.engine, options);
  EXPECT_GT(result.moves_accepted, 0u);
  EXPECT_GT(result.final_log_likelihood,
            result.initial_log_likelihood + 1.0);
}

TEST(SprSearch, LikelihoodStateConsistentAfterSearch) {
  // The engine's incremental state (orientations, vectors) must agree with a
  // clean full recomputation after all the trial/undo churn.
  SearchFixture fx(11, 10, 60);
  SprOptions options;
  options.rounds = 1;
  const SprResult result = spr_search(fx.engine, options);
  const double incremental = fx.engine.log_likelihood();
  const double full = fx.engine.full_traversal_log_likelihood();
  EXPECT_NEAR(incremental, full, 1e-8);
  EXPECT_NEAR(result.final_log_likelihood, full, 1e-6);
}

TEST(SprSearch, DeterministicAcrossRuns) {
  SearchFixture a(13, 10, 60);
  SearchFixture b(13, 10, 60);
  SprOptions options;
  options.rounds = 1;
  const SprResult ra = spr_search(a.engine, options);
  const SprResult rb = spr_search(b.engine, options);
  EXPECT_EQ(ra.final_log_likelihood, rb.final_log_likelihood);
  EXPECT_EQ(ra.moves_accepted, rb.moves_accepted);
  EXPECT_EQ(ra.insertions_tried, rb.insertions_tried);
}

TEST(SprSearch, StrideReducesWorkProportionally) {
  SearchFixture a(17, 12, 40);
  SearchFixture b(17, 12, 40);
  SprOptions full_scan;
  full_scan.rounds = 1;
  full_scan.epsilon = 1e18;  // never accept: pure scanning
  SprOptions strided = full_scan;
  strided.prune_stride = 3;
  const SprResult ra = spr_search(a.engine, full_scan);
  const SprResult rb = spr_search(b.engine, strided);
  EXPECT_GT(ra.prune_candidates, 2 * rb.prune_candidates);
  EXPECT_EQ(ra.moves_accepted, 0u);
  EXPECT_EQ(rb.moves_accepted, 0u);
}

TEST(SprSearch, ScanOnlyLeavesTreeUntouched) {
  SearchFixture fx(19, 10, 40);
  // Record topology and lengths as an edge map (neighbour slot order may be
  // permuted by the trial disconnect/connect churn; the tree itself is what
  // must be unchanged).
  std::map<std::pair<NodeId, NodeId>, double> before;
  for (const auto& [a, b] : fx.engine.tree().edges())
    before[{a, b}] = fx.engine.tree().branch_length(a, b);
  SprOptions options;
  options.rounds = 1;
  options.epsilon = 1e18;  // reject everything
  spr_search(fx.engine, options);
  std::map<std::pair<NodeId, NodeId>, double> after;
  for (const auto& [a, b] : fx.engine.tree().edges())
    after[{a, b}] = fx.engine.tree().branch_length(a, b);
  EXPECT_EQ(after, before);
  // And the likelihood state is still exact.
  EXPECT_NEAR(fx.engine.log_likelihood(),
              fx.engine.full_traversal_log_likelihood(), 1e-8);
}

TEST(SprSearch, RadiusBoundsCandidates) {
  SearchFixture a(23, 16, 30);
  SearchFixture b(23, 16, 30);
  SprOptions narrow;
  narrow.rounds = 1;
  narrow.radius_max = 1;
  narrow.epsilon = 1e18;
  SprOptions wide = narrow;
  wide.radius_max = 6;
  const SprResult rn = spr_search(a.engine, narrow);
  const SprResult rw = spr_search(b.engine, wide);
  EXPECT_GT(rw.insertions_tried, rn.insertions_tried);
}

/// Recompute, from scratch on a fresh in-RAM engine over a copy of the tree,
/// every vector `engine` holds as valid (oriented towards a current
/// neighbour), and require the stored bytes and scale counts to match. A
/// vector left oriented towards a former neighbour must be refused by
/// recovery: it has no children to recompute from.
void expect_valid_vectors_exact(LikelihoodEngine& engine,
                                const Alignment& alignment) {
  Tree copy = engine.tree();
  InRamStore fresh_store(copy.num_inner(), engine.store().width());
  LikelihoodEngine fresh(alignment, copy, engine.config(), fresh_store);
  const Tree& tree = engine.tree();
  const std::size_t bytes = engine.store().width() * sizeof(double);
  std::size_t checked = 0;
  std::vector<TraversalStep> steps;
  std::vector<double> scratch(engine.store().width());
  for (std::uint32_t idx = 0; idx < tree.num_inner(); ++idx) {
    const NodeId node = tree.inner_node(idx);
    const NodeId toward = engine.orientation().towards(node);
    if (toward == kNoNode) continue;
    if (!tree.has_edge(node, toward)) {
      EXPECT_EQ(engine.recover_vector(idx, scratch.data()), 0u);
      continue;
    }
    steps.clear();
    plan_subtree(copy, fresh.orientation(), node, toward, /*full=*/true,
                 steps);
    fresh.execute(steps);
    const VectorLease stored = engine.store().acquire(idx, AccessMode::kRead);
    const VectorLease expected = fresh_store.acquire(idx, AccessMode::kRead);
    EXPECT_EQ(std::memcmp(stored.data(), expected.data(), bytes), 0)
        << "vector of node " << node << " towards " << toward;
    const auto stored_scale = engine.scale_counts(node);
    const auto expected_scale = fresh.scale_counts(node);
    EXPECT_TRUE(std::equal(stored_scale.begin(), stored_scale.end(),
                           expected_scale.begin(), expected_scale.end()))
        << "scale counts of node " << node << " towards " << toward;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

/// The store the validity audits run on: in RAM, or out-of-core with 5
/// Random-replacement slots so most vectors cycle through the file.
std::unique_ptr<AncestralStore> make_audit_store(std::uint64_t seed,
                                                 const Tree& tree,
                                                 std::size_t width,
                                                 bool out_of_core) {
  if (!out_of_core)
    return std::make_unique<InRamStore>(tree.num_inner(), width);
  OocStoreOptions options;
  options.num_slots = 5;
  options.policy = ReplacementPolicy::kRandom;
  options.seed = seed;
  options.file.base_path = temp_vector_file_path("sprvalid");
  return std::make_unique<OutOfCoreStore>(tree.num_inner(), width,
                                          std::move(options));
}

// Trial rollback invalidates only the vectors at the nodes a trial edited;
// everything else the trial computed stays valid. "Valid" must still mean
// "exactly what a recomputation gives", on RAM and out-of-core stores alike.
TEST(SprSearch, ValidVectorsEqualRecomputationAfterSearch) {
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u}) {
    for (const bool out_of_core : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (out_of_core ? " out-of-core" : " in-ram"));
      const Tree truth = SearchFixture::make_truth(seed, 12);
      const Alignment alignment =
          SearchFixture::make_alignment(seed, 80, truth);
      Tree tree = SearchFixture::make_start(seed, alignment, true);
      const std::size_t width = LikelihoodEngine::vector_width(alignment, 2);
      const auto store = make_audit_store(seed, tree, width, out_of_core);
      LikelihoodEngine engine(alignment, tree, ModelConfig{jc69(), 2, 1.0},
                              *store);
      SprOptions spr;
      spr.rounds = 2;
      spr.prune_stride = 1;
      spr_search(engine, spr);
      expect_valid_vectors_exact(engine, alignment);
    }
  }
}

// MCMC rolls back a rejected NNI proposal by invalidating only a and b, the
// two nodes the swap edited. The vectors the proposal's evaluation computed
// elsewhere, and the clade roots left oriented towards a former neighbour,
// must still satisfy the same audit.
TEST(SprSearch, ValidVectorsEqualRecomputationAfterMcmc) {
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u}) {
    for (const bool out_of_core : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (out_of_core ? " out-of-core" : " in-ram"));
      const Tree truth = SearchFixture::make_truth(seed, 12);
      const Alignment alignment =
          SearchFixture::make_alignment(seed, 80, truth);
      Tree tree = SearchFixture::make_start(seed, alignment, true);
      const std::size_t width = LikelihoodEngine::vector_width(alignment, 2);
      const auto store = make_audit_store(seed, tree, width, out_of_core);
      LikelihoodEngine engine(alignment, tree, ModelConfig{jc69(), 2, 1.0},
                              *store);
      McmcOptions options;
      options.iterations = 400;
      options.nni_probability = 0.5;
      Rng rng(seed);
      const McmcResult result = run_mcmc(engine, rng, options);
      EXPECT_GT(result.nni_proposals, result.nni_accepts);
      expect_valid_vectors_exact(engine, alignment);
    }
  }
}

/// Forwards every acquire to an inner store and counts the write-mode ones:
/// one per newview the engine runs.
class CountingStore final : public AncestralStore {
 public:
  explicit CountingStore(AncestralStore& inner)
      : AncestralStore(inner.count(), inner.width()),
        inner_(inner),
        leases_(inner.count()) {}
  const char* backend_name() const override { return "counting"; }
  std::uint64_t writes() const { return writes_; }

 protected:
  double* do_acquire(std::uint32_t index, AccessMode mode) override {
    if (mode == AccessMode::kWrite) ++writes_;
    leases_[index] = inner_.acquire(index, mode);
    return leases_[index].data();
  }
  void do_release(std::uint32_t index) override { leases_[index].release(); }

 private:
  AncestralStore& inner_;
  std::vector<VectorLease> leases_;
  std::uint64_t writes_ = 0;
};

// A fixed search must reach the same tree, bit for bit, through the same
// trials, with fewer vectors recomputed than when rollback invalidated every
// vector a trial computed. The golden values pass through libm (exp, log,
// lgamma); they were recorded on x86-64 Linux with glibc 2.36 and gcc 12.
TEST(SprSearch, GoldenOutcomeWithFewerRecomputations) {
  constexpr const char* kGoldenNewick =
      "((t1:0.021734012747553051,t12:0.0074684241100355939)"
      ":0.014889839797968981,t13:0.097105178594058567,"
      "(t9:0.22973373239921607,(((t2:0.049575731465260557,"
      "(t3:0.022890034374494456,(t0:0.0086246679482966521,"
      "(t11:0.10859407071015419,(t4:0.051617636192297173,"
      "(t8:0.17727794315709081,(t10:0.59428623860942953,"
      "t7:0.046413231666374906):0.10121714744645348):0.030104418559257759)"
      ":0.013341641576791574):0.038009244176817676):0.03579176430030484)"
      ":0.017309794774013159):0.06619480205009344,t6:0.12512863579054476)"
      ":0.0039763379171936231,t5:0.019600612119562495):1e-08)"
      ":0.11515906425057806);";
  constexpr std::uint64_t kGoldenLogLikelihoodBits = 0xc091dda646b0aa1bull;
  constexpr std::uint64_t kGoldenInsertionsTried = 408;
  constexpr std::uint64_t kGoldenMovesAccepted = 23;
  const Tree truth = SearchFixture::make_truth(7, 14);
  const Alignment alignment = SearchFixture::make_alignment(7, 150, truth);
  Tree tree = SearchFixture::make_start(7, alignment, true);
  InRamStore inner(tree.num_inner(),
                   LikelihoodEngine::vector_width(alignment, 2));
  CountingStore store(inner);
  LikelihoodEngine engine(alignment, tree, ModelConfig{jc69(), 2, 1.0}, store);
  SprOptions options;
  options.rounds = 2;
  const SprResult result = spr_search(engine, options);

  EXPECT_EQ(to_newick(tree, 17), kGoldenNewick);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.final_log_likelihood),
            kGoldenLogLikelihoodBits);
  EXPECT_EQ(result.insertions_tried, kGoldenInsertionsTried);
  EXPECT_EQ(result.moves_accepted, kGoldenMovesAccepted);
  // Write-mode acquires of the same search with whole-trial invalidation.
  constexpr std::uint64_t kWritesWithFullTrialInvalidation = 4801;
  EXPECT_LT(store.writes(), kWritesWithFullTrialInvalidation);
}

}  // namespace
}  // namespace plfoc
