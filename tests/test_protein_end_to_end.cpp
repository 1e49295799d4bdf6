// 20-state (protein) coverage end to end: the Sec. 3.1 memory argument is
// most acute for protein data ((n-2) * 8 * 80 * s bytes under Γ4), so the
// whole pipeline — simulation, compression, engine, search, out-of-core —
// must work for 20 states too, not just the DNA fast path.
#include <gtest/gtest.h>

#include "model/protein_matrices.hpp"
#include "likelihood/model_opt.hpp"
#include "search/spr.hpp"
#include "search/stepwise.hpp"
#include "session.hpp"
#include "sim/simulate.hpp"
#include "tree/random_tree.hpp"

namespace plfoc {
namespace {

struct ProteinData {
  Tree truth;
  Alignment alignment;

  explicit ProteinData(std::uint64_t seed, std::size_t taxa = 10,
                       std::size_t sites = 60)
      : truth(make_tree(seed, taxa)),
        alignment(make_alignment(seed, sites, truth)) {}

  static Tree make_tree(std::uint64_t seed, std::size_t taxa) {
    Rng rng(seed);
    return random_tree(taxa, rng);
  }
  static Alignment make_alignment(std::uint64_t seed, std::size_t sites,
                                  const Tree& truth) {
    Rng rng(seed + 1);
    return simulate_alignment(truth, synthetic_protein_model(9), sites, rng,
                              SimulationOptions{4, 0.8});
  }
};

SessionOptions ooc_options(double fraction,
                           ReplacementPolicy policy = ReplacementPolicy::kLru) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = fraction;
  options.policy = policy;
  return options;
}

TEST(ProteinEndToEnd, OutOfCoreMatchesInRamBitExactly) {
  const ProteinData data(3);
  Session reference(data.alignment, data.truth, synthetic_protein_model(9),
                    SessionOptions{});
  const double expected = reference.engine().log_likelihood();

  for (double f : {0.5, 0.2}) {
    Session session(data.alignment, data.truth, synthetic_protein_model(9),
                    ooc_options(f));
    EXPECT_EQ(session.engine().log_likelihood(), expected) << "f=" << f;
  }
}

TEST(ProteinEndToEnd, BranchAndAlphaOptimisationWork) {
  const ProteinData data(5);
  Session session(data.alignment, data.truth, synthetic_protein_model(9),
                  ooc_options(0.3));
  const double before = session.engine().log_likelihood();
  const double smoothed = session.engine().optimize_all_branches(1);
  EXPECT_GE(smoothed, before - 1e-9);
  const double after_alpha = optimize_alpha(session.engine(), 0.05, 20.0, 1e-2);
  EXPECT_GE(after_alpha, smoothed - 1e-6);
}

TEST(ProteinEndToEnd, SprSearchRunsOutOfCore) {
  const ProteinData data(7, 8, 40);
  Rng rng(11);
  Tree start = stepwise_addition_tree(data.alignment, rng);
  Session session(data.alignment, start, synthetic_protein_model(9),
                  ooc_options(0.25, ReplacementPolicy::kRandom));
  SprOptions spr;
  spr.rounds = 1;
  const SprResult result = spr_search(session.engine(), spr);
  EXPECT_GE(result.final_log_likelihood,
            result.initial_log_likelihood - 1e-9);
  EXPECT_NEAR(session.engine().log_likelihood(),
              session.engine().full_traversal_log_likelihood(), 1e-8);
}

TEST(ProteinEndToEnd, PoissonModelViaSession) {
  const ProteinData data(13);
  // Simulated under the synthetic model, evaluated under Poisson: still a
  // valid likelihood, exercising the uniform-rate 20-state path.
  Session session(data.alignment, data.truth, poisson_protein(),
                  ooc_options(0.4));
  const double ll = session.engine().log_likelihood();
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_LT(ll, 0.0);
}

TEST(ProteinEndToEnd, VectorWidthUsesTwentyStates) {
  const ProteinData data(17);
  SessionOptions options;
  options.compress_patterns = false;
  Session session(data.alignment, data.truth, synthetic_protein_model(9),
                  options);
  EXPECT_EQ(session.vector_width(),
            data.alignment.num_sites() * 4u * 20u);
}

}  // namespace
}  // namespace plfoc
