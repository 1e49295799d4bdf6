#include "session.hpp"

#include <gtest/gtest.h>

#include "sim/dataset_planner.hpp"
#include "tree/newick.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

PlannedDataset small_dataset(std::uint64_t seed = 3) {
  DatasetPlan plan;
  plan.num_taxa = 16;
  plan.num_sites = 80;
  plan.seed = seed;
  return make_dna_dataset(plan);
}

TEST(Session, InRamBackendWorks) {
  PlannedDataset data = small_dataset();
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr());
  const double ll = session.engine().log_likelihood();
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_LT(ll, 0.0);
  EXPECT_EQ(session.out_of_core(), nullptr);
  EXPECT_EQ(session.paged(), nullptr);
}

TEST(Session, CompressionShrinksPatterns) {
  PlannedDataset data = small_dataset();
  const std::size_t raw_sites = data.alignment.num_sites();
  SessionOptions options;
  options.compress_patterns = true;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  EXPECT_LE(session.patterns(), raw_sites);
}

TEST(Session, CompressionCanBeDisabled) {
  PlannedDataset data = small_dataset();
  const std::size_t raw_sites = data.alignment.num_sites();
  SessionOptions options;
  options.compress_patterns = false;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  EXPECT_EQ(session.patterns(), raw_sites);
}

TEST(Session, OutOfCoreFromFraction) {
  PlannedDataset data = small_dataset();
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.5;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  ASSERT_NE(session.out_of_core(), nullptr);
  EXPECT_EQ(session.out_of_core()->num_slots(), 7u);  // round(0.5 * 14)
  const double ll = session.engine().log_likelihood();
  EXPECT_TRUE(std::isfinite(ll));
}

TEST(Session, OutOfCoreFromBudget) {
  PlannedDataset data = small_dataset();
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.compress_patterns = false;
  // Budget for exactly 4 vectors.
  const std::size_t width = 80 * 4 * 4;
  options.ram_budget_bytes = 4 * width * sizeof(double);
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  ASSERT_NE(session.out_of_core(), nullptr);
  EXPECT_EQ(session.out_of_core()->num_slots(), 4u);
}

TEST(Session, OutOfCoreRequiresLimit) {
  PlannedDataset data = small_dataset();
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  EXPECT_THROW(Session(std::move(data.alignment), std::move(data.tree),
                       benchmark_gtr(), options),
               Error);
}

TEST(SessionOptions, ValidateRejectsInconsistentMemoryLimits) {
  const auto error_text = [](const SessionOptions& options) {
    try {
      options.validate();
    } catch (const Error& error) {
      return std::string(error.what());
    }
    return std::string();
  };

  SessionOptions neither;
  neither.backend = Backend::kOutOfCore;
  EXPECT_NE(error_text(neither).find("neither"), std::string::npos);

  SessionOptions both;
  both.backend = Backend::kOutOfCore;
  both.ram_fraction = 0.5;
  both.ram_budget_bytes = 1 << 20;
  EXPECT_NE(error_text(both).find("both"), std::string::npos);

  SessionOptions paged_fraction;
  paged_fraction.backend = Backend::kPaged;
  paged_fraction.ram_budget_bytes = 1 << 20;
  paged_fraction.ram_fraction = 0.5;
  EXPECT_NE(error_text(paged_fraction).find("ram_fraction"),
            std::string::npos);

  SessionOptions paged_no_budget;
  paged_no_budget.backend = Backend::kPaged;
  EXPECT_FALSE(error_text(paged_no_budget).empty());

  SessionOptions negative;
  negative.ram_fraction = -0.1;
  EXPECT_FALSE(error_text(negative).empty());

  // Valid configurations pass, and other backends ignore the limit fields.
  SessionOptions fraction_only;
  fraction_only.backend = Backend::kOutOfCore;
  fraction_only.ram_fraction = 0.25;
  fraction_only.validate();
  SessionOptions in_ram;
  in_ram.ram_budget_bytes = 123;  // ignored by kInRam
  in_ram.validate();
}

// A thread count can come from a jobfile line or a wire request, and the
// kernel pool starts threads - 1 OS threads. validate() runs before any pool
// exists, so neither count below starts a thread.
TEST(SessionOptions, ValidateBoundsThreads) {
  SessionOptions at_limit;
  at_limit.threads = SessionOptions::kMaxThreads;
  EXPECT_NO_THROW(at_limit.validate());

  SessionOptions over_limit;
  over_limit.threads = SessionOptions::kMaxThreads + 1;
  try {
    over_limit.validate();
    ADD_FAILURE() << "threads above kMaxThreads must be rejected";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("threads"), std::string::npos)
        << error.what();
  }
}

TEST(Session, EvaluateReturnsLikelihoodTimingAndStats) {
  PlannedDataset data = small_dataset();
  Tree tree_copy = data.tree;
  Alignment alignment_copy = data.alignment;
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.3;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  const EvalResult result = session.evaluate();
  EXPECT_TRUE(std::isfinite(result.log_likelihood));
  EXPECT_LT(result.log_likelihood, 0.0);
  EXPECT_GE(result.wall_seconds, 0.0);
  EXPECT_GT(result.stats.accesses, 0u);
  // The one-shot path computes exactly the engine's likelihood.
  Session direct(std::move(alignment_copy), std::move(tree_copy),
                 benchmark_gtr());
  EXPECT_EQ(result.log_likelihood, direct.engine().log_likelihood());
}

TEST(Session, PagedBackendWorks) {
  PlannedDataset data = small_dataset();
  SessionOptions options;
  options.backend = Backend::kPaged;
  options.ram_budget_bytes = 1 << 20;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  ASSERT_NE(session.paged(), nullptr);
  const double ll = session.engine().log_likelihood();
  EXPECT_TRUE(std::isfinite(ll));
}

TEST(Session, StatsAccessibleAndResettable) {
  PlannedDataset data = small_dataset();
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.3;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  session.engine().log_likelihood();
  EXPECT_GT(session.stats().accesses, 0u);
  session.reset_stats();
  EXPECT_EQ(session.stats().accesses, 0u);
}

TEST(Session, SinglePrecisionDiskStaysAccurate) {
  PlannedDataset data = small_dataset();
  Tree tree_copy = data.tree;
  Alignment alignment_copy = data.alignment;

  SessionOptions dp;
  dp.backend = Backend::kOutOfCore;
  dp.ram_fraction = 0.3;
  Session session_d(std::move(data.alignment), std::move(data.tree),
                    benchmark_gtr(), dp);
  session_d.engine().full_traversal_log_likelihood();
  const double reference = session_d.engine().full_traversal_log_likelihood();

  SessionOptions sp = dp;
  sp.single_precision_disk = true;
  Session session_s(std::move(alignment_copy), std::move(tree_copy),
                    benchmark_gtr(), sp);
  // Two passes so single-precision round-trips actually happen on re-reads.
  session_s.engine().full_traversal_log_likelihood();
  const double measured = session_s.engine().full_traversal_log_likelihood();
  EXPECT_NEAR(measured, reference, 1e-4 * std::abs(reference));
  EXPECT_LT(session_s.stats().bytes_written,
            session_d.stats().bytes_written);
}

TEST(Session, TopologicalPolicyWiresTreeAutomatically) {
  PlannedDataset data = small_dataset();
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.25;
  options.policy = ReplacementPolicy::kTopological;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  EXPECT_STREQ(session.out_of_core()->strategy_name(), "topological");
  EXPECT_TRUE(std::isfinite(session.engine().log_likelihood()));
}

}  // namespace
}  // namespace plfoc
