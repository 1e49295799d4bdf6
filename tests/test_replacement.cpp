#include "ooc/replacement.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ooc/ooc_store.hpp"
#include "tree/distances.hpp"
#include "tree/newick.hpp"
#include "util/checks.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

std::vector<std::uint32_t> candidates(std::initializer_list<std::uint32_t> v) {
  return v;
}

TEST(Replacement, PolicyNamesRoundTrip) {
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kRandom, ReplacementPolicy::kLru,
        ReplacementPolicy::kLfu, ReplacementPolicy::kTopological})
    EXPECT_EQ(parse_policy(policy_name(policy)), policy);
  EXPECT_THROW(parse_policy("nope"), Error);
}

TEST(Replacement, PolicyParsingIsCaseInsensitive) {
  EXPECT_EQ(parse_policy("LRU"), ReplacementPolicy::kLru);
  EXPECT_EQ(parse_policy("Lfu"), ReplacementPolicy::kLfu);
  EXPECT_EQ(parse_policy("RANDOM"), ReplacementPolicy::kRandom);
  EXPECT_EQ(parse_policy("Topological"), ReplacementPolicy::kTopological);
}

TEST(Replacement, PolicyParseErrorListsAcceptedNames) {
  try {
    parse_policy("mru");
    FAIL() << "expected Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("expected one of: random, lru, lfu, topological"),
              std::string::npos)
        << error.what();
  }
}

TEST(Replacement, RandomPicksFromCandidatesOnly) {
  auto strategy = make_strategy({ReplacementPolicy::kRandom, 100, 7, nullptr});
  const auto c = candidates({3, 17, 42, 99});
  const std::set<std::uint32_t> allowed(c.begin(), c.end());
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(allowed.count(strategy->choose_victim(c, 0)));
}

TEST(Replacement, RandomIsDeterministicPerSeed) {
  auto a = make_strategy({ReplacementPolicy::kRandom, 100, 7, nullptr});
  auto b = make_strategy({ReplacementPolicy::kRandom, 100, 7, nullptr});
  const auto c = candidates({1, 2, 3, 4, 5, 6, 7, 8});
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a->choose_victim(c, 0), b->choose_victim(c, 0));
}

TEST(Replacement, RandomCoversAllCandidates) {
  auto strategy = make_strategy({ReplacementPolicy::kRandom, 10, 3, nullptr});
  const auto c = candidates({0, 1, 2, 3});
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(strategy->choose_victim(c, 9));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Replacement, LruEvictsOldestAccess) {
  auto strategy = make_strategy({ReplacementPolicy::kLru, 10, 1, nullptr});
  strategy->on_access(0);
  strategy->on_access(1);
  strategy->on_access(2);
  strategy->on_access(0);  // 0 is now the most recent
  EXPECT_EQ(strategy->choose_victim(candidates({0, 1, 2}), 5), 1u);
  strategy->on_access(1);
  EXPECT_EQ(strategy->choose_victim(candidates({0, 1, 2}), 5), 2u);
}

TEST(Replacement, LruNeverAccessedIsOldest) {
  auto strategy = make_strategy({ReplacementPolicy::kLru, 10, 1, nullptr});
  strategy->on_access(0);
  strategy->on_access(1);
  EXPECT_EQ(strategy->choose_victim(candidates({0, 1, 7}), 5), 7u);
}

TEST(Replacement, LfuEvictsLeastFrequent) {
  auto strategy = make_strategy({ReplacementPolicy::kLfu, 10, 1, nullptr});
  for (std::uint32_t idx : {0u, 1u, 2u}) strategy->on_load(idx);
  strategy->on_access(0);
  strategy->on_access(0);
  strategy->on_access(0);
  strategy->on_access(1);
  strategy->on_access(1);
  strategy->on_access(2);
  EXPECT_EQ(strategy->choose_victim(candidates({0, 1, 2}), 5), 2u);
}

TEST(Replacement, LfuCountsResetOnReload) {
  auto strategy = make_strategy({ReplacementPolicy::kLfu, 10, 1, nullptr});
  strategy->on_load(0);
  for (int i = 0; i < 10; ++i) strategy->on_access(0);
  strategy->on_load(1);
  strategy->on_access(1);
  // Re-load 0: its history is wiped (per-residency frequency).
  strategy->on_load(0);
  strategy->on_access(0);
  strategy->on_access(1);
  EXPECT_EQ(strategy->choose_victim(candidates({0, 1}), 5), 0u);
}

TEST(Replacement, TopologicalEvictsMostDistantNode) {
  // Ladder tree: inner nodes form a path, so distances are unambiguous.
  const Tree tree = parse_newick("(a,(b,(c,(d,(e,f)))));");
  // Inner vector indices 0..3 correspond to inner nodes along the ladder.
  auto strategy =
      make_strategy({ReplacementPolicy::kTopological, tree.num_inner(), 1,
                     &tree});
  // Request the vector whose node is at one end; the victim must be the
  // candidate whose node is farthest along the ladder.
  std::vector<std::uint32_t> all;
  for (std::uint32_t i = 0; i < tree.num_inner(); ++i) all.push_back(i);
  const std::uint32_t requested = 0;
  const std::uint32_t victim = strategy->choose_victim(
      {all.data(), all.size()}, requested);
  // Verify by brute force.
  std::uint32_t best = 0;
  std::uint32_t best_dist = 0;
  for (std::uint32_t c : all) {
    const std::uint32_t d = node_distance(tree, tree.inner_node(requested),
                                          tree.inner_node(c));
    if (d > best_dist) {
      best_dist = d;
      best = c;
    }
  }
  EXPECT_EQ(victim, best);
}

TEST(Replacement, TopologicalRequiresTree) {
  EXPECT_THROW(make_strategy({ReplacementPolicy::kTopological, 4, 1, nullptr}),
               Error);
}

TEST(Replacement, TopologicalRejectsSizeMismatch) {
  const Tree tree = parse_newick("(a,b,(c,d));");
  EXPECT_THROW(
      make_strategy({ReplacementPolicy::kTopological, 99, 1, &tree}), Error);
}

// Property test under real eviction pressure: every policy must preserve two
// invariants that no victim choice may break — (1) the engine's pinned
// triple (two child leases + the write target) stays resident for as long as
// the leases are held, and (2) the data each vector carries survives any
// sequence of evictions and swap-ins. In PLFOC_AUDIT builds the store
// additionally replays each mutation through its internal StoreAuditor, so a
// policy returning a pinned victim aborts the test immediately.
TEST(Replacement, AllPoliciesKeepPinsResidentAndDataIntactUnderPressure) {
  // Ladder tree so kTopological has the tree geometry it requires.
  std::string newick;
  for (int i = 0; i < 17; ++i) newick += "(t" + std::to_string(i) + ",";
  newick += "(t17,t18" + std::string(18, ')') + ";";
  const Tree tree = parse_newick(newick);
  const std::uint32_t n = static_cast<std::uint32_t>(tree.num_inner());
  ASSERT_GE(n, 8u);
  const std::size_t width = 24;

  for (ReplacementPolicy policy :
       {ReplacementPolicy::kRandom, ReplacementPolicy::kLru,
        ReplacementPolicy::kLfu, ReplacementPolicy::kTopological}) {
    SCOPED_TRACE(policy_name(policy));
    OocStoreOptions options;
    options.num_slots = 5;  // m = 5 << n: constant eviction churn
    options.policy = policy;
    options.seed = 7;
    options.tree = &tree;
    options.file.base_path = temp_vector_file_path(
        std::string("policy_prop_") + policy_name(policy));
    OutOfCoreStore store(n, width, options);

    // Shadow model of every vector's expected contents.
    std::vector<double> shadow(n, 0.0);
    for (std::uint32_t idx = 0; idx < n; ++idx) {
      auto lease = store.acquire(idx, AccessMode::kWrite);
      shadow[idx] = idx * 1000.0;
      for (std::size_t i = 0; i < width; ++i) lease.data()[i] = shadow[idx];
    }

    Rng rng(static_cast<std::uint64_t>(policy) * 101 + 13);
    for (int step = 0; step < 300; ++step) {
      // An engine-shaped access: two distinct read children plus a distinct
      // write target, all pinned at once.
      const std::uint32_t target = static_cast<std::uint32_t>(rng.below(n));
      std::uint32_t left = static_cast<std::uint32_t>(rng.below(n));
      while (left == target) left = static_cast<std::uint32_t>(rng.below(n));
      std::uint32_t right = static_cast<std::uint32_t>(rng.below(n));
      while (right == target || right == left)
        right = static_cast<std::uint32_t>(rng.below(n));

      auto left_lease = store.acquire(left, AccessMode::kRead);
      auto right_lease = store.acquire(right, AccessMode::kRead);
      auto target_lease = store.acquire(target, AccessMode::kWrite);
      EXPECT_TRUE(store.is_resident(left));
      EXPECT_TRUE(store.is_resident(right));
      EXPECT_TRUE(store.is_resident(target));

      ASSERT_EQ(left_lease.data()[0], shadow[left]) << "step " << step;
      ASSERT_EQ(right_lease.data()[width - 1], shadow[right])
          << "step " << step;
      shadow[target] = shadow[left] + shadow[right] + 1.0;
      for (std::size_t i = 0; i < width; ++i)
        target_lease.data()[i] = shadow[target];
    }

    // Full sweep: every vector still carries exactly its shadow value.
    for (std::uint32_t idx = 0; idx < n; ++idx) {
      auto lease = store.acquire(idx, AccessMode::kRead);
      for (std::size_t i = 0; i < width; ++i)
        ASSERT_EQ(lease.data()[i], shadow[idx]) << "vector " << idx;
    }
    EXPECT_GT(store.stats().evictions, 0u);
  }
}

TEST(Replacement, StrategyNames) {
  EXPECT_STREQ(
      make_strategy({ReplacementPolicy::kRandom, 4, 1, nullptr})->name(),
      "random");
  EXPECT_STREQ(make_strategy({ReplacementPolicy::kLru, 4, 1, nullptr})->name(),
               "lru");
  EXPECT_STREQ(make_strategy({ReplacementPolicy::kLfu, 4, 1, nullptr})->name(),
               "lfu");
}

}  // namespace
}  // namespace plfoc
