// Invalidation fuzz: the hardest correctness property in the system.
//
// The engine tracks per-vector validity (Orientation) across partial
// traversals, branch-length changes, SPR and NNI edits. Any over-trusting
// invalidation rule silently produces a wrong likelihood. This fuzz applies
// long random sequences of mutations — with the engine notified exactly as
// the public API prescribes — and checks after every step that the
// incremental likelihood equals a brute-force full recomputation.
#include <gtest/gtest.h>

#include <ostream>

#include "likelihood/engine.hpp"
#include "ooc/inram_store.hpp"
#include "ooc/ooc_store.hpp"
#include "sim/simulate.hpp"
#include "tree/random_tree.hpp"
#include "tree/topology_moves.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  std::size_t taxa;
  bool out_of_core;
  /// Out of core only: drop cherries at eviction and rebuild them through
  /// the engine's recover_vector, which then must succeed on every read.
  bool recompute = false;
};

// gtest prints the parameter into every test's listed name; without this
// it prints the struct's raw bytes, uninitialised padding included.
void PrintTo(const FuzzCase& param, std::ostream* out) {
  *out << "seed " << param.seed << ", " << param.taxa << " taxa, "
       << (param.out_of_core ? "out of core" : "in RAM")
       << (param.recompute ? ", recomputing cherries" : "");
}

class InvalidationFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(InvalidationFuzz, IncrementalAlwaysMatchesFullRecompute) {
  const FuzzCase param = GetParam();
  Rng rng(param.seed);
  Tree tree = random_tree(param.taxa, rng);
  const Alignment alignment =
      simulate_alignment(tree, jc69(), 30, rng, SimulationOptions{2, 1.0});
  const std::size_t width = LikelihoodEngine::vector_width(alignment, 2);

  std::unique_ptr<AncestralStore> store;
  if (param.out_of_core) {
    OocStoreOptions options;
    options.num_slots = 5;
    options.policy = ReplacementPolicy::kRandom;
    options.seed = param.seed;
    options.drop_rebuildable = param.recompute;
    options.file.base_path = temp_vector_file_path("fuzzinv");
    store = std::make_unique<OutOfCoreStore>(tree.num_inner(), width,
                                             std::move(options));
  } else {
    store = std::make_unique<InRamStore>(tree.num_inner(), width);
  }
  LikelihoodEngine engine(alignment, tree, ModelConfig{jc69(), 2, 0.9},
                          *store);
  store->set_recovery_hook([&engine](std::uint32_t index, double* dst) {
    return engine.recover_vector(index, dst);
  });
  engine.log_likelihood();

  for (int step = 0; step < 120; ++step) {
    const std::uint64_t kind = rng.below(5);
    if (kind == 0) {
      // Random branch-length change through the public notification API.
      const auto edges = tree.edges();
      const auto [a, b] = edges[rng.below(edges.size())];
      tree.set_branch_length(a, b, rng.uniform(0.01, 0.8));
      engine.invalidate_length_change(a, b);
    } else if (kind == 1) {
      // NNI on a random inner edge.
      std::vector<std::pair<NodeId, NodeId>> inner_edges;
      for (const auto& [a, b] : tree.edges())
        if (tree.is_inner(a) && tree.is_inner(b)) inner_edges.emplace_back(a, b);
      if (inner_edges.empty()) continue;
      const auto [a, b] = inner_edges[rng.below(inner_edges.size())];
      apply_nni(tree, a, b, static_cast<int>(rng.below(2)));
      engine.invalidate_topology_change(a);
      engine.invalidate_topology_change(b);
    } else if (kind == 2) {
      // SPR: prune a random inner node in a random direction, reinsert at a
      // random non-adjacent edge of the remaining component.
      const NodeId s = tree.inner_node(
          static_cast<std::uint32_t>(rng.below(tree.num_inner())));
      const NodeId r = tree.neighbors(s)[rng.below(3)];
      NodeId u = kNoNode;
      NodeId v = kNoNode;
      for (NodeId nbr : tree.neighbors(s))
        if (nbr != r) (u == kNoNode ? u : v) = nbr;
      // Collect candidate edges in the component that stays (block s).
      std::vector<std::pair<NodeId, NodeId>> candidates;
      std::vector<bool> seen(tree.num_nodes(), false);
      seen[s] = true;
      std::vector<NodeId> queue{u};
      seen[u] = true;
      std::size_t head = 0;
      while (head < queue.size()) {
        const NodeId node = queue[head++];
        for (NodeId nbr : tree.neighbors(node))
          if (!seen[nbr]) {
            seen[nbr] = true;
            queue.push_back(nbr);
          }
      }
      for (NodeId node : queue)
        for (NodeId nbr : tree.neighbors(node))
          if (node < nbr && nbr != s && node != s && seen[nbr])
            candidates.emplace_back(node, nbr);
      // Remove the (u, v)-healing edge equivalents: target must not be the
      // pair {u, v} and not incident to s (guaranteed by construction).
      std::vector<std::pair<NodeId, NodeId>> valid;
      for (const auto& [x, y] : candidates) {
        const bool heals = (x == std::min(u, v) && y == std::max(u, v));
        if (!heals) valid.emplace_back(x, y);
      }
      if (valid.empty()) continue;
      const auto [x, y] = valid[rng.below(valid.size())];
      apply_spr(tree, s, r, x, y);
      engine.invalidate_topology_change(s);
      engine.invalidate_topology_change(u);
      engine.invalidate_topology_change(x);
    } else if (kind == 3) {
      // Evaluate at a random branch (exercises re-orientation).
      const auto edges = tree.edges();
      const auto [a, b] = edges[rng.below(edges.size())];
      engine.log_likelihood(a, b);
      continue;  // pure evaluation; equality is checked below anyway
    } else {
      // Optimise a random branch.
      const auto edges = tree.edges();
      const auto [a, b] = edges[rng.below(edges.size())];
      engine.optimize_branch(a, b, 4);
    }

    // Check every few steps so staleness can accumulate across several
    // mutations before a full recompute wipes the slate clean.
    if (step % 7 == 6) {
      const double incremental = engine.log_likelihood();
      const double full = engine.full_traversal_log_likelihood();
      ASSERT_NEAR(incremental, full, 1e-8 + 1e-12 * std::abs(full))
          << "step " << step << " kind " << kind;
    }
  }
  // The recompute cases must have rebuilt cherries, or they proved nothing.
  if (param.recompute) {
    EXPECT_GT(store->stats().recomputes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InvalidationFuzz,
    ::testing::Values(FuzzCase{101, 8, false}, FuzzCase{202, 12, false},
                      FuzzCase{303, 16, false}, FuzzCase{404, 10, true},
                      FuzzCase{505, 14, true}, FuzzCase{404, 10, true, true},
                      FuzzCase{505, 14, true, true}, FuzzCase{606, 20, true, true}),
    [](const ::testing::TestParamInfo<FuzzCase>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) +
             (param_info.param.out_of_core ? "_ooc" : "_ram") +
             (param_info.param.recompute ? "_recompute" : "");
    });

}  // namespace
}  // namespace plfoc
