#include "search/stepwise.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "search/parsimony.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

double draw_length(Rng& rng, const StepwiseOptions& options) {
  return std::max(rng.exponential(1.0 / options.mean_branch_length),
                  options.min_branch_length);
}

/// All edges of the connected component containing `inside`, in
/// breadth-first order; `seen` (all zero, left all zero) and `queue` are
/// work arrays reused across calls.
void component_edges(const Tree& tree, NodeId inside,
                     std::vector<std::uint8_t>& seen,
                     std::vector<NodeId>& queue,
                     std::vector<std::pair<NodeId, NodeId>>& edges) {
  edges.clear();
  queue.assign(1, inside);
  seen[inside] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId node = queue[head];
    for (NodeId nbr : tree.neighbors(node)) {
      if (node < nbr) edges.emplace_back(node, nbr);
      if (seen[nbr] == 0) {
        seen[nbr] = 1;
        queue.push_back(nbr);
      }
    }
  }
  for (NodeId node : queue) seen[node] = 0;
}

}  // namespace

Tree stepwise_addition_tree(const Alignment& alignment, Rng& rng,
                            const StepwiseOptions& options) {
  const std::size_t n = alignment.num_taxa();
  PLFOC_REQUIRE(n >= 3, "stepwise addition needs at least 3 taxa");
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) names.push_back(alignment.name(i));
  Tree tree(std::move(names));

  // Random addition order.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  // Seed: first three taxa around the first inner node.
  const NodeId hub = tree.inner_node(0);
  for (int k = 0; k < 3; ++k)
    tree.connect(order[static_cast<std::size_t>(k)], hub,
                 draw_length(rng, options));

  ParsimonyScorer scorer(alignment, tree);
  if (options.use_parsimony) scorer.refresh(hub);
  std::vector<std::uint8_t> seen(tree.num_nodes(), 0);
  std::vector<NodeId> queue;
  std::vector<std::pair<NodeId, NodeId>> edges;

  for (std::size_t k = 3; k < n; ++k) {
    const NodeId tip = order[k];
    const NodeId fresh_inner =
        tree.inner_node(static_cast<std::uint32_t>(k) - 2);
    component_edges(tree, hub, seen, queue, edges);
    PLFOC_CHECK(!edges.empty());

    std::pair<NodeId, NodeId> best_edge;
    if (!options.use_parsimony) {
      best_edge = edges[rng.below(edges.size())];
    } else {
      // Sample candidate edges (all, if max_candidates covers them).
      if (options.max_candidates != 0 && edges.size() > options.max_candidates) {
        for (std::size_t i = 0; i < options.max_candidates; ++i) {
          const std::size_t j = i + rng.below(edges.size() - i);
          std::swap(edges[i], edges[j]);
        }
        edges.resize(options.max_candidates);
      }
      double best_cost = std::numeric_limits<double>::infinity();
      best_edge = edges[0];
      for (const auto& [a, b] : edges) {
        const double cost = scorer.insertion_cost(tip, a, b);
        if (cost < best_cost) {
          best_cost = cost;
          best_edge = {a, b};
        }
      }
    }

    const auto [a, b] = best_edge;
    const double old_len = tree.branch_length(a, b);
    tree.disconnect(a, b);
    const double half = std::max(old_len * 0.5, options.min_branch_length);
    tree.connect(a, fresh_inner, half);
    tree.connect(fresh_inner, b, half);
    tree.connect(tip, fresh_inner, draw_length(rng, options));
    if (options.use_parsimony) scorer.insert(tip, a, b, fresh_inner);
  }
  tree.validate();
  return tree;
}

}  // namespace plfoc
