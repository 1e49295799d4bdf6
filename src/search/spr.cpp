#include "search/spr.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "tree/topology_moves.hpp"
#include "util/checks.hpp"
#include "util/logging.hpp"

namespace plfoc {
namespace {

constexpr double kTinyLength = 1e-8;

/// Insertion candidates: edges of the component containing the healed edge
/// (u, v) whose endpoint hop distance from {u, v} lies in
/// [radius_min, radius_max]. The healed edge itself (distance 0) is the
/// identity re-insertion and is excluded by radius_min >= 1.
std::vector<std::pair<NodeId, NodeId>> insertion_candidates(
    const Tree& tree, NodeId u, NodeId v, unsigned radius_min,
    unsigned radius_max) {
  std::vector<std::uint32_t> dist(tree.num_nodes(),
                                  std::numeric_limits<std::uint32_t>::max());
  std::queue<NodeId> queue;
  dist[u] = 0;
  dist[v] = 0;
  queue.push(u);
  queue.push(v);
  while (!queue.empty()) {
    const NodeId node = queue.front();
    queue.pop();
    if (dist[node] >= radius_max) continue;
    for (NodeId nbr : tree.neighbors(node))
      if (dist[nbr] > dist[node] + 1) {
        dist[nbr] = dist[node] + 1;
        queue.push(nbr);
      }
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<NodeId> reached;
  // Walk only the reached region for the edge scan.
  for (NodeId node = 0; node < tree.num_nodes(); ++node) {
    if (dist[node] == std::numeric_limits<std::uint32_t>::max()) continue;
    for (NodeId nbr : tree.neighbors(node)) {
      if (node >= nbr) continue;
      if (dist[nbr] == std::numeric_limits<std::uint32_t>::max()) continue;
      const std::uint32_t edge_distance = std::max(dist[node], dist[nbr]);
      if (edge_distance >= radius_min && edge_distance <= radius_max)
        edges.emplace_back(node, nbr);
    }
  }
  return edges;
}

}  // namespace

SprResult spr_search(LikelihoodEngine& engine, const SprOptions& options) {
  PLFOC_CHECK(options.rounds >= 1 && options.prune_stride >= 1);
  PLFOC_CHECK(options.radius_min >= 1 && options.radius_min <= options.radius_max);
  Tree& tree = engine.tree();
  Orientation& orientation = engine.orientation();

  SprResult result;
  double current_ll = engine.log_likelihood();
  result.initial_log_likelihood = current_ll;

  std::vector<TraversalStep> steps;

  for (int round = 0; round < options.rounds; ++round) {
    const std::uint64_t accepted_before = result.moves_accepted;
    for (std::uint32_t idx = 0; idx < tree.num_inner();
         idx += options.prune_stride) {
      const NodeId s = tree.inner_node(idx);
      // Copy: the adjacency of s changes when a move is accepted.
      std::vector<NodeId> directions(tree.neighbors(s).begin(),
                                     tree.neighbors(s).end());
      for (const NodeId r : directions) {
        if (!tree.has_edge(s, r)) continue;  // stale after an accepted move
        ++result.prune_candidates;

        // --- prune: detach {s + clade behind r}, heal u-v ------------------
        NodeId others[2];
        int count = 0;
        for (NodeId nbr : tree.neighbors(s))
          if (nbr != r) others[count++] = nbr;
        PLFOC_CHECK(count == 2);
        const NodeId u = others[0];
        const NodeId v = others[1];
        const double len_su = tree.branch_length(s, u);
        const double len_sv = tree.branch_length(s, v);
        const double len_sr = tree.branch_length(s, r);
        tree.disconnect(s, u);
        tree.disconnect(s, v);
        tree.connect(u, v, len_su + len_sv);
        orientation.invalidate(s);
        invalidate_for_change(tree, orientation, u);

        // Pre-validate the pruned clade's root vector once: the clade is
        // identical before and after the prune.
        if (tree.is_inner(r)) {
          steps.clear();
          plan_subtree(tree, orientation, r, s, /*full=*/false, steps);
          engine.execute(steps);
        }

        const auto candidates = insertion_candidates(
            tree, u, v, options.radius_min, options.radius_max);

        double best_ll = -std::numeric_limits<double>::infinity();
        std::pair<NodeId, NodeId> best_edge{kNoNode, kNoNode};

        for (const auto& [x, y] : candidates) {
          ++result.insertions_tried;
          // --- try: splice s into (x, y) -----------------------------------
          const double len_xy = tree.branch_length(x, y);
          const double half = std::max(len_xy * 0.5, kTinyLength);
          tree.disconnect(x, y);
          tree.connect(s, x, half);
          tree.connect(s, y, half);
          orientation.invalidate(s);
          if (tree.is_inner(x)) orientation.invalidate(x);
          if (tree.is_inner(y)) orientation.invalidate(y);

          // Lazy scoring: only the three branches around the insertion are
          // optimised (Sec. 4.2); optimize_branch returns the tree's log
          // likelihood at its branch, so the last call scores the move.
          engine.optimize_branch(s, x, options.lazy_newton_iterations, false);
          engine.optimize_branch(s, y, options.lazy_newton_iterations, false);
          const double ll =
              engine.optimize_branch(s, r, options.lazy_newton_iterations,
                                     false);
          if (ll > best_ll) {
            best_ll = ll;
            best_edge = {x, y};
          }

          // --- roll back ---------------------------------------------------
          // Only s's vector contains the splice, and x's and y's point at s.
          // Any other vector the trial computed lies behind x or y, holds a
          // subtree of the pruned tree without s, and so stays valid.
          tree.disconnect(s, x);
          tree.disconnect(s, y);
          tree.connect(x, y, len_xy);
          tree.set_branch_length(s, r, len_sr);
          orientation.invalidate(s);
          if (tree.is_inner(x)) orientation.invalidate(x);
          if (tree.is_inner(y)) orientation.invalidate(y);
        }

        // --- undo the prune -----------------------------------------------
        tree.disconnect(u, v);
        tree.connect(s, u, len_su);
        tree.connect(s, v, len_sv);
        invalidate_for_change(tree, orientation, s);

        // --- accept the best insertion if it improves ----------------------
        if (best_edge.first != kNoNode &&
            best_ll > current_ll + options.epsilon) {
          const SprMove move =
              apply_spr(tree, s, r, best_edge.first, best_edge.second);
          invalidate_for_change(tree, orientation, s);
          invalidate_for_change(tree, orientation, move.u);
          engine.optimize_branch(s, best_edge.first,
                                 options.smooth_accepted_iterations);
          engine.optimize_branch(s, best_edge.second,
                                 options.smooth_accepted_iterations);
          current_ll = engine.optimize_branch(
              s, r, options.smooth_accepted_iterations);
          ++result.moves_accepted;
          PLFOC_LOG(kDebug) << "SPR accepted: logL " << current_ll;
          break;  // adjacency of s changed; move to the next prune candidate
        }
      }
    }
    PLFOC_LOG(kInfo) << "SPR round " << (round + 1) << ": logL " << current_ll
                     << ", " << result.moves_accepted << " moves accepted";
    // Converged: a full pass without an accepted move cannot improve further
    // (the scan is deterministic), so later rounds would only repeat it.
    if (result.moves_accepted == accepted_before) break;
  }
  result.final_log_likelihood = current_ll;
  return result;
}

}  // namespace plfoc
