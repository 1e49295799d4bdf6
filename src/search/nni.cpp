#include "search/nni.hpp"

#include <limits>

#include "tree/topology_moves.hpp"
#include "util/checks.hpp"
#include "util/logging.hpp"

namespace plfoc {

NniResult nni_search(LikelihoodEngine& engine, const NniOptions& options) {
  PLFOC_CHECK(options.max_rounds >= 1);
  Tree& tree = engine.tree();
  Orientation& orientation = engine.orientation();

  NniResult result;
  double current_ll = engine.log_likelihood();
  result.initial_log_likelihood = current_ll;

  // Best-improvement steepest ascent: each round trials both variants of
  // every inner edge from the same tree state and applies only the single
  // best move. Greedier first-improvement variants are cheaper per round but
  // drift into worse local optima (they take the first uphill step even when
  // the reversal of a recent perturbation offers a far larger gain).
  for (int round = 0; round < options.max_rounds; ++round) {
    ++result.rounds_run;

    double best_ll = current_ll;
    NniMove best_move{};
    bool have_best = false;

    std::vector<std::pair<NodeId, NodeId>> inner_edges;
    for (const auto& [a, b] : tree.edges())
      if (tree.is_inner(a) && tree.is_inner(b)) inner_edges.emplace_back(a, b);

    for (const auto& [a, b] : inner_edges) {
      const double len_ab = tree.branch_length(a, b);
      for (int variant = 0; variant < 2; ++variant) {
        ++result.variants_tried;
        const NniMove move = apply_nni(tree, a, b, variant);
        orientation.invalidate(a);
        orientation.invalidate(b);
        // Polish the central branch (the only length an NNI perturbs
        // first-order) and score.
        const double ll =
            engine.optimize_branch(a, b, options.newton_iterations, false);
        if (ll > best_ll) {
          best_ll = ll;
          best_move = move;  // the *physical* move; variant ids go stale
          have_best = true;
        }
        // Roll back. Only a's and b's vectors summarise a changed subtree;
        // any other the trial computed lies inside one of the four clades,
        // which moved whole, so it stays valid. A moved clade root may stay
        // oriented towards its old neighbour across the edge (harmless: only
        // this edge's interchanges reconnect them, with the same clade).
        undo_nni(tree, move);
        tree.set_branch_length(a, b, len_ab);
        orientation.invalidate(a);
        orientation.invalidate(b);
      }
    }

    if (!have_best || best_ll <= current_ll + options.epsilon) break;
    redo_nni(tree, best_move);
    engine.invalidate_topology_change(best_move.a);
    engine.invalidate_topology_change(best_move.b);
    current_ll = engine.optimize_branch(best_move.a, best_move.b,
                                        2 * options.newton_iterations);
    ++result.moves_accepted;
    PLFOC_LOG(kInfo) << "NNI round " << (round + 1) << ": logL " << current_ll;
  }
  result.final_log_likelihood = current_ll;
  return result;
}

}  // namespace plfoc
