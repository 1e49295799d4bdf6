#include "search/mcmc.hpp"

#include <algorithm>
#include <cmath>

#include "tree/topology_moves.hpp"
#include "util/checks.hpp"
#include "util/logging.hpp"

namespace plfoc {

double log_branch_prior(const Tree& tree, double prior_mean) {
  PLFOC_CHECK(prior_mean > 0.0);
  const double rate = 1.0 / prior_mean;
  double total = 0.0;
  for (const auto& [a, b] : tree.edges())
    total += std::log(rate) - rate * tree.branch_length(a, b);
  return total;
}

namespace {

/// Exponential log-density difference for one branch changing t -> t_new.
double branch_prior_delta(double t_new, double t_old, double prior_mean) {
  return -(t_new - t_old) / prior_mean;
}

}  // namespace

McmcResult run_mcmc(LikelihoodEngine& engine, Rng& rng,
                    const McmcOptions& options) {
  PLFOC_CHECK(options.iterations >= 1);
  PLFOC_CHECK(options.nni_probability >= 0.0 && options.nni_probability <= 1.0);
  Tree& tree = engine.tree();

  // Edge list for uniform branch proposals; NNI proposals need inner-inner
  // edges. Both are refreshed after accepted topology changes.
  std::vector<std::pair<NodeId, NodeId>> edges = tree.edges();
  std::vector<std::pair<NodeId, NodeId>> inner_edges;
  const auto refresh_inner = [&] {
    inner_edges.clear();
    for (const auto& [a, b] : edges)
      if (tree.is_inner(a) && tree.is_inner(b)) inner_edges.emplace_back(a, b);
  };
  refresh_inner();

  McmcResult result;
  double log_likelihood = engine.log_likelihood();
  double log_posterior =
      log_likelihood + log_branch_prior(tree, options.branch_prior_mean);
  result.initial_log_posterior = log_posterior;
  result.best_log_posterior = log_posterior;

  for (std::uint64_t iteration = 0; iteration < options.iterations;
       ++iteration) {
    const bool do_nni =
        !inner_edges.empty() && rng.uniform() < options.nni_probability;
    if (!do_nni) {
      // --- branch-length multiplier move --------------------------------
      ++result.branch_proposals;
      const auto [a, b] = edges[rng.below(edges.size())];
      const double t_old = tree.branch_length(a, b);
      const double factor =
          std::exp(options.multiplier_lambda * (rng.uniform() - 0.5));
      const double t_new =
          std::clamp(t_old * factor, kMinBranchLength, kMaxBranchLength);

      tree.set_branch_length(a, b, t_new);
      // The endpoint vectors do not depend on the branch between them, so
      // this evaluation touches exactly two vectors (the Bayesian locality
      // the paper's out-of-core design exploits).
      const double ll_new = engine.log_likelihood(a, b);
      const double log_ratio =
          (ll_new - log_likelihood) +
          branch_prior_delta(t_new, t_old, options.branch_prior_mean) +
          std::log(t_new / t_old);  // multiplier-proposal Hastings term
      if (std::log(rng.uniform() + 1e-300) < log_ratio) {
        ++result.branch_accepts;
        log_likelihood = ll_new;
        log_posterior =
            ll_new + log_branch_prior(tree, options.branch_prior_mean);
        engine.invalidate_length_change(a, b);
      } else {
        tree.set_branch_length(a, b, t_old);
        // Nothing to invalidate: no vector conditioned on this branch was
        // recomputed during the evaluation.
      }
    } else {
      // --- NNI topology move ---------------------------------------------
      ++result.nni_proposals;
      const auto [a, b] = inner_edges[rng.below(inner_edges.size())];
      const int variant = static_cast<int>(rng.below(2));
      const NniMove move = apply_nni(tree, a, b, variant);
      engine.invalidate_topology_change(a);
      engine.invalidate_topology_change(b);
      const double ll_new = engine.log_likelihood(a, b);
      const double log_ratio = ll_new - log_likelihood;  // symmetric proposal
      if (std::log(rng.uniform() + 1e-300) < log_ratio) {
        ++result.nni_accepts;
        log_likelihood = ll_new;
        log_posterior =
            ll_new + log_branch_prior(tree, options.branch_prior_mean);
        edges = tree.edges();
        refresh_inner();
      } else {
        undo_nni(tree, move);
        engine.invalidate_topology_change(a);
        engine.invalidate_topology_change(b);
      }
    }

    result.best_log_posterior =
        std::max(result.best_log_posterior, log_posterior);
    if (options.sample_every != 0 &&
        (iteration + 1) % options.sample_every == 0)
      result.trace.push_back(log_posterior);
  }
  result.final_log_posterior = log_posterior;
  PLFOC_LOG(kInfo) << "mcmc: " << options.iterations << " iterations, "
                   << result.branch_accepts << "/" << result.branch_proposals
                   << " branch, " << result.nni_accepts << "/"
                   << result.nni_proposals << " NNI accepts";
  return result;
}

}  // namespace plfoc
