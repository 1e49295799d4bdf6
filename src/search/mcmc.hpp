// Bayesian MCMC over trees — the paper's other workload class.
//
// Sec. 1/5: "The concepts developed here can be applied to all PLF-based
// programs (ML and Bayesian)". This module provides a compact
// Metropolis-Hastings sampler (exponential prior on branch lengths, uniform
// prior over topologies; multiplier proposals on branch lengths, NNI
// proposals on topology) whose ancestral-vector access pattern is the
// Bayesian counterpart of the lazy-SPR search: a branch-length proposal
// touches exactly the two vectors at the branch ends, an NNI proposal a
// small neighbourhood — ideal locality for the out-of-core layer.
#pragma once

#include <cstdint>
#include <vector>

#include "likelihood/engine.hpp"
#include "util/rng.hpp"

namespace plfoc {

struct McmcOptions {
  std::uint64_t iterations = 2000;
  /// Probability that a proposal is an NNI topology move (otherwise a
  /// branch-length multiplier move).
  double nni_probability = 0.2;
  /// Multiplier proposal window: t' = t * exp(lambda * (u - 1/2)).
  double multiplier_lambda = 1.0;
  /// Mean of the exponential branch-length prior.
  double branch_prior_mean = 0.1;
  /// Record the log posterior every `sample_every` iterations (0 = never).
  std::uint64_t sample_every = 20;
};

struct McmcResult {
  std::uint64_t branch_proposals = 0;
  std::uint64_t branch_accepts = 0;
  std::uint64_t nni_proposals = 0;
  std::uint64_t nni_accepts = 0;
  double initial_log_posterior = 0.0;
  double final_log_posterior = 0.0;
  double best_log_posterior = 0.0;
  std::vector<double> trace;  ///< sampled log posteriors

  double branch_acceptance() const {
    return branch_proposals == 0
               ? 0.0
               : static_cast<double>(branch_accepts) / static_cast<double>(branch_proposals);
  }
  double nni_acceptance() const {
    return nni_proposals == 0
               ? 0.0
               : static_cast<double>(nni_accepts) / static_cast<double>(nni_proposals);
  }
};

/// Log of the joint prior: sum of exponential log densities over branches.
double log_branch_prior(const Tree& tree, double prior_mean);

/// Run the chain in place on the engine's tree. Deterministic for a given
/// RNG state; the resulting chain (every proposal, acceptance and sample) is
/// bit-identical across storage backends.
McmcResult run_mcmc(LikelihoodEngine& engine, Rng& rng,
                    const McmcOptions& options = {});

}  // namespace plfoc
