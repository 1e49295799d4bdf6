// High-level search orchestration: initial branch smoothing, model parameter
// optimisation, lazy-SPR rounds, final smoothing — the workload whose
// ancestral-vector access pattern the paper measures.
#pragma once

#include "likelihood/model_opt.hpp"
#include "search/spr.hpp"

namespace plfoc {

struct SearchOptions {
  int initial_smoothing_passes = 1;
  bool optimize_model = true;
  ModelOptOptions model;
  SprOptions spr;
  int final_smoothing_passes = 1;
};

struct SearchResult {
  double starting_log_likelihood = 0.0;
  double after_smoothing = 0.0;
  double after_model_opt = 0.0;
  SprResult spr;
  double final_log_likelihood = 0.0;
};

/// Run the full search loop on an engine (tree modified in place).
/// Deterministic for a fixed starting tree and configuration — the paper's
/// correctness criterion is that this yields bit-identical log likelihoods
/// regardless of the storage backend and replacement strategy.
SearchResult run_search(LikelihoodEngine& engine,
                        const SearchOptions& options = {});

}  // namespace plfoc
