#include "search/search.hpp"

#include "util/logging.hpp"

namespace plfoc {

SearchResult run_search(LikelihoodEngine& engine, const SearchOptions& options) {
  SearchResult result;
  result.starting_log_likelihood = engine.log_likelihood();
  PLFOC_LOG(kInfo) << "search: starting logL " << result.starting_log_likelihood;

  result.after_smoothing = result.starting_log_likelihood;
  if (options.initial_smoothing_passes > 0)
    result.after_smoothing =
        engine.optimize_all_branches(options.initial_smoothing_passes);

  result.after_model_opt = result.after_smoothing;
  if (options.optimize_model)
    result.after_model_opt = optimize_model(engine, options.model);

  result.spr = spr_search(engine, options.spr);

  result.final_log_likelihood = result.spr.final_log_likelihood;
  if (options.final_smoothing_passes > 0)
    result.final_log_likelihood =
        engine.optimize_all_branches(options.final_smoothing_passes);
  PLFOC_LOG(kInfo) << "search: final logL " << result.final_log_likelihood;
  return result;
}

}  // namespace plfoc
