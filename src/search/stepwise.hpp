// Starting trees by randomised stepwise addition.
//
// RAxML seeds ML searches with randomised-addition parsimony trees; the
// miss-rate experiments run a tree search from such a "fixed starting tree"
// (Sec. 4.1). Taxa are inserted in a random order; each insertion either
// greedily minimises the Fitch parsimony increase over a sampled set of
// candidate edges, or picks a uniformly random edge.
#pragma once

#include "msa/alignment.hpp"
#include "tree/tree.hpp"
#include "util/rng.hpp"

namespace plfoc {

struct StepwiseOptions {
  /// Guide insertions with parsimony (true) or insert uniformly at random.
  bool use_parsimony = true;
  /// Candidate edges scored per insertion, O(sites) each; 0 = all edges,
  /// O(n² · sites) over the build, only for small trees. Sampling keeps the
  /// scoring of large builds linear in n while preserving tree quality (the
  /// best of k random edges). Keeping the Fitch sets current is separate:
  /// an insertion recomputes only the sets it changed.
  std::size_t max_candidates = 64;
  double mean_branch_length = 0.1;
  double min_branch_length = 1e-6;
};

/// Build an unrooted binary tree over all alignment taxa by stepwise
/// addition. Deterministic for a given RNG state.
Tree stepwise_addition_tree(const Alignment& alignment, Rng& rng,
                            const StepwiseOptions& options = {});

}  // namespace plfoc
