// Fitch parsimony on bit-sliced state sets.
//
// Used to build reasonable starting trees by stepwise addition (RAxML seeds
// its ML searches with randomised parsimony trees). Works on any data type:
// a site's state set is the encode-time ambiguity mask (DNA) or the
// code_state_mask (protein).
//
// A state set over all sites is stored as one bit-slice per state (4 for DNA,
// 20 for protein). Slice k holds ceil(sites / 64) words; bit s of it says
// state k is in site s's set, and the bits past the last site stay 0. One
// Fitch step then treats 64 sites per word: with a_k = l_k & r_k,
// empty = ~OR_k(a_k) marks the sites whose sets are disjoint, and
// out_k = a_k | (empty & (l_k | r_k)). Unit weights count empty with a
// popcount; other weights add weights[s] over the set bits of empty in
// ascending site order, so every score is the per-site loop's double sum,
// operand for operand.
//
// Stepwise addition refreshes the scorer once, on its 3-taxon star, and then
// reports each insertion with `insert`. An insertion can change only the
// sets whose subtree gains the new tip, and few of those do: over a build of
// 384 taxa x 200 DNA sites, 2.6 % of the sets held after each insertion
// change, and 3.4 % are recomputed. `insert` recomputes outward from the new
// node and stops in a direction at the first set that comes out unchanged:
// every set past it is a function of that set and of sets the insertion
// cannot reach. The sets depend on topology only and the Fitch join is
// symmetric, so they are bit for bit the sets a full refresh computes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "msa/alignment.hpp"
#include "tree/tree.hpp"

namespace plfoc {

/// Total (weighted) Fitch parsimony score of a fully connected tree. The
/// alignment binds to tree tips by taxon name.
double parsimony_score(const Tree& tree, const Alignment& alignment);

/// Directional Fitch sets and incremental insertion scoring over a partial
/// (or full) tree — the workhorse of stepwise addition.
class ParsimonyScorer {
 public:
  ParsimonyScorer(const Alignment& alignment, const Tree& tree);

  /// Recompute all directional sets for the current connected component that
  /// contains `any_node` (O(component * sites)), and the component's score.
  /// Needed once for a component; after that, `insert` keeps the sets
  /// current as tips are added. Any other topology change needs a refresh.
  void refresh(NodeId any_node);

  /// Bring the sets up to date after the tree's edge (a, b) became the path
  /// a - fresh - b and `tip` was attached to the new inner node `fresh`.
  /// Recomputes only the sets the insertion changed. Does not update
  /// component_score().
  void insert(NodeId tip, NodeId a, NodeId b, NodeId fresh);

  /// (Weighted) score of the component, as of the last refresh.
  double component_score() const { return component_score_; }

  /// Local estimate of the additional mutations incurred by attaching `tip`
  /// onto edge (a, b) of the refreshed component, from the two directional
  /// sets meeting at that edge. O(sites). This is the standard stepwise-
  /// addition scoring heuristic: an *upper bound* on the true score increase
  /// (exact when the insertion junction is taken as the Fitch root; rescoring
  /// from scratch can be cheaper because downstream set unions absorb part of
  /// the cost).
  double insertion_cost(NodeId tip, NodeId a, NodeId b) const;

 private:
  using Word = std::uint64_t;

  /// Fitch set of the subtree on `node`'s side of edge (node, towards).
  const Word* directional(NodeId node, NodeId towards) const;
  /// The slot of `inner`'s set towards `neighbor` in the scorer's own
  /// neighbour table.
  std::size_t slot(NodeId inner, NodeId neighbor) const;
  Word* set_at(std::size_t slot) { return sets_.data() + slot * set_words_; }
  /// The slot `k` places after `slot` among the same node's three.
  static std::size_t turn(std::size_t slot, std::size_t k) {
    return slot - slot % 3 + (slot + k) % 3;
  }
  /// Word `word` of OR_k(a_k & b_k): the sites where sets a and b meet.
  Word meets(const Word* a, const Word* b, std::size_t word) const;
  /// out = the Fitch set joining `left` and `right`. Adds the weight of each
  /// site where they are disjoint to `score` unless it is null.
  void fitch_step(const Word* left, const Word* right, Word* out,
                  double* score) const;
  /// Adds the weight of every site that is set in `misses`, word `word` of a
  /// slice, to `sum`.
  void add_misses(std::size_t word, Word misses, double& sum) const;
  /// Word `word` of a slice with the bits past the last site cleared.
  Word valid_bits(std::size_t word) const {
    return word + 1 == words_ ? last_word_mask_ : ~Word{0};
  }

  const Tree& tree_;
  std::size_t states_;
  std::size_t words_;      ///< words per slice: ceil(sites / 64)
  std::size_t set_words_;  ///< states_ * words_
  Word last_word_mask_;
  std::vector<Word> tip_sets_;   ///< one set per tree tip
  std::vector<double> weights_;  ///< empty for unit weights
  // Directional sets keyed by slot: inner_index * 3 + k holds the set of
  // the inner node towards neighbor_[inner_index * 3 + k]. The scorer keeps
  // its own neighbour table because Tree::disconnect reorders a node's
  // neighbours; kNoNode marks a slot with no valid set.
  std::vector<NodeId> neighbor_;
  std::vector<Word> sets_;
  double component_score_ = 0.0;
  // Breadth-first work arrays, kept across refreshes.
  std::vector<NodeId> order_;
  std::vector<NodeId> parent_of_;
  std::vector<std::uint8_t> seen_;
  // insert's work: directed edges (from, to) whose set D(from -> to)
  // changed, and one set to recompute into.
  std::vector<std::pair<NodeId, NodeId>> changed_;
  std::vector<Word> scratch_;
};

}  // namespace plfoc
