#include "search/parsimony.hpp"

#include <algorithm>
#include <bit>

#include "util/checks.hpp"

namespace plfoc {

double parsimony_score(const Tree& tree, const Alignment& alignment) {
  PLFOC_CHECK(tree.is_fully_connected());
  ParsimonyScorer scorer(alignment, tree);
  scorer.refresh(0);
  return scorer.component_score();
}

// --- ParsimonyScorer ---------------------------------------------------------

ParsimonyScorer::ParsimonyScorer(const Alignment& alignment, const Tree& tree)
    : tree_(tree),
      states_(num_states(alignment.data_type())),
      words_((alignment.num_sites() + 63) / 64),
      set_words_(states_ * words_),
      last_word_mask_(alignment.num_sites() % 64 == 0
                          ? ~Word{0}
                          : (Word{1} << (alignment.num_sites() % 64)) - 1) {
  // Bind alignment rows to tree tips by name and slice their state masks,
  // setting only the bits each site's mask holds.
  tip_sets_.assign(tree.num_taxa() * set_words_, 0);
  for (NodeId tip = 0; tip < tree.num_taxa(); ++tip) {
    const long row = alignment.find_taxon(tree.taxon_name(tip));
    PLFOC_REQUIRE(row >= 0, "tree taxon '" + tree.taxon_name(tip) +
                                "' not found in the alignment");
    const auto codes = alignment.row(static_cast<std::size_t>(row));
    Word* set = tip_sets_.data() + tip * set_words_;
    for (std::size_t s = 0; s < codes.size(); ++s) {
      const Word bit = Word{1} << (s % 64);
      for (std::uint32_t mask = code_state_mask(alignment.data_type(),
                                                codes[s]);
           mask != 0; mask &= mask - 1)
        set[static_cast<std::size_t>(std::countr_zero(mask)) * words_ +
            s / 64] |= bit;
    }
  }
  const auto& weights = alignment.weights();
  if (std::any_of(weights.begin(), weights.end(),
                  [](double w) { return w != 1.0; }))
    weights_ = weights;
  sets_.assign(tree.num_inner() * 3 * set_words_, 0);
  set_valid_.assign(tree.num_inner() * 3, 0);
  parent_of_.assign(tree.num_nodes(), kNoNode);
  seen_.assign(tree.num_nodes(), 0);
}

std::size_t ParsimonyScorer::set_offset(NodeId inner, int slot) const {
  PLFOC_DCHECK(tree_.is_inner(inner) && slot >= 0 && slot < 3);
  return (static_cast<std::size_t>(tree_.inner_index(inner)) * 3 +
          static_cast<std::size_t>(slot)) *
         set_words_;
}

int ParsimonyScorer::neighbor_slot(NodeId node, NodeId neighbor) const {
  const auto nbrs = tree_.neighbors(node);
  for (int i = 0; i < static_cast<int>(nbrs.size()); ++i)
    if (nbrs[static_cast<std::size_t>(i)] == neighbor) return i;
  PLFOC_CHECK(false);
  return -1;
}

const ParsimonyScorer::Word* ParsimonyScorer::directional(
    NodeId node, NodeId towards) const {
  if (tree_.is_tip(node)) return tip_sets_.data() + node * set_words_;
  const int slot = neighbor_slot(node, towards);
  PLFOC_CHECK(set_valid_[static_cast<std::size_t>(tree_.inner_index(node)) * 3 +
                         static_cast<std::size_t>(slot)] != 0);
  return sets_.data() + set_offset(node, slot);
}

void ParsimonyScorer::add_misses(std::size_t word, Word misses,
                                 double& sum) const {
  if (weights_.empty()) {
    // Whole numbers below 2^53 add exactly, so one add of the count equals
    // one add of 1.0 per site.
    sum += static_cast<double>(std::popcount(misses));
    return;
  }
  for (; misses != 0; misses &= misses - 1)
    sum += weights_[word * 64 +
                    static_cast<std::size_t>(std::countr_zero(misses))];
}

ParsimonyScorer::Word ParsimonyScorer::meets(const Word* a, const Word* b,
                                              std::size_t word) const {
  Word any = 0;
  for (std::size_t k = 0; k < states_; ++k)
    any |= a[k * words_ + word] & b[k * words_ + word];
  return any;
}

void ParsimonyScorer::fitch_step(const Word* left, const Word* right,
                                 Word* out, double* score) const {
  for (std::size_t w = 0; w < words_; ++w) {
    const Word empty = ~meets(left, right, w) & valid_bits(w);
    for (std::size_t k = 0; k < states_; ++k) {
      const Word l = left[k * words_ + w];
      const Word r = right[k * words_ + w];
      out[k * words_ + w] = (l & r) | (empty & (l | r));
    }
    if (score != nullptr) add_misses(w, empty, *score);
  }
}

void ParsimonyScorer::refresh(NodeId any_node) {
  // Root at the component's first tip in breadth-first order from
  // `any_node`, then order the component breadth-first from that tip.
  NodeId root_tip = tree_.is_tip(any_node) ? any_node : kNoNode;
  order_.assign(1, any_node);
  seen_[any_node] = 1;
  for (std::size_t head = 0; root_tip == kNoNode && head < order_.size();) {
    for (NodeId nbr : tree_.neighbors(order_[head++]))
      if (seen_[nbr] == 0) {
        seen_[nbr] = 1;
        order_.push_back(nbr);
        if (tree_.is_tip(nbr)) {
          root_tip = nbr;
          break;
        }
      }
  }
  PLFOC_CHECK(root_tip != kNoNode);
  for (NodeId node : order_) seen_[node] = 0;
  order_.assign(1, root_tip);
  seen_[root_tip] = 1;
  parent_of_[root_tip] = kNoNode;
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId node = order_[head];
    for (NodeId nbr : tree_.neighbors(node))
      if (seen_[nbr] == 0) {
        seen_[nbr] = 1;
        parent_of_[nbr] = node;
        order_.push_back(nbr);
      }
  }
  for (NodeId node : order_) seen_[node] = 0;
  std::fill(set_valid_.begin(), set_valid_.end(), 0);
  component_score_ = 0.0;

  // Upward pass (children before parents): D(u -> parent).
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const NodeId u = *it;
    if (tree_.is_tip(u)) continue;
    const NodeId p = parent_of_[u];
    PLFOC_CHECK(p != kNoNode);
    NodeId children[2];
    int count = 0;
    for (NodeId nbr : tree_.neighbors(u))
      if (nbr != p) children[count++] = nbr;
    PLFOC_CHECK(count == 2);
    const int slot = neighbor_slot(u, p);
    fitch_step(directional(children[0], u), directional(children[1], u),
               sets_.data() + set_offset(u, slot), &component_score_);
    set_valid_[static_cast<std::size_t>(tree_.inner_index(u)) * 3 +
               static_cast<std::size_t>(slot)] = 1;
  }
  // Root-tip junction cost.
  if (tree_.degree(root_tip) == 1) {
    const Word* set = directional(tree_.neighbors(root_tip)[0], root_tip);
    const Word* mask = tip_sets_.data() + root_tip * set_words_;
    for (std::size_t w = 0; w < words_; ++w)
      add_misses(w, ~meets(set, mask, w) & valid_bits(w), component_score_);
  }

  // Downward pass (parents before children): D(u -> child).
  for (NodeId u : order_) {
    if (tree_.is_tip(u)) continue;
    const NodeId p = parent_of_[u];
    NodeId children[2];
    int count = 0;
    for (NodeId nbr : tree_.neighbors(u))
      if (nbr != p) children[count++] = nbr;
    PLFOC_CHECK(count == 2);
    for (int c = 0; c < 2; ++c) {
      const int slot = neighbor_slot(u, children[c]);
      fitch_step(directional(p, u), directional(children[1 - c], u),
                 sets_.data() + set_offset(u, slot), nullptr);
      set_valid_[static_cast<std::size_t>(tree_.inner_index(u)) * 3 +
                 static_cast<std::size_t>(slot)] = 1;
    }
  }
}

double ParsimonyScorer::insertion_cost(NodeId tip, NodeId a, NodeId b) const {
  PLFOC_CHECK(tree_.is_tip(tip));
  const Word* da = directional(a, b);
  const Word* db = directional(b, a);
  const Word* t = tip_sets_.data() + tip * set_words_;
  double cost = 0.0;
  for (std::size_t w = 0; w < words_; ++w) {
    const Word empty = ~meets(da, db, w);
    Word hit = 0;
    for (std::size_t k = 0; k < states_; ++k) {
      const Word l = da[k * words_ + w];
      const Word r = db[k * words_ + w];
      hit |= ((l & r) | (empty & (l | r))) & t[k * words_ + w];
    }
    add_misses(w, ~hit & valid_bits(w), cost);
  }
  return cost;
}

}  // namespace plfoc
