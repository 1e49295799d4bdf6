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
  neighbor_.assign(tree.num_inner() * 3, kNoNode);
  sets_.assign(tree.num_inner() * 3 * set_words_, 0);
  parent_of_.assign(tree.num_nodes(), kNoNode);
  seen_.assign(tree.num_nodes(), 0);
  scratch_.assign(set_words_, 0);
}

std::size_t ParsimonyScorer::slot(NodeId inner, NodeId neighbor) const {
  const std::size_t first = std::size_t{tree_.inner_index(inner)} * 3;
  for (std::size_t k = first; k < first + 3; ++k)
    if (neighbor_[k] == neighbor) return k;
  PLFOC_CHECK(false);
  return 0;
}

const ParsimonyScorer::Word* ParsimonyScorer::directional(
    NodeId node, NodeId towards) const {
  if (tree_.is_tip(node)) return tip_sets_.data() + node * set_words_;
  return sets_.data() + slot(node, towards) * set_words_;
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
  std::fill(neighbor_.begin(), neighbor_.end(), kNoNode);
  for (NodeId node : order_)
    if (tree_.is_inner(node)) {
      const auto nbrs = tree_.neighbors(node);
      PLFOC_CHECK(nbrs.size() == 3);
      std::copy(nbrs.begin(), nbrs.end(),
                neighbor_.begin() +
                    static_cast<std::ptrdiff_t>(tree_.inner_index(node)) * 3);
    }
  component_score_ = 0.0;

  // Upward pass (children before parents): D(u -> parent).
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const NodeId u = *it;
    if (tree_.is_tip(u)) continue;
    const std::size_t up = slot(u, parent_of_[u]);
    const NodeId left = neighbor_[turn(up, 1)];
    const NodeId right = neighbor_[turn(up, 2)];
    fitch_step(directional(left, u), directional(right, u), set_at(up),
               &component_score_);
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
    const std::size_t up = slot(u, parent_of_[u]);
    for (std::size_t k = 1; k <= 2; ++k)
      fitch_step(directional(parent_of_[u], u),
                 directional(neighbor_[turn(up, 3 - k)], u),
                 set_at(turn(up, k)), nullptr);
  }
}

void ParsimonyScorer::insert(NodeId tip, NodeId a, NodeId b, NodeId fresh) {
  PLFOC_CHECK(tree_.is_tip(tip) && tree_.is_inner(fresh));
  PLFOC_DCHECK(tree_.has_edge(a, fresh) && tree_.has_edge(fresh, b) &&
               tree_.has_edge(tip, fresh));
  // D(a -> fresh) is the old D(a -> b), and D(b -> fresh) the old D(b -> a).
  if (tree_.is_inner(a)) neighbor_[slot(a, b)] = fresh;
  if (tree_.is_inner(b)) neighbor_[slot(b, a)] = fresh;
  const std::size_t first = std::size_t{tree_.inner_index(fresh)} * 3;
  neighbor_[first] = a;
  neighbor_[first + 1] = b;
  neighbor_[first + 2] = tip;
  const Word* da = directional(a, fresh);
  const Word* db = directional(b, fresh);
  const Word* t = tip_sets_.data() + tip * set_words_;
  fitch_step(db, t, set_at(first), nullptr);
  fitch_step(da, t, set_at(first + 1), nullptr);
  fitch_step(da, db, set_at(first + 2), nullptr);

  // a's other sets were joined from the old D(b -> a), which is now
  // D(fresh -> a); they change only if that set did. Likewise for b. Past
  // that, D(v -> w) changed makes w's sets away from v candidates.
  const auto same = [this](const Word* x, const Word* y) {
    return std::equal(x, x + set_words_, y);
  };
  changed_.clear();
  if (!same(set_at(first), db)) changed_.emplace_back(fresh, a);
  if (!same(set_at(first + 1), da)) changed_.emplace_back(fresh, b);
  while (!changed_.empty()) {
    const auto [from, node] = changed_.back();
    changed_.pop_back();
    if (tree_.is_tip(node)) continue;
    const std::size_t in = slot(node, from);
    for (std::size_t k = 1; k <= 2; ++k) {
      const std::size_t out = turn(in, k);
      fitch_step(directional(from, node),
                 directional(neighbor_[turn(in, 3 - k)], node),
                 scratch_.data(), nullptr);
      if (same(scratch_.data(), set_at(out))) continue;
      std::copy(scratch_.begin(), scratch_.end(), set_at(out));
      changed_.emplace_back(node, neighbor_[out]);
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
