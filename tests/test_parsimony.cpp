#include "search/parsimony.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "model/rate_matrix.hpp"
#include "search/stepwise.hpp"
#include "tree/newick.hpp"
#include "tree/random_tree.hpp"
#include "tree/topology_moves.hpp"
#include "sim/simulate.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

Alignment quartet_alignment() {
  Alignment alignment(DataType::kDna, 4);
  alignment.add_sequence("a", "AAGC");
  alignment.add_sequence("b", "AAGC");
  alignment.add_sequence("c", "AATC");
  alignment.add_sequence("d", "ATTC");
  return alignment;
}

TEST(Parsimony, HandComputedQuartet) {
  // Tree ((a,b),(c,d)).
  // Site 1: A A A A -> 0. Site 2: A A A T -> 1. Site 3: G G T T -> 1.
  // Site 4: C C C C -> 0. Total 2.
  const Tree tree = parse_newick("((a,b),(c,d));");
  EXPECT_EQ(parsimony_score(tree, quartet_alignment()), 2.0);
}

TEST(Parsimony, WorseTopologyScoresHigher) {
  // ((a,c),(b,d)) breaks the G/T split at site 3 into two changes.
  const Tree good = parse_newick("((a,b),(c,d));");
  const Tree bad = parse_newick("((a,c),(b,d));");
  const Alignment alignment = quartet_alignment();
  EXPECT_LT(parsimony_score(good, alignment), parsimony_score(bad, alignment));
}

TEST(Parsimony, ScoreIsRootInvariant) {
  Rng rng(3);
  const Tree tree = random_tree(12, rng);
  Alignment alignment =
      simulate_alignment(tree, jc69(), 50, rng, SimulationOptions{1, 1.0});
  // parsimony_score roots at tip 0 internally; verify against the scorer
  // (which roots at an arbitrary component tip) for the same data.
  ParsimonyScorer scorer(alignment, tree);
  scorer.refresh(tree.inner_node(0));
  EXPECT_EQ(parsimony_score(tree, alignment), scorer.component_score());
}

TEST(Parsimony, AmbiguityCodesAreFree) {
  Alignment alignment(DataType::kDna, 1);
  alignment.add_sequence("a", "R");  // A or G
  alignment.add_sequence("b", "A");
  alignment.add_sequence("c", "G");
  alignment.add_sequence("d", "N");
  const Tree tree = parse_newick("((a,b),(c,d));");
  // R ∩ A = A at the left cherry; G ∩ N = G at the right; A ∩ G = empty ->
  // exactly one change.
  EXPECT_EQ(parsimony_score(tree, alignment), 1.0);
}

TEST(Parsimony, WeightsMultiplyScore) {
  Alignment alignment = quartet_alignment();
  alignment.set_weights({10.0, 1.0, 1.0, 1.0});
  const Tree tree = parse_newick("((a,b),(c,d));");
  EXPECT_EQ(parsimony_score(tree, alignment), 2.0);  // site 1 is constant
  Alignment heavy(DataType::kDna, 4);
  heavy.add_sequence("a", "AAGC");
  heavy.add_sequence("b", "AAGC");
  heavy.add_sequence("c", "AATC");
  heavy.add_sequence("d", "ATTC");
  heavy.set_weights({1.0, 5.0, 2.0, 1.0});
  EXPECT_EQ(parsimony_score(tree, heavy), 5.0 + 2.0);
}

TEST(ParsimonyScorer, InsertionCostUpperBoundsRescoring) {
  Rng rng(7);
  const std::size_t n = 8;
  Tree full = random_tree(n, rng);
  Alignment alignment =
      simulate_alignment(full, jc69(), 40, rng, SimulationOptions{1, 1.0});

  // Build a partial tree missing the last tip, then compare incremental
  // insertion costs with brute-force full-tree rescoring.
  const NodeId tip = static_cast<NodeId>(n - 1);
  // Prune `tip` from the full tree: its inner attachment node s.
  const NodeId s = full.neighbors(tip)[0];
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  for (NodeId nbr : full.neighbors(s))
    if (nbr != tip) (u == kNoNode ? u : v) = nbr;
  full.disconnect(s, tip);
  full.disconnect(s, u);
  full.disconnect(s, v);
  full.connect(u, v, 0.2);

  ParsimonyScorer scorer(alignment, full);
  scorer.refresh(u);
  const double base = scorer.component_score();

  // For every edge of the partial tree: the local cost is an upper bound on
  // the true score increase, never off by much, and exact for most edges.
  std::size_t exact = 0;
  std::size_t total = 0;
  for (const auto& [a, b] : full.edges()) {
    if (a == s || b == s || a == tip || b == tip) continue;
    const double predicted = scorer.insertion_cost(tip, a, b);
    // Actually insert, score, remove.
    const double len = full.branch_length(a, b);
    full.disconnect(a, b);
    full.connect(a, s, 0.1);
    full.connect(s, b, 0.1);
    full.connect(s, tip, 0.1);
    ParsimonyScorer check(alignment, full);
    check.refresh(a);
    const double actual = check.component_score() - base;
    EXPECT_GE(predicted, actual) << "edge " << a << "-" << b;
    EXPECT_LE(predicted, actual + 5.0) << "edge " << a << "-" << b;
    ++total;
    if (predicted == actual) ++exact;
    full.disconnect(a, s);
    full.disconnect(s, b);
    full.disconnect(s, tip);
    full.connect(a, b, len);
  }
  EXPECT_GT(exact * 2, total);  // exact on most edges for this data
}

TEST(Parsimony, NniNeverBeatsOptimalQuartet) {
  // For the quartet data, ((a,b),(c,d)) is the parsimony optimum; both NNI
  // neighbours score worse or equal.
  Tree tree = parse_newick("((a,b),(c,d));");
  const Alignment alignment = quartet_alignment();
  const double best = parsimony_score(tree, alignment);
  const auto [x, y] = tree.default_root_branch();
  for (int variant : {0, 1}) {
    const NniMove move = apply_nni(tree, x, y, variant);
    EXPECT_GE(parsimony_score(tree, alignment), best);
    undo_nni(tree, move);
  }
}

// --- Bit-sliced scorer vs a per-site oracle ----------------------------------

/// Per-taxon per-site state-set masks for the per-site oracle.
std::vector<std::vector<std::uint32_t>> parsimony_masks(
    const Alignment& alignment) {
  std::vector<std::vector<std::uint32_t>> masks(alignment.num_taxa());
  for (std::size_t taxon = 0; taxon < alignment.num_taxa(); ++taxon) {
    const auto codes = alignment.row(taxon);
    masks[taxon].resize(codes.size());
    for (std::size_t s = 0; s < codes.size(); ++s)
      masks[taxon][s] = code_state_mask(alignment.data_type(), codes[s]);
  }
  return masks;
}

/// The per-site Fitch scorer the bit-sliced one replaced: one uint32_t state
/// mask per site, one branch and one double add per mismatching site. Same
/// rooting and visiting order, so its sums are the reference bit patterns.
class PerSiteScorer {
 public:
  PerSiteScorer(const Alignment& alignment, const Tree& tree)
      : tree_(tree), sites_(alignment.num_sites()) {
    const auto masks = parsimony_masks(alignment);
    for (NodeId tip = 0; tip < tree.num_taxa(); ++tip)
      tips_.push_back(masks[static_cast<std::size_t>(
          alignment.find_taxon(tree.taxon_name(tip)))]);
    weights_ = alignment.weights().empty()
                   ? std::vector<double>(sites_, 1.0)
                   : alignment.weights();
    sets_.assign(tree.num_nodes() * 3, {});
  }

  void refresh(NodeId any_node) {
    std::vector<NodeId> queue{any_node};
    std::vector<bool> seen(tree_.num_nodes(), false);
    seen[any_node] = true;
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (NodeId nbr : tree_.neighbors(queue[head]))
        if (!seen[nbr]) {
          seen[nbr] = true;
          queue.push_back(nbr);
        }
    NodeId root = kNoNode;
    for (NodeId node : queue)
      if (tree_.is_tip(node)) {
        root = node;
        break;
      }
    std::vector<NodeId> order{root};
    std::vector<NodeId> parent(tree_.num_nodes(), kNoNode);
    std::fill(seen.begin(), seen.end(), false);
    seen[root] = true;
    for (std::size_t head = 0; head < order.size(); ++head)
      for (NodeId nbr : tree_.neighbors(order[head]))
        if (!seen[nbr]) {
          seen[nbr] = true;
          parent[nbr] = order[head];
          order.push_back(nbr);
        }
    score_ = 0.0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId u = *it;
      if (tree_.is_tip(u)) continue;
      const auto kids = children(u, parent[u]);
      join(set(kids[0], u), set(kids[1], u), at(u, parent[u]), &score_);
    }
    if (tree_.degree(root) == 1) {
      const auto& below = set(tree_.neighbors(root)[0], root);
      for (std::size_t s = 0; s < sites_; ++s)
        if ((below[s] & tips_[root][s]) == 0) score_ += weights_[s];
    }
    for (NodeId u : order) {
      if (tree_.is_tip(u)) continue;
      const auto kids = children(u, parent[u]);
      for (int c = 0; c < 2; ++c)
        join(set(parent[u], u), set(kids[1 - c], u), at(u, kids[c]),
             nullptr);
    }
  }

  double score() const { return score_; }

  double insertion_cost(NodeId tip, NodeId a, NodeId b) const {
    const auto& da = set(a, b);
    const auto& db = set(b, a);
    double cost = 0.0;
    for (std::size_t s = 0; s < sites_; ++s) {
      std::uint32_t x = da[s] & db[s];
      if (x == 0) x = da[s] | db[s];
      if ((x & tips_[tip][s]) == 0) cost += weights_[s];
    }
    return cost;
  }

 private:
  std::array<NodeId, 2> children(NodeId u, NodeId p) const {
    std::array<NodeId, 2> kids{};
    int count = 0;
    for (NodeId nbr : tree_.neighbors(u))
      if (nbr != p) kids[static_cast<std::size_t>(count++)] = nbr;
    return kids;
  }
  std::size_t slot(NodeId node, NodeId towards) const {
    const auto nbrs = tree_.neighbors(node);
    return static_cast<std::size_t>(
        std::find(nbrs.begin(), nbrs.end(), towards) - nbrs.begin());
  }
  std::vector<std::uint32_t>& at(NodeId node, NodeId towards) {
    return sets_[node * 3 + slot(node, towards)];
  }
  const std::vector<std::uint32_t>& set(NodeId node, NodeId towards) const {
    return tree_.is_tip(node) ? tips_[node]
                              : sets_[node * 3 + slot(node, towards)];
  }
  void join(const std::vector<std::uint32_t>& left,
            const std::vector<std::uint32_t>& right,
            std::vector<std::uint32_t>& out, double* score) {
    out.resize(sites_);
    for (std::size_t s = 0; s < sites_; ++s) {
      const std::uint32_t x = left[s] & right[s];
      if (x != 0) {
        out[s] = x;
      } else {
        out[s] = left[s] | right[s];
        if (score != nullptr) *score += weights_[s];
      }
    }
  }

  const Tree& tree_;
  std::size_t sites_;
  std::vector<std::vector<std::uint32_t>> tips_;
  std::vector<double> weights_;
  std::vector<std::vector<std::uint32_t>> sets_;
  double score_ = 0.0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Random rows over `alphabet`, added in reverse tree-tip order so the
/// scorers must bind rows to tips by name.
Alignment random_alignment(const Tree& tree, DataType type,
                           const std::string& alphabet, std::size_t sites,
                           Rng& rng) {
  Alignment alignment(type, sites);
  std::string row(sites, ' ');
  for (NodeId tip = static_cast<NodeId>(tree.num_taxa()); tip-- > 0;) {
    for (char& c : row) c = alphabet[rng.below(alphabet.size())];
    alignment.add_sequence(tree.taxon_name(tip), row);
  }
  return alignment;
}

TEST(Parsimony, BitSlicedMatchesPerSiteOracle) {
  struct Case {
    DataType type;
    std::string alphabet;
  };
  // All 15 DNA codes (gap and '?' are N); protein adds B, Z, J, X and gap.
  const Case cases[] = {
      {DataType::kDna, "ACGTRYSWKMBDHVN-?"},
      {DataType::kProtein, "ARNDCQEGHILKMFPSTWYVBZJX-"}};
  Rng rng(2024);
  std::size_t checked = 0;
  for (const Case& c : cases)
    for (std::size_t sites : {1, 63, 64, 65, 200, 257})
      for (int weighting = 0; weighting < 3; ++weighting) {
        SCOPED_TRACE(std::to_string(num_states(c.type)) + " states, " +
                     std::to_string(sites) + " sites, weighting " +
                     std::to_string(weighting));
        const std::size_t n = 11;
        Tree tree = random_tree(n, rng);
        Alignment alignment =
            random_alignment(tree, c.type, c.alphabet, sites, rng);
        if (weighting > 0) {
          std::vector<double> weights(sites);
          for (double& w : weights)
            w = weighting == 1 ? static_cast<double>(1 + rng.below(5))
                               : rng.uniform(0.01, 3.0);
          alignment.set_weights(weights);
        }
        // The full tree, then the tree with the last tip pruned, as the
        // partial trees of stepwise addition are.
        for (int pruned = 0; pruned < 2; ++pruned) {
          if (pruned == 1) {
            const NodeId tip = static_cast<NodeId>(n - 1);
            const NodeId s = tree.neighbors(tip)[0];
            NodeId u = kNoNode;
            NodeId v = kNoNode;
            for (NodeId nbr : tree.neighbors(s))
              if (nbr != tip) (u == kNoNode ? u : v) = nbr;
            tree.disconnect(s, tip);
            tree.disconnect(s, u);
            tree.disconnect(s, v);
            tree.connect(u, v, 0.1);
          }
          ParsimonyScorer scorer(alignment, tree);
          PerSiteScorer oracle(alignment, tree);
          const NodeId start = tree.inner_node(1);
          scorer.refresh(start);
          oracle.refresh(start);
          EXPECT_TRUE(same_bits(scorer.component_score(), oracle.score()))
              << scorer.component_score() << " vs " << oracle.score();
          for (const auto& [a, b] : tree.edges()) {
            if (tree.degree(a) == 0 || tree.degree(b) == 0) continue;
            for (NodeId tip : {NodeId{0}, static_cast<NodeId>(n - 1)})
              for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
                const double got = scorer.insertion_cost(tip, x, y);
                const double want = oracle.insertion_cost(tip, x, y);
                EXPECT_TRUE(same_bits(got, want))
                    << "edge " << x << "-" << y << ": " << got << " vs "
                    << want;
                ++checked;
              }
          }
          if (pruned == 0) {
            PerSiteScorer from_tip(alignment, tree);
            from_tip.refresh(0);
            EXPECT_TRUE(
                same_bits(parsimony_score(tree, alignment), from_tip.score()));
          }
        }
      }
  EXPECT_GT(checked, 1000u);
}

TEST(ParsimonyScorer, IncrementalInsertMatchesFullRefresh) {
  // A stepwise-style build: refresh once on a 3-taxon star, then report each
  // insertion with insert(). After every one, a scorer refreshed from
  // scratch on the same tree must give the same bits for every edge, in
  // both directions, and several tips.
  struct Case {
    DataType type;
    std::string alphabet;
    std::size_t sites;
  };
  const Case cases[] = {{DataType::kDna, "ACGTRYSWKMBDHVN-?", 1},
                        {DataType::kDna, "ACGTRYSWKMBDHVN-?", 63},
                        {DataType::kDna, "ACGTRYSWKMBDHVN-?", 64},
                        {DataType::kDna, "ACGTRYSWKMBDHVN-?", 65},
                        {DataType::kDna, "ACGT", 200},
                        {DataType::kProtein, "ARNDCQEGHILKMFPSTWYVBZJX-", 257}};
  const std::size_t n = 40;
  Rng rng(77);
  std::size_t checked = 0;
  std::size_t next_to_tip = 0;
  for (const Case& c : cases)
    for (const bool fractional : {false, true}) {
      SCOPED_TRACE(std::to_string(num_states(c.type)) + " states, " +
                   std::to_string(c.sites) + " sites" +
                   (fractional ? ", fractional weights" : ""));
      std::vector<std::string> names;
      for (std::size_t i = 0; i < n; ++i)
        names.push_back("t" + std::to_string(i));
      Tree tree(names);
      Alignment alignment =
          random_alignment(tree, c.type, c.alphabet, c.sites, rng);
      if (fractional) {
        std::vector<double> weights(c.sites);
        for (double& w : weights) w = rng.uniform(0.01, 3.0);
        alignment.set_weights(weights);
      }
      std::vector<NodeId> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
      for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
      const NodeId hub = tree.inner_node(0);
      for (std::size_t k = 0; k < 3; ++k) tree.connect(order[k], hub, 0.1);
      ParsimonyScorer scorer(alignment, tree);
      scorer.refresh(hub);

      for (std::size_t k = 3; k < n; ++k) {
        // Every other insertion goes onto an edge next to a tip.
        auto edges = tree.edges();
        if (k % 2 == 0)
          edges.erase(std::remove_if(edges.begin(), edges.end(),
                                     [&](const auto& edge) {
                                       return !tree.is_tip(edge.first) &&
                                              !tree.is_tip(edge.second);
                                     }),
                      edges.end());
        const auto [a, b] = edges[rng.below(edges.size())];
        if (tree.is_tip(a) || tree.is_tip(b)) ++next_to_tip;
        const NodeId tip = order[k];
        const NodeId fresh = tree.inner_node(static_cast<std::uint32_t>(k) - 2);
        tree.disconnect(a, b);
        tree.connect(a, fresh, 0.1);
        tree.connect(fresh, b, 0.1);
        tree.connect(tip, fresh, 0.1);
        scorer.insert(tip, a, b, fresh);

        ParsimonyScorer full(alignment, tree);
        full.refresh(hub);
        std::vector<NodeId> probes{tip, order[0]};
        for (std::size_t j = k + 1; j < std::min(n, k + 4); ++j)
          probes.push_back(order[j]);
        for (const auto& [x, y] : tree.edges())
          for (const NodeId probe : probes)
            for (const auto& [u, v] : {std::pair{x, y}, std::pair{y, x}}) {
              const double got = scorer.insertion_cost(probe, u, v);
              const double want = full.insertion_cost(probe, u, v);
              EXPECT_TRUE(same_bits(got, want))
                  << "after inserting " << tip << " on " << a << "-" << b
                  << ": edge " << u << "-" << v << ", tip " << probe << ": "
                  << got << " vs " << want;
              ++checked;
            }
      }
    }
  EXPECT_GT(checked, 100000u);
  EXPECT_GT(next_to_tip, 200u);
}

TEST(Parsimony, StepwiseAdditionTreesArePinned) {
  // Start trees recorded before the scorer was bit-sliced: the same data and
  // seed must keep giving the same tree, branch lengths included.
  Rng rng(31);
  const Tree dna_truth = random_tree(384, rng);
  const Alignment dna = simulate_alignment(dna_truth, jc69(), 210, rng,
                                           SimulationOptions{4, 0.6});
  Rng dna_rng(5);
  const std::string dna_newick =
      to_newick(stepwise_addition_tree(dna, dna_rng), 17);
  EXPECT_EQ(dna_newick.size(), 18818u);
  EXPECT_EQ(checksum64(0, dna_newick.data(), dna_newick.size()),
            11584051227602664423ull);

  const Tree aa_truth = random_tree(8, rng);
  const Alignment protein = simulate_alignment(
      aa_truth, poisson_protein(), 256, rng, SimulationOptions{4, 0.6});
  Rng aa_rng(6);
  EXPECT_EQ(to_newick(stepwise_addition_tree(protein, aa_rng), 17),
            "(t3:0.0059837351857203597,t2:0.0039228515016794096,((t4:0."
            "062976482811466145,t0:0.12956278953015585):0.062976482811466145,"
            "((t5:0.024500677932840612,(t1:0.0026290826097431423,t7:0."
            "034761898410966038):0.0026290826097431423):0.0026290826097431423,"
            "t6:0.0017235106471492601):0.0026290826097431423):0."
            "010516330438972569);");
}

}  // namespace
}  // namespace plfoc
