#include "tree/phylo2vec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/checks.hpp"
#include "util/hash.hpp"

namespace plfoc {
namespace {

// Seed for the taxon-set digest; an arbitrary constant that keeps the
// digest domain-separated from the vector-file checksum streams.
constexpr std::uint64_t kTaxaDigestSeed = 0x5048594c4f325641ull;

/// Sorted taxon names + the tip-id <-> rank maps for one tree. Canonical
/// leaf label = rank of the taxon name in sorted order.
struct LeafRanks {
  std::vector<std::string> sorted_names;
  std::vector<NodeId> rank_of_tip;  // tree tip id -> canonical label
  std::vector<NodeId> tip_of_rank;  // canonical label -> tree tip id
};

LeafRanks rank_leaves(const Tree& tree) {
  const std::size_t n = tree.num_taxa();
  LeafRanks ranks;
  ranks.sorted_names.reserve(n);
  for (NodeId tip = 0; tip < n; ++tip)
    ranks.sorted_names.push_back(tree.taxon_name(tip));
  std::sort(ranks.sorted_names.begin(), ranks.sorted_names.end());
  for (std::size_t i = 0; i + 1 < n; ++i) {
    PLFOC_REQUIRE(ranks.sorted_names[i] != ranks.sorted_names[i + 1],
                  "phylo2vec: duplicate taxon name '" + ranks.sorted_names[i] +
                      "'");
  }
  ranks.rank_of_tip.resize(n);
  ranks.tip_of_rank.resize(n);
  for (NodeId tip = 0; tip < n; ++tip) {
    const auto it =
        std::lower_bound(ranks.sorted_names.begin(), ranks.sorted_names.end(),
                         tree.taxon_name(tip));
    const NodeId rank =
        static_cast<NodeId>(it - ranks.sorted_names.begin());
    ranks.rank_of_tip[tip] = rank;
    ranks.tip_of_rank[rank] = tip;
  }
  return ranks;
}

/// Swap `from` for `to` in a two-slot child array.
void replace_child(std::array<NodeId, 2>& slots, NodeId from, NodeId to) {
  if (slots[0] == from) {
    slots[0] = to;
  } else {
    PLFOC_CHECK(slots[1] == from);
    slots[1] = to;
  }
}

}  // namespace

Phylo2Vec phylo2vec_encode(const Tree& tree) {
  const std::size_t n = tree.num_taxa();
  PLFOC_REQUIRE(n >= 3, "phylo2vec: need at least 3 taxa");
  PLFOC_REQUIRE(tree.is_fully_connected(),
                "phylo2vec: tree is not fully connected");
  const LeafRanks ranks = rank_leaves(tree);

  // Rooted view of the unrooted tree: the synthetic root R subdivides the
  // pendant edge of the rank-0 taxon. Handles are the tree's own NodeIds
  // plus R = num_nodes(); every node except R has a parent and a
  // parent-edge length (the lengths of R's two children are jointly the
  // merged pendant edge, recorded separately).
  const NodeId root = static_cast<NodeId>(tree.num_nodes());
  const std::size_t handles = tree.num_nodes() + 1;
  std::vector<NodeId> parent(handles, kNoNode);
  std::vector<std::array<NodeId, 2>> children(
      handles, std::array<NodeId, 2>{kNoNode, kNoNode});
  std::vector<double> parent_len(handles, 0.0);

  const NodeId leaf0 = ranks.tip_of_rank[0];
  const NodeId anchor = tree.neighbors(leaf0)[0];  // inner for n >= 3
  parent[leaf0] = root;
  parent[anchor] = root;
  children[root] = {leaf0, anchor};
  const double root_edge_len = tree.branch_length(leaf0, anchor);

  // Orient everything below `anchor` away from the pendant edge.
  std::vector<std::pair<NodeId, NodeId>> stack;  // (node, neighbor toward R)
  stack.emplace_back(anchor, leaf0);
  while (!stack.empty()) {
    const auto [node, toward_root] = stack.back();
    stack.pop_back();
    int slot = 0;
    for (const NodeId next : tree.neighbors(node)) {
      if (next == toward_root) continue;
      PLFOC_CHECK(slot < 2);
      children[node][slot++] = next;
      parent[next] = node;
      parent_len[next] = tree.branch_length(node, next);
      if (tree.is_inner(next)) stack.emplace_back(next, node);
    }
  }

  // Prune pass: detach leaves n-1 .. 2 (by canonical label). Leaf i's
  // parent at its prune step is exactly the internal node the growth
  // process created at step i, which assigns every internal node its
  // creation index; the final root R is c_1. The pruned leaf's sibling
  // determines v[i], but an internal sibling's creation index is only
  // known once the whole pass finishes — hence the second pass below.
  std::vector<NodeId> sibling_node(n, kNoNode);
  std::vector<std::uint32_t> creation_index(handles, 0);
  std::vector<NodeId> node_of_index(n, kNoNode);  // creation index -> node
  for (std::size_t i = n - 1; i >= 2; --i) {
    const NodeId leaf = ranks.tip_of_rank[i];
    const NodeId p = parent[leaf];
    PLFOC_CHECK(p != root && tree.is_inner(p));
    const NodeId sibling =
        children[p][0] == leaf ? children[p][1] : children[p][0];
    const NodeId grand = parent[p];
    sibling_node[i] = sibling;
    creation_index[p] = static_cast<std::uint32_t>(i);
    node_of_index[i] = p;
    replace_child(children[grand], p, sibling);
    parent[sibling] = grand;
  }
  creation_index[root] = 1;
  node_of_index[1] = root;

  Phylo2Vec out;
  out.taxa = ranks.sorted_names;
  out.v.assign(n, 0);
  for (std::size_t i = 2; i < n; ++i) {
    const NodeId sibling = sibling_node[i];
    if (tree.is_tip(sibling)) {
      out.v[i] = ranks.rank_of_tip[sibling];
    } else {
      PLFOC_CHECK(creation_index[sibling] != 0 && creation_index[sibling] < i);
      out.v[i] =
          static_cast<std::uint32_t>(i) + creation_index[sibling] - 1;
    }
    PLFOC_DCHECK(out.v[i] <= 2 * i - 2);
  }

  // Canonical length order: merged root edge, then parent edges for leaves
  // by rank and internals by creation index, skipping the root and its two
  // children (leaf 0 and the anchor, whose half edges are entry 0).
  out.lengths.reserve(2 * n - 3);
  out.lengths.push_back(root_edge_len);
  for (std::size_t r = 1; r < n; ++r)
    out.lengths.push_back(parent_len[ranks.tip_of_rank[r]]);
  for (std::size_t j = 2; j < n; ++j) {
    const NodeId node = node_of_index[j];
    if (node == anchor) continue;
    out.lengths.push_back(parent_len[node]);
  }
  PLFOC_CHECK(out.lengths.size() == 2 * n - 3);
  return out;
}

void phylo2vec_validate(const Phylo2Vec& encoding) {
  const std::size_t n = encoding.v.size();
  PLFOC_REQUIRE(n >= 3, "phylo2vec: need at least 3 taxa");
  PLFOC_REQUIRE(encoding.taxa.size() == n,
                "phylo2vec: taxa/vector size mismatch");
  for (std::size_t i = 0; i + 1 < n; ++i) {
    PLFOC_REQUIRE(encoding.taxa[i] < encoding.taxa[i + 1],
                  "phylo2vec: taxa must be unique and sorted");
  }
  PLFOC_REQUIRE(encoding.v[0] == 0 && encoding.v[1] == 0,
                "phylo2vec: v[0] and v[1] must be 0");
  for (std::size_t i = 2; i < n; ++i) {
    PLFOC_REQUIRE(encoding.v[i] <= 2 * i - 2,
                  "phylo2vec: v entry out of range");
  }
  PLFOC_REQUIRE(encoding.lengths.size() == 2 * n - 3,
                "phylo2vec: need 2n-3 branch lengths");
  for (const double len : encoding.lengths) {
    PLFOC_REQUIRE(std::isfinite(len) && len > 0.0,
                  "phylo2vec: branch lengths must be positive and finite");
  }
}

Tree phylo2vec_decode(const Phylo2Vec& encoding) {
  phylo2vec_validate(encoding);
  const std::size_t n = encoding.v.size();

  // Grow the rooted tree. Handles: leaves 0..n-1 (canonical labels),
  // internal c_j -> n-1+j for creation index j in 1..n-1.
  const auto inner = [n](std::size_t j) {
    return static_cast<NodeId>(n - 1 + j);
  };
  const std::size_t handles = 2 * n;  // leaves + internals + 1 spare slot
  std::vector<NodeId> parent(handles, kNoNode);
  std::vector<std::array<NodeId, 2>> children(
      handles, std::array<NodeId, 2>{kNoNode, kNoNode});

  NodeId root = inner(1);
  children[root] = {0, 1};
  parent[0] = root;
  parent[1] = root;
  for (std::size_t i = 2; i < n; ++i) {
    const std::uint32_t name = encoding.v[i];
    // name < i: the edge above leaf `name`; otherwise the edge above the
    // internal created at step name-i+1 (the current root's virtual parent
    // edge included, in which case the new node becomes the root).
    const NodeId below =
        name < i ? static_cast<NodeId>(name) : inner(name - i + 1);
    const NodeId fresh = inner(i);
    const NodeId above = parent[below];
    if (above == kNoNode) {
      root = fresh;
    } else {
      replace_child(children[above], below, fresh);
    }
    parent[fresh] = above;
    children[fresh] = {below, static_cast<NodeId>(i)};
    parent[below] = fresh;
    parent[static_cast<NodeId>(i)] = fresh;
  }

  // Distribute branch lengths by the canonical order (see encode).
  const NodeId child_a = children[root][0];
  const NodeId child_b = children[root][1];
  std::vector<double> parent_len(handles, 0.0);
  std::size_t next = 1;
  for (std::size_t r = 0; r < n; ++r) {
    const NodeId leaf = static_cast<NodeId>(r);
    if (leaf == child_a || leaf == child_b) continue;
    parent_len[leaf] = encoding.lengths[next++];
  }
  for (std::size_t j = 1; j < n; ++j) {
    const NodeId node = inner(j);
    if (node == root || node == child_a || node == child_b) continue;
    parent_len[node] = encoding.lengths[next++];
  }
  PLFOC_CHECK(next == encoding.lengths.size());

  // Suppress the root into an unrooted plfoc::Tree: tips keep their
  // canonical labels (taxa are sorted, so tip id == rank), non-root
  // internals map to n..2n-3 in creation-index order, and the root's two
  // child edges merge into one edge carrying lengths[0].
  Tree tree(encoding.taxa);
  std::vector<NodeId> mapped(handles, kNoNode);
  for (std::size_t r = 0; r < n; ++r)
    mapped[r] = static_cast<NodeId>(r);
  NodeId next_inner = static_cast<NodeId>(n);
  for (std::size_t j = 1; j < n; ++j) {
    if (inner(j) == root) continue;
    mapped[inner(j)] = next_inner++;
  }
  PLFOC_CHECK(next_inner == tree.num_nodes());

  for (std::size_t h = 0; h < handles; ++h) {
    const NodeId node = static_cast<NodeId>(h);
    if (mapped[node] == kNoNode || node == root) continue;
    if (node == child_a || node == child_b) continue;
    tree.connect(mapped[node], mapped[parent[node]], parent_len[node]);
  }
  tree.connect(mapped[child_a], mapped[child_b], encoding.lengths[0]);
  tree.validate();
  return tree;
}

Tree phylo2vec_canonical(const Tree& tree) {
  return phylo2vec_decode(phylo2vec_encode(tree));
}

std::uint64_t phylo2vec_taxa_digest(const std::vector<std::string>& taxa) {
  std::vector<std::string> sorted = taxa;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t digest = mix64(kTaxaDigestSeed ^ sorted.size());
  for (const std::string& name : sorted)
    digest = checksum64(mix64(digest), name.data(), name.size());
  return digest;
}

}  // namespace plfoc
