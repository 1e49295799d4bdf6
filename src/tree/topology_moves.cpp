#include "tree/topology_moves.hpp"

#include <algorithm>

#include "util/checks.hpp"

namespace plfoc {
namespace {

constexpr double kMinLength = 1e-8;

}  // namespace

SprMove apply_spr(Tree& tree, NodeId s, NodeId r, NodeId x, NodeId y) {
  PLFOC_CHECK(tree.is_inner(s));
  PLFOC_CHECK(tree.has_edge(s, r));
  PLFOC_CHECK(tree.has_edge(x, y));
  PLFOC_CHECK(x != s && y != s);

  SprMove move{};
  move.s = s;
  move.r = r;
  move.x = x;
  move.y = y;

  // Identify u and v: the neighbours of s other than r.
  NodeId others[2];
  int count = 0;
  for (NodeId nbr : tree.neighbors(s))
    if (nbr != r) others[count++] = nbr;
  PLFOC_CHECK(count == 2);
  move.u = others[0];
  move.v = others[1];
  PLFOC_CHECK(!(move.u == x && move.v == y) && !(move.u == y && move.v == x));

  move.len_su = tree.branch_length(s, move.u);
  move.len_sv = tree.branch_length(s, move.v);
  move.len_xy = tree.branch_length(x, y);

  // Prune: detach s, heal the u-v gap.
  tree.disconnect(s, move.u);
  tree.disconnect(s, move.v);
  tree.connect(move.u, move.v, move.len_su + move.len_sv);

  // Regraft: splice s into (x, y).
  tree.disconnect(x, y);
  const double half = std::max(move.len_xy * 0.5, kMinLength);
  tree.connect(s, x, half);
  tree.connect(s, y, half);
  return move;
}

void undo_spr(Tree& tree, const SprMove& move) {
  tree.disconnect(move.s, move.x);
  tree.disconnect(move.s, move.y);
  tree.connect(move.x, move.y, move.len_xy);
  tree.disconnect(move.u, move.v);
  tree.connect(move.s, move.u, move.len_su);
  tree.connect(move.s, move.v, move.len_sv);
}

NniMove apply_nni(Tree& tree, NodeId a, NodeId b, int variant) {
  PLFOC_CHECK(tree.is_inner(a) && tree.is_inner(b));
  PLFOC_CHECK(tree.has_edge(a, b));
  PLFOC_CHECK(variant == 0 || variant == 1);

  NodeId a_children[2];
  NodeId b_children[2];
  int na = 0;
  int nb = 0;
  for (NodeId nbr : tree.neighbors(a))
    if (nbr != b) a_children[na++] = nbr;
  for (NodeId nbr : tree.neighbors(b))
    if (nbr != a) b_children[nb++] = nbr;
  PLFOC_CHECK(na == 2 && nb == 2);

  NniMove move{};
  move.a = a;
  move.b = b;
  move.moved_from_a = a_children[0];
  move.moved_from_b = b_children[variant];
  move.len_a_child = tree.branch_length(a, move.moved_from_a);
  move.len_b_child = tree.branch_length(b, move.moved_from_b);

  tree.disconnect(a, move.moved_from_a);
  tree.disconnect(b, move.moved_from_b);
  tree.connect(a, move.moved_from_b, move.len_b_child);
  tree.connect(b, move.moved_from_a, move.len_a_child);
  return move;
}

void undo_nni(Tree& tree, const NniMove& move) {
  tree.disconnect(move.a, move.moved_from_b);
  tree.disconnect(move.b, move.moved_from_a);
  tree.connect(move.a, move.moved_from_a, move.len_a_child);
  tree.connect(move.b, move.moved_from_b, move.len_b_child);
}

}  // namespace plfoc
