// Topology-editing moves: SPR (subtree pruning and regrafting) and NNI
// (nearest-neighbour interchange), both with exact undo records.
//
// The miss-rate experiments (Figs. 2-4) are driven by a lazy-SPR tree search;
// these moves produce exactly the local-edit access patterns the paper
// exploits (Sec. 3.1: "A large number of topological changes that are
// evaluated are local changes").
#pragma once

#include "tree/tree.hpp"

namespace plfoc {

/// Undo record for one SPR move.
///
/// Before: inner node `s` carries the pruned subtree through neighbour `r`
/// and connects to `u` and `v`; edge (x, y) exists elsewhere.
/// After:  u-v are joined directly; s is spliced into (x, y).
struct SprMove {
  NodeId s, r, u, v, x, y;
  double len_su, len_sv;  ///< original lengths of s-u and s-v
  double len_xy;          ///< original length of x-y
};

/// Prune the subtree hanging off `s` on the `r` side and regraft `s` into
/// edge (x, y). Requirements (checked): s inner with neighbours {r, u, v};
/// (x, y) an existing edge not incident to s. The rejoined u-v branch gets
/// length len(s,u)+len(s,v); the split halves of (x, y) each get half its
/// length, clamped to a positive minimum.
SprMove apply_spr(Tree& tree, NodeId s, NodeId r, NodeId x, NodeId y);

/// Restore the exact pre-move tree (topology and branch lengths).
void undo_spr(Tree& tree, const SprMove& move);

/// Undo record for one NNI move across inner edge (a, b).
struct NniMove {
  NodeId a, b;
  NodeId moved_from_a;  ///< neighbour of a that was swapped to b
  NodeId moved_from_b;  ///< neighbour of b that was swapped to a
  double len_a_child, len_b_child;
};

/// Swap one non-shared neighbour of `a` with one of `b` across inner edge
/// (a, b). `variant` in {0, 1} selects which of b's two candidates is used.
/// NOTE: the variant -> physical-move mapping depends on the current
/// neighbour slot order, which disconnect/connect cycles permute, so a
/// variant index does not name the same move after an undo.
NniMove apply_nni(Tree& tree, NodeId a, NodeId b, int variant);

void undo_nni(Tree& tree, const NniMove& move);

}  // namespace plfoc
