// Tip sequence handling for the PLF.
//
// Tips never occupy ancestral-vector slots (Sec. 3.1: tip storage "is not
// problematic"). Each tip keeps its encoded code bytes; for a concrete branch
// the engine builds a per-code lookup table
//   table[code][c][x] = Σ_y P_c(t)[x][y] · 1{state y compatible with code}
// so the newview kernel handles a tip child with one table row gather per
// site instead of an S-element dot product. evaluate_branch reads a tip,
// always on its near side, through the raw 0/1 indicator rows; the 20-state
// AVX2 kernel visits only the states where a code's row is nonzero, so a
// one-hot code costs one row of P (and dP, d²P) instead of S.
#pragma once

#include <cstdint>
#include <vector>

#include "msa/alignment.hpp"
#include "tree/tree.hpp"

namespace plfoc {

class TipStates {
 public:
  /// Binds alignment rows to tree tips by taxon name (every tree taxon must
  /// exist in the alignment). The alignment must outlive this object.
  TipStates(const Alignment& alignment, const Tree& tree);

  unsigned states() const { return states_; }
  unsigned codes() const { return codes_; }
  std::size_t patterns() const { return patterns_; }

  /// Encoded pattern codes of a tip node (length = patterns()).
  const std::uint8_t* tip_codes(NodeId tip) const;

  /// 0/1 indicator row of a code over the model states (length = states()).
  const double* indicator(std::uint8_t code) const {
    return indicators_.data() + static_cast<std::size_t>(code) * states_;
  }

  /// Build the branch lookup table: for `categories` transition matrices
  /// pmats (categories × S × S), fill `out` with codes() × categories × S
  /// entries as described above.
  void build_branch_lookup(const double* pmats, unsigned categories,
                           std::vector<double>& out) const;

 private:
  unsigned states_;
  unsigned codes_;
  std::size_t patterns_;
  std::vector<const std::uint8_t*> rows_;  ///< per tip NodeId
  std::vector<double> indicators_;         ///< codes × states
};

}  // namespace plfoc
