// Multiple sequence alignment container.
//
// Sequences are stored encoded (see msa/datatype.hpp) in one row per taxon.
// An Alignment may additionally carry per-site weights; pattern compression
// (msa/patterns.hpp) produces a smaller Alignment whose weights record how
// many original columns each unique pattern represents.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "msa/datatype.hpp"

namespace plfoc {

class Alignment {
 public:
  Alignment() = default;
  Alignment(DataType type, std::size_t num_sites)
      : type_(type), num_sites_(num_sites) {}

  DataType data_type() const { return type_; }
  std::size_t num_taxa() const { return names_.size(); }
  std::size_t num_sites() const { return num_sites_; }

  /// Append a taxon. The string is encoded and validated; its length must
  /// equal num_sites(). Taxon names must be unique and non-empty.
  void add_sequence(std::string name, std::string_view characters);

  /// Append a taxon from already-encoded codes.
  void add_encoded(std::string name, std::vector<std::uint8_t> codes);

  const std::string& name(std::size_t taxon) const { return names_[taxon]; }
  std::span<const std::uint8_t> row(std::size_t taxon) const {
    return {rows_[taxon].data(), rows_[taxon].size()};
  }

  /// Index of the taxon with the given name, or -1 if absent.
  long find_taxon(std::string_view name) const;

  /// Decoded character text of one row (for writers / debugging).
  std::string text(std::size_t taxon) const;

  /// Per-site multiplicities. Empty means "all weights are 1".
  const std::vector<double>& weights() const { return weights_; }
  void set_weights(std::vector<double> weights);

  /// Sum of site weights (== original alignment length after compression).
  double total_weight() const;

  /// Observed state frequencies across all sequences, ambiguity codes
  /// distributed uniformly over their compatible states. Size = num_states.
  std::vector<double> empirical_frequencies() const;

 private:
  DataType type_ = DataType::kDna;
  std::size_t num_sites_ = 0;
  std::vector<std::string> names_;
  /// find_taxon's open-addressing hash index: taxon + 1 per slot, 0 = empty.
  std::vector<std::uint32_t> taxon_slots_;
  std::vector<std::vector<std::uint8_t>> rows_;
  std::vector<double> weights_;
};

}  // namespace plfoc
