#include "msa/alignment.hpp"

#include <array>
#include <bit>
#include <numeric>

#include "util/checks.hpp"

namespace plfoc {

void Alignment::add_sequence(std::string name, std::string_view characters) {
  PLFOC_REQUIRE(characters.size() == num_sites_,
                "sequence '" + name + "' has length " +
                    std::to_string(characters.size()) + ", expected " +
                    std::to_string(num_sites_));
  add_encoded(std::move(name), encode_sequence(type_, characters));
}

void Alignment::add_encoded(std::string name, std::vector<std::uint8_t> codes) {
  PLFOC_REQUIRE(!name.empty(), "taxon names must be non-empty");
  PLFOC_REQUIRE(codes.size() == num_sites_,
                "encoded sequence length mismatch for taxon '" + name + "'");
  PLFOC_REQUIRE(find_taxon(name) < 0, "duplicate taxon name '" + name + "'");
  names_.push_back(std::move(name));
  rows_.push_back(std::move(codes));
  const bool rehash = 2 * names_.size() > taxon_slots_.size();
  if (rehash) taxon_slots_.assign(std::bit_ceil(4 * names_.size()), 0);
  const std::size_t mask = taxon_slots_.size() - 1;
  for (std::size_t t = rehash ? 0 : names_.size() - 1; t < names_.size(); ++t) {
    std::size_t i = std::hash<std::string_view>{}(names_[t]) & mask;
    while (taxon_slots_[i] != 0) i = (i + 1) & mask;
    taxon_slots_[i] = static_cast<std::uint32_t>(t + 1);
  }
}

long Alignment::find_taxon(std::string_view name) const {
  const std::size_t mask = taxon_slots_.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(name) & mask;
       !taxon_slots_.empty() && taxon_slots_[i] != 0; i = (i + 1) & mask)
    if (names_[taxon_slots_[i] - 1] == name) return taxon_slots_[i] - 1L;
  return -1;
}

std::string Alignment::text(std::size_t taxon) const {
  PLFOC_CHECK(taxon < rows_.size());
  std::string out;
  out.reserve(num_sites_);
  for (std::uint8_t code : rows_[taxon]) out.push_back(decode_char(type_, code));
  return out;
}

void Alignment::set_weights(std::vector<double> weights) {
  PLFOC_REQUIRE(weights.size() == num_sites_,
                "weight vector length must equal the number of sites");
  for (double w : weights)
    PLFOC_REQUIRE(w > 0.0, "site weights must be positive");
  weights_ = std::move(weights);
}

double Alignment::total_weight() const {
  if (weights_.empty()) return static_cast<double>(num_sites_);
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

std::vector<double> Alignment::empirical_frequencies() const {
  const unsigned states = num_states(type_);
  // Per-code state mask, popcount and share of a unit weight. Indexed by the
  // raw code byte; codes that are not valid tips keep mask 0 and add nothing.
  std::array<std::uint32_t, 256> masks{};
  std::array<double, 256> bits{};
  std::array<double, 256> unit_share{};
  for (unsigned code = type_ == DataType::kDna ? 1 : 0;
       code < num_codes(type_); ++code) {
    masks[code] = code_state_mask(type_, static_cast<std::uint8_t>(code));
    bits[code] = std::popcount(masks[code]);
    unit_share[code] = 1.0 / bits[code];
  }
  // Every sum must take its shares in (taxon, site) order: frequencies, and
  // through them every logL, are pinned bit for bit.
  std::array<double, 32> sums{};
  const auto count = [&](auto share_at) {
    for (const std::vector<std::uint8_t>& row : rows_)
      for (std::size_t site = 0; site < num_sites_; ++site) {
        const std::uint8_t code = row[site];
        const double share = share_at(code, site);
        for (std::uint32_t m = masks[code]; m != 0; m &= m - 1)
          sums[std::countr_zero(m)] += share;
      }
  };
  if (weights_.empty())
    count([&](std::uint8_t code, std::size_t) { return unit_share[code]; });
  else
    count([&](std::uint8_t code, std::size_t site) {
      return weights_[site] / bits[code];
    });
  std::vector<double> counts(sums.begin(), sums.begin() + states);
  double total = std::accumulate(counts.begin(), counts.end(), 0.0);
  if (total <= 0.0) return std::vector<double>(states, 1.0 / states);
  for (double& c : counts) c /= total;
  // Guard against zero frequencies (all-gap columns for a state): likelihood
  // code divides by frequencies during ancestral state handling.
  constexpr double kFloor = 1e-6;
  bool floored = false;
  for (double& c : counts)
    if (c < kFloor) {
      c = kFloor;
      floored = true;
    }
  if (floored) {
    total = std::accumulate(counts.begin(), counts.end(), 0.0);
    for (double& c : counts) c /= total;
  }
  return counts;
}

}  // namespace plfoc
