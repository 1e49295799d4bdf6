#include "msa/alignment.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "msa/patterns.hpp"
#include "util/checks.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

// Reference: the per-site popcount loop empirical_frequencies used before it
// precomputed per-code shares. The production loop must match it bit for bit.
std::vector<double> reference_frequencies(const Alignment& alignment) {
  const DataType type = alignment.data_type();
  const std::vector<double>& weights = alignment.weights();
  const unsigned states = num_states(type);
  std::vector<double> counts(states, 0.0);
  for (std::size_t taxon = 0; taxon < alignment.num_taxa(); ++taxon) {
    for (std::size_t site = 0; site < alignment.num_sites(); ++site) {
      const double w = weights.empty() ? 1.0 : weights[site];
      const std::uint32_t mask =
          code_state_mask(type, alignment.row(taxon)[site]);
      unsigned bits = 0;
      for (unsigned s = 0; s < states; ++s) bits += (mask >> s) & 1u;
      const double share = w / bits;
      for (unsigned s = 0; s < states; ++s)
        if ((mask >> s) & 1u) counts[s] += share;
    }
  }
  double total = std::accumulate(counts.begin(), counts.end(), 0.0);
  if (total <= 0.0) return std::vector<double>(states, 1.0 / states);
  for (double& c : counts) c /= total;
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

void expect_bit_identical(const Alignment& alignment, const std::string& what) {
  const std::vector<double> want = reference_frequencies(alignment);
  const std::vector<double> got = alignment.empirical_frequencies();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < want.size(); ++s)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s]),
              std::bit_cast<std::uint64_t>(want[s]))
        << what << " state " << s << ": " << got[s] << " vs " << want[s];
}

// Every character the data type accepts, ambiguity codes, gaps and lower case
// included.
std::string alphabet(DataType type) {
  return type == DataType::kDna
             ? "ACGTURYSWKMBDHVNOX-?.~acgturyswkmbdhvnox"
             : "ARNDCQEGHILKMFPSTWYVBZJX-?.~*arndcqeghilkmfpstwyvbzjx";
}

Alignment random_alignment(Rng& rng, DataType type) {
  // Draw from a random subset of the alphabet so some alignments leave
  // states unobserved and hit the frequency floor.
  const std::string all = alphabet(type);
  std::string letters;
  const std::uint64_t keep = 1 + rng.below(all.size());
  for (std::uint64_t i = 0; i < keep; ++i)
    letters.push_back(all[rng.below(all.size())]);
  const std::size_t taxa = 1 + rng.below(12);
  const std::size_t sites = 1 + rng.below(80);
  Alignment alignment(type, sites);
  for (std::size_t t = 0; t < taxa; ++t) {
    std::string row(sites, ' ');
    for (char& c : row) c = letters[rng.below(letters.size())];
    alignment.add_sequence("t" + std::to_string(t), row);
  }
  return alignment;
}

Alignment small() {
  Alignment alignment(DataType::kDna, 4);
  alignment.add_sequence("a", "ACGT");
  alignment.add_sequence("b", "AC-T");
  alignment.add_sequence("c", "TTTT");
  return alignment;
}

TEST(Alignment, BasicShape) {
  const Alignment alignment = small();
  EXPECT_EQ(alignment.num_taxa(), 3u);
  EXPECT_EQ(alignment.num_sites(), 4u);
  EXPECT_EQ(alignment.data_type(), DataType::kDna);
}

TEST(Alignment, TextRoundTrip) {
  const Alignment alignment = small();
  EXPECT_EQ(alignment.text(0), "ACGT");
  EXPECT_EQ(alignment.text(1), "ACNT");  // '-' prints as the canonical 'N'
  EXPECT_EQ(alignment.text(2), "TTTT");
}

TEST(Alignment, FindTaxon) {
  const Alignment alignment = small();
  EXPECT_EQ(alignment.find_taxon("a"), 0);
  EXPECT_EQ(alignment.find_taxon("c"), 2);
  EXPECT_EQ(alignment.find_taxon("zz"), -1);
}

TEST(Alignment, FindTaxonAcrossIndexGrowth) {
  Alignment alignment(DataType::kDna, 1);
  for (int t = 0; t < 300; ++t)
    alignment.add_sequence("taxon" + std::to_string(t), "A");
  for (int t = 0; t < 300; ++t)
    EXPECT_EQ(alignment.find_taxon("taxon" + std::to_string(t)), t);
  EXPECT_EQ(alignment.find_taxon("taxon300"), -1);
  EXPECT_EQ(alignment.find_taxon(""), -1);
  EXPECT_EQ(Alignment(DataType::kDna, 1).find_taxon("a"), -1);
}

TEST(Alignment, RejectsWrongLength) {
  Alignment alignment(DataType::kDna, 4);
  EXPECT_THROW(alignment.add_sequence("a", "ACG"), Error);
  EXPECT_THROW(alignment.add_sequence("a", "ACGTT"), Error);
}

TEST(Alignment, RejectsDuplicateNames) {
  Alignment alignment(DataType::kDna, 2);
  alignment.add_sequence("a", "AC");
  EXPECT_THROW(alignment.add_sequence("a", "GT"), Error);
}

TEST(Alignment, DuplicateNameMessageNamesTheTaxon) {
  Alignment alignment(DataType::kDna, 2);
  alignment.add_sequence("a", "AC");
  alignment.add_sequence("b", "GT");
  try {
    alignment.add_encoded("b", {1, 2});
    FAIL() << "duplicate name accepted";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "duplicate taxon name 'b'");
  }
  // The rejected row left no trace, and a row rejected for its length does
  // not reserve its name.
  EXPECT_EQ(alignment.num_taxa(), 2u);
  EXPECT_EQ(alignment.find_taxon("b"), 1);
  EXPECT_THROW(alignment.add_sequence("c", "ACG"), Error);
  alignment.add_sequence("c", "GG");
  EXPECT_EQ(alignment.find_taxon("c"), 2);
}

TEST(Alignment, RejectsEmptyName) {
  Alignment alignment(DataType::kDna, 2);
  EXPECT_THROW(alignment.add_sequence("", "AC"), Error);
}

TEST(Alignment, RejectsInvalidCharacters) {
  Alignment alignment(DataType::kDna, 2);
  EXPECT_THROW(alignment.add_sequence("a", "AZ"), Error);
}

TEST(Alignment, WeightsValidation) {
  Alignment alignment = small();
  EXPECT_THROW(alignment.set_weights({1.0, 2.0}), Error);        // wrong size
  EXPECT_THROW(alignment.set_weights({1, 1, 0, 1}), Error);      // zero weight
  alignment.set_weights({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(alignment.total_weight(), 10.0);
}

TEST(Alignment, TotalWeightDefaultsToSites) {
  EXPECT_EQ(small().total_weight(), 4.0);
}

TEST(Alignment, EmpiricalFrequenciesSumToOne) {
  const auto freqs = small().empirical_frequencies();
  ASSERT_EQ(freqs.size(), 4u);
  double total = 0.0;
  for (double f : freqs) {
    EXPECT_GT(f, 0.0);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Alignment, EmpiricalFrequenciesCountAmbiguityFractionally) {
  Alignment alignment(DataType::kDna, 1);
  alignment.add_sequence("a", "R");  // A or G, half each
  alignment.add_sequence("b", "A");
  const auto freqs = alignment.empirical_frequencies();
  // Counts: A = 1.5, G = 0.5 (pre-flooring); C and T get the tiny floor.
  EXPECT_NEAR(freqs[0], 0.75, 0.01);
  EXPECT_NEAR(freqs[2], 0.25, 0.01);
}

TEST(Alignment, EmpiricalFrequenciesTFloorIsPositive) {
  Alignment alignment(DataType::kDna, 2);
  alignment.add_sequence("a", "AA");
  alignment.add_sequence("b", "AA");
  const auto freqs = alignment.empirical_frequencies();
  for (double f : freqs) EXPECT_GT(f, 0.0);  // floored, never exactly zero
}

TEST(Alignment, EmpiricalFrequenciesBitIdenticalToReference) {
  Rng rng(20260117);
  for (int trial = 0; trial < 240; ++trial) {
    const DataType type = trial % 2 == 0 ? DataType::kDna : DataType::kProtein;
    const Alignment alignment = random_alignment(rng, type);
    const std::string what = "trial " + std::to_string(trial);
    expect_bit_identical(alignment, what + " unweighted");
    expect_bit_identical(compress_patterns(alignment).compressed,
                         what + " weighted");
  }
}

TEST(Alignment, EmpiricalFrequenciesBitIdenticalOnEdgeCases) {
  for (DataType type : {DataType::kDna, DataType::kProtein}) {
    const std::string name = datatype_name(type);
    // All gaps: every state gets the same share.
    Alignment gaps(type, 7);
    gaps.add_sequence("a", "-------");
    gaps.add_sequence("b", "?.~----");
    expect_bit_identical(gaps, name + " all-gap");
    // One observed state: the others take the 1e-6 floor.
    Alignment single(type, 5);
    single.add_sequence("a", "aaaaa");
    single.add_sequence("b", "AAAAA");
    expect_bit_identical(single, name + " single state");
    expect_bit_identical(compress_patterns(single).compressed,
                         name + " single state weighted");
    // No taxa: the uniform fallback.
    expect_bit_identical(Alignment(type, 3), name + " no taxa");
  }
}

TEST(Alignment, AddEncodedMatchesAddSequence) {
  Alignment by_text(DataType::kDna, 3);
  by_text.add_sequence("a", "ACG");
  Alignment by_code(DataType::kDna, 3);
  by_code.add_encoded("a", {1, 2, 4});
  EXPECT_EQ(by_text.text(0), by_code.text(0));
}

}  // namespace
}  // namespace plfoc
