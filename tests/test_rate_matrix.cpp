#include "model/rate_matrix.hpp"

#include <gtest/gtest.h>


#include "model/protein_matrices.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

TEST(RateMatrix, PairIndexLayout) {
  // 4 states: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5.
  EXPECT_EQ(SubstitutionModel::pair_index(0, 1, 4), 0u);
  EXPECT_EQ(SubstitutionModel::pair_index(0, 3, 4), 2u);
  EXPECT_EQ(SubstitutionModel::pair_index(1, 2, 4), 3u);
  EXPECT_EQ(SubstitutionModel::pair_index(2, 3, 4), 5u);
  // 20 states: last pair is index 189.
  EXPECT_EQ(SubstitutionModel::pair_index(18, 19, 20), 189u);
}

TEST(RateMatrix, Jc69IsUniform) {
  const SubstitutionModel model = jc69();
  model.validate();
  EXPECT_EQ(model.states(), 4u);
  for (double f : model.frequencies) EXPECT_DOUBLE_EQ(f, 0.25);
  for (double r : model.exchangeabilities) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(RateMatrix, K80PlacesKappaOnTransitions) {
  const SubstitutionModel model = k80(2.0);
  // Transitions: A<->G = pair (0,2), C<->T = pair (1,3).
  EXPECT_DOUBLE_EQ(model.exchangeabilities[SubstitutionModel::pair_index(0, 2, 4)], 2.0);
  EXPECT_DOUBLE_EQ(model.exchangeabilities[SubstitutionModel::pair_index(1, 3, 4)], 2.0);
  EXPECT_DOUBLE_EQ(model.exchangeabilities[SubstitutionModel::pair_index(0, 1, 4)], 1.0);
}

TEST(RateMatrix, GtrValidation) {
  EXPECT_THROW(gtr({1, 2, 3}, {0.25, 0.25, 0.25, 0.25}), Error);
  EXPECT_THROW(gtr({1, 2, 3, 4, 5, 6}, {0.5, 0.5, 0.1, -0.1}), Error);
  EXPECT_THROW(gtr({1, 2, 3, 4, 5, 6}, {0.3, 0.3, 0.3, 0.3}), Error);  // sum != 1
  EXPECT_NO_THROW(gtr({1, 2, 3, 4, 5, 6}, {0.1, 0.2, 0.3, 0.4}));
}

TEST(RateMatrix, RowsSumToZero) {
  const auto q = build_rate_matrix(gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0},
                                       {0.3, 0.22, 0.24, 0.24}));
  for (unsigned i = 0; i < 4; ++i) {
    double row = 0.0;
    for (unsigned j = 0; j < 4; ++j) row += q[i * 4 + j];
    EXPECT_NEAR(row, 0.0, 1e-12);
  }
}

TEST(RateMatrix, MeanRateIsOne) {
  const SubstitutionModel model =
      gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24});
  const auto q = build_rate_matrix(model);
  double mean = 0.0;
  for (unsigned i = 0; i < 4; ++i) mean -= model.frequencies[i] * q[i * 4 + i];
  EXPECT_NEAR(mean, 1.0, 1e-12);
}

TEST(RateMatrix, DetailedBalance) {
  const SubstitutionModel model =
      gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24});
  const auto q = build_rate_matrix(model);
  for (unsigned i = 0; i < 4; ++i)
    for (unsigned j = 0; j < 4; ++j)
      EXPECT_NEAR(model.frequencies[i] * q[i * 4 + j],
                  model.frequencies[j] * q[j * 4 + i], 1e-12)
          << i << "," << j;
}

TEST(RateMatrix, PoissonProteinValid) {
  const SubstitutionModel model = poisson_protein();
  model.validate();
  EXPECT_EQ(model.states(), 20u);
  const auto q = build_rate_matrix(model);
  for (unsigned i = 0; i < 20; ++i) {
    double row = 0.0;
    for (unsigned j = 0; j < 20; ++j) row += q[i * 20 + j];
    EXPECT_NEAR(row, 0.0, 1e-10);
  }
}

TEST(ProteinMatrices, SyntheticModelIsValidAndDeterministic) {
  const SubstitutionModel a = synthetic_protein_model(7);
  const SubstitutionModel b = synthetic_protein_model(7);
  const SubstitutionModel c = synthetic_protein_model(8);
  a.validate();
  EXPECT_EQ(a.exchangeabilities, b.exchangeabilities);
  EXPECT_EQ(a.frequencies, b.frequencies);
  EXPECT_NE(a.exchangeabilities, c.exchangeabilities);
}

TEST(ProteinMatrices, SyntheticDetailedBalance) {
  const SubstitutionModel model = synthetic_protein_model(3);
  const auto q = build_rate_matrix(model);
  for (unsigned i = 0; i < 20; ++i)
    for (unsigned j = 0; j < 20; ++j)
      EXPECT_NEAR(model.frequencies[i] * q[i * 20 + j],
                  model.frequencies[j] * q[j * 20 + i], 1e-12);
}

}  // namespace
}  // namespace plfoc
