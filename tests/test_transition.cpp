#include "model/transition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "model/gamma.hpp"
#include "model/protein_matrices.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

SubstitutionModel test_gtr() {
  return gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24});
}

TEST(Transition, ZeroTimeIsIdentity) {
  const EigenSystem sys = decompose(test_gtr());
  double p[16];
  transition_matrix(sys, 0.0, p);
  for (unsigned i = 0; i < 4; ++i)
    for (unsigned j = 0; j < 4; ++j)
      EXPECT_NEAR(p[i * 4 + j], i == j ? 1.0 : 0.0, 1e-10);
}

TEST(Transition, RowsSumToOne) {
  const EigenSystem sys = decompose(test_gtr());
  double p[16];
  for (double t : {0.01, 0.1, 0.5, 1.0, 5.0, 50.0}) {
    transition_matrix(sys, t, p);
    for (unsigned i = 0; i < 4; ++i) {
      double row = 0.0;
      for (unsigned j = 0; j < 4; ++j) {
        EXPECT_GE(p[i * 4 + j], 0.0);
        row += p[i * 4 + j];
      }
      EXPECT_NEAR(row, 1.0, 1e-9) << "t=" << t;
    }
  }
}

TEST(Transition, LongTimeConvergesToFrequencies) {
  const SubstitutionModel model = test_gtr();
  const EigenSystem sys = decompose(model);
  double p[16];
  transition_matrix(sys, 300.0, p);
  for (unsigned i = 0; i < 4; ++i)
    for (unsigned j = 0; j < 4; ++j)
      EXPECT_NEAR(p[i * 4 + j], model.frequencies[j], 1e-8);
}

TEST(Transition, ChapmanKolmogorov) {
  // P(s) P(t) == P(s + t).
  const EigenSystem sys = decompose(test_gtr());
  double ps[16];
  double pt[16];
  double pst[16];
  transition_matrix(sys, 0.3, ps);
  transition_matrix(sys, 0.7, pt);
  transition_matrix(sys, 1.0, pst);
  for (unsigned i = 0; i < 4; ++i)
    for (unsigned j = 0; j < 4; ++j) {
      double sum = 0.0;
      for (unsigned k = 0; k < 4; ++k) sum += ps[i * 4 + k] * pt[k * 4 + j];
      EXPECT_NEAR(sum, pst[i * 4 + j], 1e-10);
    }
}

TEST(Transition, Jc69ClosedForm) {
  // JC69: P_ii = 1/4 + 3/4 e^{-4t/3}, P_ij = 1/4 - 1/4 e^{-4t/3}.
  const EigenSystem sys = decompose(jc69());
  double p[16];
  for (double t : {0.05, 0.2, 1.0}) {
    transition_matrix(sys, t, p);
    const double e = std::exp(-4.0 * t / 3.0);
    for (unsigned i = 0; i < 4; ++i)
      for (unsigned j = 0; j < 4; ++j)
        EXPECT_NEAR(p[i * 4 + j],
                    i == j ? 0.25 + 0.75 * e : 0.25 - 0.25 * e, 1e-12)
            << "t=" << t;
  }
}

TEST(Transition, DerivativeMatchesFiniteDifference) {
  const EigenSystem sys = decompose(test_gtr());
  const double t = 0.37;
  const double h = 1e-6;
  double p[16];
  double dp[16];
  double d2p[16];
  transition_derivatives(sys, t, p, dp, d2p);
  double plus[16];
  double minus[16];
  transition_matrix(sys, t + h, plus);
  transition_matrix(sys, t - h, minus);
  for (unsigned k = 0; k < 16; ++k) {
    EXPECT_NEAR(dp[k], (plus[k] - minus[k]) / (2.0 * h), 1e-6);
    EXPECT_NEAR(d2p[k], (plus[k] - 2.0 * p[k] + minus[k]) / (h * h), 2e-3);
  }
}

TEST(Transition, DerivativeRowsSumToZero) {
  const EigenSystem sys = decompose(test_gtr());
  double dp[16];
  double d2p[16];
  transition_derivatives(sys, 0.4, nullptr, dp, d2p);
  for (unsigned i = 0; i < 4; ++i) {
    double row1 = 0.0;
    double row2 = 0.0;
    for (unsigned j = 0; j < 4; ++j) {
      row1 += dp[i * 4 + j];
      row2 += d2p[i * 4 + j];
    }
    EXPECT_NEAR(row1, 0.0, 1e-10);
    EXPECT_NEAR(row2, 0.0, 1e-10);
  }
}

TEST(Transition, CategoryMatricesUseScaledTimes) {
  const EigenSystem sys = decompose(test_gtr());
  const std::vector<double> rates = {0.5, 1.0, 2.0};
  std::vector<double> pmats;
  category_transition_matrices(sys, 0.4, rates, pmats);
  ASSERT_EQ(pmats.size(), 3u * 16u);
  double expected[16];
  for (unsigned c = 0; c < 3; ++c) {
    transition_matrix(sys, 0.4 * rates[c], expected);
    for (unsigned k = 0; k < 16; ++k)
      EXPECT_NEAR(pmats[c * 16 + k], expected[k], 1e-14);
  }
}

TEST(Transition, TwentyStateRowsSumToOne) {
  const EigenSystem sys = decompose(synthetic_protein_model(21));
  std::vector<double> p(400);
  transition_matrix(sys, 0.8, p.data());
  for (unsigned i = 0; i < 20; ++i) {
    double row = 0.0;
    for (unsigned j = 0; j < 20; ++j) row += p[i * 20 + j];
    EXPECT_NEAR(row, 1.0, 1e-8);
  }
}

/// The scalar triple loop every build path must reproduce bit for bit:
/// out = V diag(w) V^{-1}, each entry summed in k order from 0.
void reference_reconstruct(const EigenSystem& eigen, const double* weights,
                           double* out) {
  const unsigned s = eigen.states;
  for (unsigned i = 0; i < s; ++i) {
    for (unsigned j = 0; j < s; ++j) {
      double sum = 0.0;
      for (unsigned k = 0; k < s; ++k)
        sum += eigen.right[i * s + k] * weights[k] * eigen.inverse[k * s + j];
      out[i * s + j] = sum;
    }
  }
}

/// A 6-state system, a state count no SIMD path handles: V is the
/// orthogonal eigenvector matrix of a seeded negative semi-definite
/// symmetric matrix, so V^{-1} = Vᵀ and every λ_k <= 0.
EigenSystem six_state_system() {
  constexpr unsigned kStates = 6;
  Rng rng(19);
  std::vector<double> a(kStates * kStates);
  for (double& x : a) x = rng.uniform(-1.0, 1.0);
  std::vector<double> symmetric(kStates * kStates, 0.0);
  for (unsigned i = 0; i < kStates; ++i)
    for (unsigned j = 0; j < kStates; ++j)
      for (unsigned k = 0; k < kStates; ++k)
        symmetric[i * kStates + j] -= a[i * kStates + k] * a[j * kStates + k];
  EigenSystem sys;
  sys.states = kStates;
  jacobi_eigen(symmetric, kStates, sys.eigenvalues, sys.right);
  sys.inverse.resize(kStates * kStates);
  for (unsigned i = 0; i < kStates; ++i)
    for (unsigned j = 0; j < kStates; ++j)
      sys.inverse[j * kStates + i] = sys.right[i * kStates + j];
  return sys;
}

std::vector<EigenSystem> bit_identity_systems() {
  return {decompose(test_gtr()), decompose(synthetic_protein_model(21)),
          six_state_system()};
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Transition, Avx2ReconstructionBitIdenticalToScalar) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  for (const EigenSystem& sys : bit_identity_systems()) {
    const unsigned s = sys.states;
    for (double t : {0.0, 1e-8, 0.37, 50.0, 300.0}) {
      SCOPED_TRACE(::testing::Message() << "states=" << s << " t=" << t);
      std::vector<double> w0(s);
      std::vector<double> w1(s);
      std::vector<double> w2(s);
      for (unsigned k = 0; k < s; ++k) {
        const double lambda = sys.eigenvalues[k];
        const double e = std::exp(lambda * t);
        w0[k] = e;
        w1[k] = lambda * e;
        w2[k] = lambda * lambda * e;
      }
      std::vector<double> want_p(s * s);
      std::vector<double> want_dp(s * s);
      std::vector<double> want_d2p(s * s);
      reference_reconstruct(sys, w0.data(), want_p.data());
      for (double& x : want_p) x = std::max(x, 0.0);
      reference_reconstruct(sys, w1.data(), want_dp.data());
      reference_reconstruct(sys, w2.data(), want_d2p.data());

      std::vector<double> p(s * s);
      std::vector<double> dp(s * s);
      std::vector<double> d2p(s * s);
      transition_derivatives(sys, t, p.data(), dp.data(), d2p.data());
      EXPECT_TRUE(same_bits(p, want_p));
      EXPECT_TRUE(same_bits(dp, want_dp));
      EXPECT_TRUE(same_bits(d2p, want_d2p));
      std::vector<double> alone(s * s);
      transition_matrix(sys, t, alone.data());
      EXPECT_TRUE(same_bits(alone, want_p));
    }
  }
}

TEST(Transition, CategoryDerivativesMatchComposition) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  for (const EigenSystem& sys : bit_identity_systems()) {
    const unsigned s = sys.states;
    for (unsigned categories : {1u, 4u, 16u}) {
      SCOPED_TRACE(::testing::Message()
                   << "states=" << s << " categories=" << categories);
      const std::vector<double> rates =
          categories == 1 ? std::vector<double>{1.0}
                          : discrete_gamma_rates(0.7, categories);
      const double t = 0.23;
      std::vector<double> want_p;
      category_transition_matrices(sys, t, rates, want_p);
      std::vector<double> want_dp(want_p.size());
      std::vector<double> want_d2p(want_p.size());
      for (unsigned c = 0; c < categories; ++c) {
        double* d1 = want_dp.data() + c * s * s;
        double* d2 = want_d2p.data() + c * s * s;
        transition_derivatives(sys, t * rates[c], nullptr, d1, d2);
        const double r = rates[c];
        for (unsigned i = 0; i < s * s; ++i) {
          d1[i] *= r;
          d2[i] *= r * r;
        }
      }
      std::vector<double> p;
      std::vector<double> dp;
      std::vector<double> d2p;
      category_transition_derivatives(sys, t, rates, p, dp, d2p);
      EXPECT_TRUE(same_bits(p, want_p));
      EXPECT_TRUE(same_bits(dp, want_dp));
      EXPECT_TRUE(same_bits(d2p, want_d2p));
    }
  }
}

}  // namespace
}  // namespace plfoc
