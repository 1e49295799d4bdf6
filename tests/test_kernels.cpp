#include "likelihood/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "likelihood/kernel_pool.hpp"
#include "model/eigen.hpp"
#include "model/gamma.hpp"
#include "model/transition.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

/// Single-category single-pattern helper fixtures for hand-checkable math.
struct TinySetup {
  EigenSystem eigen = decompose(jc69());
  std::vector<double> pmat_left = std::vector<double>(16);
  std::vector<double> pmat_right = std::vector<double>(16);
  TinySetup(double t_left, double t_right) {
    transition_matrix(eigen, t_left, pmat_left.data());
    transition_matrix(eigen, t_right, pmat_right.data());
  }
};

TEST(Kernels, NewviewInnerInnerMatchesManualComputation) {
  TinySetup setup(0.1, 0.2);
  const KernelDims dims{1, 1, 4};
  // Children vectors: arbitrary positive values.
  const std::vector<double> left = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> right = {0.4, 0.3, 0.2, 0.1};
  const std::vector<std::int32_t> zero_scale = {0};
  NewviewChild cl{left.data(), zero_scale.data(), setup.pmat_left.data(),
                  nullptr, nullptr};
  NewviewChild cr{right.data(), zero_scale.data(), setup.pmat_right.data(),
                  nullptr, nullptr};
  std::vector<double> parent(4);
  std::vector<std::int32_t> parent_scale(1);
  const std::size_t scaled = newview(dims, cl, cr, parent.data(),
                                     parent_scale.data());
  EXPECT_EQ(scaled, 0u);
  EXPECT_EQ(parent_scale[0], 0);
  for (unsigned x = 0; x < 4; ++x) {
    double l = 0.0;
    double r = 0.0;
    for (unsigned y = 0; y < 4; ++y) {
      l += setup.pmat_left[x * 4 + y] * left[y];
      r += setup.pmat_right[x * 4 + y] * right[y];
    }
    EXPECT_NEAR(parent[x], l * r, 1e-14);
  }
}

TEST(Kernels, NewviewTipChildUsesLookup) {
  TinySetup setup(0.1, 0.2);
  const KernelDims dims{2, 1, 4};
  // Tip with codes for patterns {A, G} -> codes {1, 4}.
  const std::vector<std::uint8_t> codes = {1, 4};
  // Lookup: 16 codes x 1 cat x 4 states; fill only codes 1 and 4.
  std::vector<double> lookup(16 * 4, 0.0);
  for (unsigned x = 0; x < 4; ++x) {
    lookup[1 * 4 + x] = setup.pmat_left[x * 4 + 0];  // state A
    lookup[4 * 4 + x] = setup.pmat_left[x * 4 + 2];  // state G
  }
  NewviewChild tip{nullptr, nullptr, nullptr, codes.data(), lookup.data()};
  const std::vector<double> right = {0.4, 0.3, 0.2, 0.1, 0.1, 0.2, 0.3, 0.4};
  const std::vector<std::int32_t> rscale = {0, 0};
  NewviewChild inner{right.data(), rscale.data(), setup.pmat_right.data(),
                     nullptr, nullptr};
  std::vector<double> parent(8);
  std::vector<std::int32_t> parent_scale(2);
  newview(dims, tip, inner, parent.data(), parent_scale.data());
  for (std::size_t p = 0; p < 2; ++p) {
    const unsigned tip_state = (p == 0) ? 0u : 2u;
    for (unsigned x = 0; x < 4; ++x) {
      double r = 0.0;
      for (unsigned y = 0; y < 4; ++y)
        r += setup.pmat_right[x * 4 + y] * right[p * 4 + y];
      EXPECT_NEAR(parent[p * 4 + x],
                  setup.pmat_left[x * 4 + tip_state] * r, 1e-14);
    }
  }
}

TEST(Kernels, ScalingTriggersAndCounts) {
  TinySetup setup(0.1, 0.1);
  const KernelDims dims{1, 1, 4};
  // Children so small the product underflows the threshold.
  const double tiny = std::ldexp(1.0, -200);
  const std::vector<double> left(4, tiny);
  const std::vector<double> right(4, tiny);
  const std::vector<std::int32_t> lscale = {3};
  const std::vector<std::int32_t> rscale = {5};
  NewviewChild cl{left.data(), lscale.data(), setup.pmat_left.data(), nullptr,
                  nullptr};
  NewviewChild cr{right.data(), rscale.data(), setup.pmat_right.data(),
                  nullptr, nullptr};
  std::vector<double> parent(4);
  std::vector<std::int32_t> parent_scale(1);
  const std::size_t scaled =
      newview(dims, cl, cr, parent.data(), parent_scale.data());
  EXPECT_EQ(scaled, 1u);
  // Children's counts propagate, plus as many fresh scalings as it takes to
  // clear the threshold: the product sits at ~2^-400, so with a 2^64
  // multiplier and a 2^-64 threshold that is ceil((400-64)/64) = 6.
  EXPECT_EQ(parent_scale[0], 3 + 5 + 6);
  double max_value = 0.0;
  for (unsigned x = 0; x < 4; ++x) max_value = std::max(max_value, parent[x]);
  EXPECT_GE(max_value, kScaleThreshold);
  EXPECT_LT(max_value, kScaleThreshold * kScaleMultiplier);
}

TEST(Kernels, ZeroBlockRescaleTerminates) {
  // Regression: a pattern whose children multiply to exactly 0.0 can never
  // clear kScaleThreshold — the multiplier is an exact power of two, so zero
  // stays zero. The rescale loop used to spin forever (count overflowing);
  // it must now apply exactly one scaling pass and break.
  TinySetup setup(0.1, 0.2);
  const KernelDims dims{2, 1, 4};
  // Pattern 0: left child exactly zero. Pattern 1: ordinary values (the fix
  // must not perturb the non-degenerate path).
  const std::vector<double> left = {0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4};
  const std::vector<double> right = {0.4, 0.3, 0.2, 0.1, 0.4, 0.3, 0.2, 0.1};
  const std::vector<std::int32_t> lscale = {3, 0};
  const std::vector<std::int32_t> rscale = {5, 0};
  NewviewChild cl{left.data(), lscale.data(), setup.pmat_left.data(), nullptr,
                  nullptr};
  NewviewChild cr{right.data(), rscale.data(), setup.pmat_right.data(),
                  nullptr, nullptr};
  std::vector<double> parent(8, -1.0);
  std::vector<std::int32_t> parent_scale(2, -9);
  const std::size_t scaled =
      newview_scalar(dims, cl, cr, parent.data(), parent_scale.data());
  EXPECT_EQ(scaled, 1u);  // only the zero pattern triggered scaling
  // Children's counts propagate plus the single pass that detected the zero.
  EXPECT_EQ(parent_scale[0], 3 + 5 + 1);
  EXPECT_EQ(parent_scale[1], 0);
  for (unsigned x = 0; x < 4; ++x) EXPECT_EQ(parent[x], 0.0);
  for (unsigned x = 4; x < 8; ++x) EXPECT_GT(parent[x], 0.0);
}

TEST(Kernels, UnderflowedSiteDoesNotPoisonDerivatives) {
  // Regression for the derivative guard in evaluate_branch: when a site's
  // likelihood clamps to DBL_MIN (here: exactly zero via a zero P) while
  // the derivative matrices stay nonzero, the d1/d2 ratios overflow to Inf
  // and d2 becomes Inf - Inf = NaN. The guard must drop that site's
  // derivative contribution instead of poisoning the totals.
  const KernelDims dims{1, 1, 4};
  const double freqs[4] = {0.25, 0.25, 0.25, 0.25};
  const std::vector<double> near = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> far = {1.0, 1.0, 1.0, 1.0};
  const std::vector<std::int32_t> zero = {0};
  EvalSide near_side{near.data(), zero.data()};
  EvalSide far_side{far.data(), zero.data()};
  // P all zero (site likelihood 0), dP and d2P large.
  const std::vector<double> pmat(16, 0.0);
  const std::vector<double> dmat(16, 10.0);
  const BranchValue value =
      evaluate_branch(dims, freqs, nullptr, near_side, far_side, pmat.data(),
                      dmat.data(), dmat.data(), true);
  // site_l == 0 -> clamped to numeric_limits::min(); logL is finite...
  EXPECT_NEAR(value.log_likelihood,
              std::log(std::numeric_limits<double>::min()), 1e-12);
  // ...and the unusable curvature signal is dropped, not NaN.
  EXPECT_TRUE(std::isfinite(value.d1)) << value.d1;
  EXPECT_TRUE(std::isfinite(value.d2)) << value.d2;
  EXPECT_EQ(value.d1, 0.0);
  EXPECT_EQ(value.d2, 0.0);
}

/// Multi-block random inputs for the block-parallel determinism checks:
/// patterns deliberately > 2 * kPatternBlock with a ragged tail.
struct BlockInputs {
  KernelDims dims;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<std::int32_t> lscale;
  std::vector<std::int32_t> rscale;
  std::vector<double> pmat_left;
  std::vector<double> pmat_right;
  std::vector<double> dmat;
  std::vector<double> d2mat;
  std::vector<double> freqs = {0.3, 0.22, 0.24, 0.24};
  std::vector<double> weights;

  explicit BlockInputs(std::uint64_t seed)
      : dims{2 * kPatternBlock + 37, 2, 4} {
    Rng rng(seed);
    const std::size_t width = dims.patterns * dims.categories * 4;
    left.resize(width);
    right.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      left[i] = rng.uniform(0.01, 1.0);
      right[i] = rng.uniform(0.01, 1.0);
    }
    lscale.assign(dims.patterns, 0);
    rscale.assign(dims.patterns, 0);
    const EigenSystem eigen = decompose(
        gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24}));
    const auto rates = discrete_gamma_rates(0.7, dims.categories);
    category_transition_matrices(eigen, 0.17, rates, pmat_left);
    category_transition_matrices(eigen, 0.33, rates, pmat_right);
    dmat.resize(16 * dims.categories);
    d2mat.resize(16 * dims.categories);
    for (unsigned c = 0; c < dims.categories; ++c) {
      transition_derivatives(eigen, 0.33 * rates[c],
                             pmat_right.data() + 16 * c, dmat.data() + 16 * c,
                             d2mat.data() + 16 * c);
    }
    weights.resize(dims.patterns);
    for (std::size_t p = 0; p < dims.patterns; ++p)
      weights[p] = 1.0 + static_cast<double>(rng.below(4));
  }
};

TEST(Kernels, BlockParallelNewviewBitIdenticalToSerial) {
  const BlockInputs in(101);
  NewviewChild cl{in.left.data(), in.lscale.data(), in.pmat_left.data(),
                  nullptr, nullptr};
  NewviewChild cr{in.right.data(), in.rscale.data(), in.pmat_right.data(),
                  nullptr, nullptr};
  const std::size_t width = in.dims.patterns * in.dims.categories * 4;
  std::vector<double> serial_out(width);
  std::vector<std::int32_t> serial_scale(in.dims.patterns);
  const std::size_t serial_scaled =
      newview(in.dims, cl, cr, serial_out.data(), serial_scale.data());
  for (const unsigned threads : {2u, 4u}) {
    KernelPool pool(threads);
    std::vector<double> pool_out(width, -1.0);
    std::vector<std::int32_t> pool_scale(in.dims.patterns, -9);
    const std::size_t pool_scaled =
        newview(in.dims, cl, cr, pool_out.data(), pool_scale.data(), &pool);
    EXPECT_EQ(pool_scaled, serial_scaled);
    EXPECT_EQ(pool_scale, serial_scale);
    for (std::size_t i = 0; i < width; ++i)
      ASSERT_EQ(pool_out[i], serial_out[i]) << "element " << i;
  }
}

TEST(Kernels, BlockParallelEvaluateBitIdenticalToSerial) {
  const BlockInputs in(103);
  EvalSide a{in.left.data(), in.lscale.data()};
  EvalSide b{in.right.data(), in.rscale.data()};
  const BranchValue serial = evaluate_branch(
      in.dims, in.freqs.data(), in.weights.data(), a, b, in.pmat_right.data(),
      in.dmat.data(), in.d2mat.data(), true);
  for (const unsigned threads : {2u, 4u}) {
    KernelPool pool(threads);
    const BranchValue parallel = evaluate_branch(
        in.dims, in.freqs.data(), in.weights.data(), a, b,
        in.pmat_right.data(), in.dmat.data(), in.d2mat.data(), true, &pool);
    // Bitwise: the per-block partials are reduced serially in block order,
    // independent of which thread computed each block.
    EXPECT_EQ(parallel.log_likelihood, serial.log_likelihood);
    EXPECT_EQ(parallel.d1, serial.d1);
    EXPECT_EQ(parallel.d2, serial.d2);
  }
}

TEST(Kernels, ScalingPreservesLikelihood) {
  // log(value * threshold * multiplier) must equal log(value) + kLogScaleUnit
  // bookkeeping: check the constants are exact inverses.
  EXPECT_DOUBLE_EQ(kScaleThreshold * kScaleMultiplier, 1.0);
  EXPECT_DOUBLE_EQ(kLogScaleUnit, std::log(kScaleThreshold));
}

TEST(Kernels, EvaluateMatchesManualSingleSite) {
  TinySetup setup(0.25, 0.0);
  const KernelDims dims{1, 1, 4};
  const double freqs[4] = {0.25, 0.25, 0.25, 0.25};
  const std::vector<double> near = {0.3, 0.4, 0.2, 0.1};
  const std::vector<double> far = {0.2, 0.2, 0.5, 0.1};
  const std::vector<std::int32_t> zero = {0};
  EvalSide a{near.data(), zero.data()};
  EvalSide b{far.data(), zero.data()};
  const BranchValue value = evaluate_branch(
      dims, freqs, nullptr, a, b, setup.pmat_left.data(), nullptr, nullptr,
      false);
  double expected = 0.0;
  for (unsigned x = 0; x < 4; ++x) {
    double pb = 0.0;
    for (unsigned y = 0; y < 4; ++y)
      pb += setup.pmat_left[x * 4 + y] * far[y];
    expected += freqs[x] * near[x] * pb;
  }
  EXPECT_NEAR(value.log_likelihood, std::log(expected), 1e-12);
}

TEST(Kernels, EvaluateAppliesWeightsAndScaleCounts) {
  TinySetup setup(0.25, 0.0);
  const KernelDims dims{1, 1, 4};
  const double freqs[4] = {0.25, 0.25, 0.25, 0.25};
  const std::vector<double> near = {0.3, 0.4, 0.2, 0.1};
  const std::vector<double> far = {0.2, 0.2, 0.5, 0.1};
  const std::vector<std::int32_t> zero = {0};
  const std::vector<std::int32_t> two = {2};
  const std::vector<double> weights = {3.0};
  EvalSide a{near.data(), two.data()};
  EvalSide b{far.data(), zero.data()};
  const BranchValue weighted = evaluate_branch(
      dims, freqs, weights.data(), a, b, setup.pmat_left.data(), nullptr,
      nullptr, false);
  EvalSide a0{near.data(), zero.data()};
  const BranchValue plain = evaluate_branch(
      dims, freqs, nullptr, a0, b, setup.pmat_left.data(), nullptr, nullptr,
      false);
  EXPECT_NEAR(weighted.log_likelihood,
              3.0 * (plain.log_likelihood + 2 * kLogScaleUnit), 1e-9);
}

TEST(Kernels, EvaluateDerivativesMatchFiniteDifference) {
  const EigenSystem eigen = decompose(
      gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24}));
  const KernelDims dims{1, 1, 4};
  const double freqs[4] = {0.3, 0.22, 0.24, 0.24};
  const std::vector<double> near = {0.3, 0.4, 0.2, 0.1};
  const std::vector<double> far = {0.2, 0.2, 0.5, 0.1};
  const std::vector<std::int32_t> zero = {0};
  EvalSide a{near.data(), zero.data()};
  EvalSide b{far.data(), zero.data()};

  const auto value_at = [&](double t, bool deriv) {
    std::vector<double> p(16);
    std::vector<double> dp(16);
    std::vector<double> d2p(16);
    transition_derivatives(eigen, t, p.data(), dp.data(), d2p.data());
    return evaluate_branch(dims, freqs, nullptr, a, b, p.data(), dp.data(),
                           d2p.data(), deriv);
  };
  const double t = 0.4;
  const double h = 1e-6;
  const BranchValue center = value_at(t, true);
  const double ll_plus = value_at(t + h, false).log_likelihood;
  const double ll_minus = value_at(t - h, false).log_likelihood;
  EXPECT_NEAR(center.d1, (ll_plus - ll_minus) / (2 * h), 1e-5);
  EXPECT_NEAR(center.d2,
              (ll_plus - 2 * center.log_likelihood + ll_minus) / (h * h),
              1e-2);
}

TEST(Kernels, GenericStateFallbackMatchesSpecialized) {
  // states = 5 exercises the runtime-S path; compare against manual math.
  const KernelDims dims{1, 1, 5};
  std::vector<double> pmat(25, 0.0);
  for (unsigned i = 0; i < 5; ++i) pmat[i * 5 + i] = 1.0;  // identity
  const std::vector<double> left = {0.1, 0.2, 0.3, 0.2, 0.2};
  const std::vector<double> right = {0.5, 0.1, 0.1, 0.2, 0.1};
  const std::vector<std::int32_t> zero = {0};
  NewviewChild cl{left.data(), zero.data(), pmat.data(), nullptr, nullptr};
  NewviewChild cr{right.data(), zero.data(), pmat.data(), nullptr, nullptr};
  std::vector<double> parent(5);
  std::vector<std::int32_t> pscale(1);
  newview(dims, cl, cr, parent.data(), pscale.data());
  for (unsigned x = 0; x < 5; ++x)
    EXPECT_NEAR(parent[x], left[x] * right[x], 1e-15);
}

}  // namespace
}  // namespace plfoc
