// SIMD dispatch: the AVX2 4-state newview must be bit-identical to the
// portable kernel (same multiply/add order, no FMA), so that runtime dispatch
// never perturbs the suite's cross-backend determinism guarantees.
#include <gtest/gtest.h>

#include <vector>

#include "likelihood/kernels.hpp"
#include "likelihood/kernels_internal.hpp"
#include "model/eigen.hpp"
#include "model/gamma.hpp"
#include "model/transition.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

struct Inputs {
  KernelDims dims;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<std::int32_t> lscale;
  std::vector<std::int32_t> rscale;
  std::vector<double> pmat_left;
  std::vector<double> pmat_right;
  std::vector<std::uint8_t> codes;
  std::vector<double> lookup;

  Inputs(std::size_t patterns, unsigned cats, std::uint64_t seed,
         bool tiny_values = false)
      : dims{patterns, cats, 4} {
    Rng rng(seed);
    const std::size_t width = patterns * cats * 4;
    left.resize(width);
    right.resize(width);
    const double lo = tiny_values ? 1e-80 : 0.01;
    const double hi = tiny_values ? 1e-76 : 1.0;
    for (std::size_t i = 0; i < width; ++i) {
      left[i] = rng.uniform(lo, hi);
      right[i] = rng.uniform(lo, hi);
    }
    lscale.assign(patterns, 1);
    rscale.assign(patterns, 2);
    const EigenSystem eigen = decompose(
        gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0}, {0.3, 0.22, 0.24, 0.24}));
    const auto rates = discrete_gamma_rates(0.7, cats);
    category_transition_matrices(eigen, 0.17, rates, pmat_left);
    category_transition_matrices(eigen, 0.33, rates, pmat_right);
    codes.resize(patterns);
    for (std::size_t p = 0; p < patterns; ++p)
      codes[p] = static_cast<std::uint8_t>(1u << rng.below(4));
    lookup.resize(16 * cats * 4);
    for (double& v : lookup) v = rng.uniform(0.01, 1.0);
  }

  NewviewChild inner_left() const {
    return {left.data(), lscale.data(), pmat_left.data(), nullptr, nullptr};
  }
  NewviewChild inner_right() const {
    return {right.data(), rscale.data(), pmat_right.data(), nullptr, nullptr};
  }
  NewviewChild tip() const {
    return {nullptr, nullptr, nullptr, codes.data(), lookup.data()};
  }
};

void expect_bit_identical(const Inputs& in, const NewviewChild& left,
                          const NewviewChild& right) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const std::size_t width = in.dims.patterns * in.dims.categories * 4;
  std::vector<double> scalar_out(width);
  std::vector<double> simd_out(width, -1.0);
  std::vector<std::int32_t> scalar_scale(in.dims.patterns);
  std::vector<std::int32_t> simd_scale(in.dims.patterns, -9);
  const std::size_t scalar_scaled =
      newview_scalar(in.dims, left, right, scalar_out.data(),
                     scalar_scale.data());
  const std::size_t simd_scaled =
      detail::newview4_avx2(in.dims, left, right, simd_out.data(),
                            simd_scale.data(), 0, in.dims.patterns);
  EXPECT_EQ(scalar_scaled, simd_scaled);
  EXPECT_EQ(scalar_scale, simd_scale);
  for (std::size_t i = 0; i < width; ++i)
    ASSERT_EQ(scalar_out[i], simd_out[i]) << "element " << i;
}

TEST(KernelsSimd, InnerInnerBitIdentical) {
  const Inputs in(137, 4, 1);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, TipInnerBitIdentical) {
  const Inputs in(137, 4, 2);
  expect_bit_identical(in, in.tip(), in.inner_right());
}

TEST(KernelsSimd, TipTipBitIdentical) {
  const Inputs in(137, 4, 3);
  expect_bit_identical(in, in.tip(), in.tip());
}

TEST(KernelsSimd, SingleCategoryBitIdentical) {
  const Inputs in(64, 1, 4);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, ScalingPathBitIdentical) {
  // Tiny values force the scaling branch: counts and multiplied values must
  // match exactly too.
  const Inputs in(50, 4, 5, /*tiny_values=*/true);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, ZeroBlockTerminatesAndMatchesScalar) {
  // Regression for the unbounded rescale loop: a pattern whose children
  // multiply to exactly 0.0 can never clear the scale threshold. Both
  // kernels must break out (identically, preserving bit-identity) instead of
  // spinning forever. Zero one child's vector for a few patterns; tiny
  // values elsewhere keep the scaling branch hot.
  Inputs in(50, 4, 7, /*tiny_values=*/true);
  for (std::size_t p = 0; p < in.dims.patterns; p += 5)
    for (unsigned i = 0; i < in.dims.categories * 4; ++i)
      in.left[p * in.dims.categories * 4 + i] = 0.0;
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, PublicNewviewDispatchesConsistently) {
  // Whatever path newview() picks, it must agree with the scalar reference.
  const Inputs in(90, 4, 6);
  const std::size_t width = in.dims.patterns * 16;
  std::vector<double> a(width);
  std::vector<double> b(width);
  std::vector<std::int32_t> sa(in.dims.patterns);
  std::vector<std::int32_t> sb(in.dims.patterns);
  newview(in.dims, in.inner_left(), in.inner_right(), a.data(), sa.data());
  newview_scalar(in.dims, in.inner_left(), in.inner_right(), b.data(),
                 sb.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa, sb);
}

}  // namespace
}  // namespace plfoc
