// SIMD dispatch: the AVX2 newview and evaluate_branch kernels (4 and 20
// states) must be bit-identical to the portable kernels (same multiply/add
// order, no FMA, x-sums in x order), so that runtime dispatch never perturbs
// the suite's cross-backend determinism guarantees. Every comparison is on
// the bits: parent vectors, scale counts, scaled-pattern counts and all
// three BranchValue fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "likelihood/kernel_pool.hpp"
#include "likelihood/kernels.hpp"
#include "likelihood/kernels_internal.hpp"
#include "model/eigen.hpp"
#include "model/gamma.hpp"
#include "model/protein_matrices.hpp"
#include "model/transition.hpp"
#include "msa/datatype.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

/// Random kernel inputs for S states, C categories and `patterns` sites:
/// two inner vectors with scale counts, per-category P (and dP, d²P for the
/// left branch), tip codes with a P-folded lookup table and 0/1 indicator
/// rows, frequencies and site weights.
struct Inputs {
  KernelDims dims;
  unsigned codes_count;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<std::int32_t> lscale;
  std::vector<std::int32_t> rscale;
  std::vector<double> pmat_left;
  std::vector<double> pmat_right;
  std::vector<double> dmat;
  std::vector<double> d2mat;
  std::vector<std::uint8_t> codes;
  std::vector<double> lookup;
  std::vector<double> indicator;
  std::vector<double> freqs;
  std::vector<double> weights;

  Inputs(unsigned states, std::size_t patterns, unsigned cats,
         std::uint64_t seed, bool tiny_values = false)
      : dims{patterns, cats, states}, codes_count(states == 4 ? 16 : 24) {
    Rng rng(seed);
    const std::size_t width = patterns * cats * states;
    left.resize(width);
    right.resize(width);
    const double lo = tiny_values ? 1e-80 : 0.01;
    const double hi = tiny_values ? 1e-76 : 1.0;
    for (std::size_t i = 0; i < width; ++i) {
      left[i] = rng.uniform(lo, hi);
      right[i] = rng.uniform(lo, hi);
    }
    lscale.resize(patterns);
    rscale.resize(patterns);
    for (std::size_t p = 0; p < patterns; ++p) {
      lscale[p] = static_cast<std::int32_t>(rng.below(3));
      rscale[p] = static_cast<std::int32_t>(rng.below(3));
    }
    const EigenSystem eigen =
        states == 4 ? decompose(gtr({1.2, 4.5, 0.8, 1.1, 5.2, 1.0},
                                    {0.3, 0.22, 0.24, 0.24}))
                    : decompose(synthetic_protein_model(3));
    const auto rates = discrete_gamma_rates(0.7, cats);
    category_transition_matrices(eigen, 0.17, rates, pmat_left);
    category_transition_matrices(eigen, 0.33, rates, pmat_right);
    const std::size_t matrix = static_cast<std::size_t>(states) * states;
    dmat.resize(cats * matrix);
    d2mat.resize(cats * matrix);
    for (unsigned c = 0; c < cats; ++c)
      transition_derivatives(eigen, 0.17 * rates[c], nullptr,
                             dmat.data() + c * matrix,
                             d2mat.data() + c * matrix);
    codes.resize(patterns);
    for (std::size_t p = 0; p < patterns; ++p)
      codes[p] = static_cast<std::uint8_t>(
          states == 4 ? 1u << rng.below(4) : rng.below(codes_count));
    const std::size_t rows = static_cast<std::size_t>(codes_count) * cats;
    lookup.resize(rows * states);
    for (double& v : lookup) v = rng.uniform(0.01, 1.0);
    indicator.resize(static_cast<std::size_t>(codes_count) * states);
    for (double& v : indicator) v = static_cast<double>(rng.below(2));
    freqs.resize(states);
    double total = 0.0;
    for (double& f : freqs) total += (f = rng.uniform(0.5, 1.5));
    for (double& f : freqs) f /= total;
    weights.resize(patterns);
    for (double& w : weights) w = static_cast<double>(1 + rng.below(4));
  }

  /// Drives evaluate_branch into its two guards on an inner far side (the
  /// left vector). Every third pattern's far block drops to subnormal
  /// values, so its site clamps to numeric_limits::min(). Column 0 of every
  /// dP and d²P is huge, and far state 0 is zero except on every fifth
  /// pattern: there the d1 ratio squared overflows and the isfinite rule
  /// drops the site's derivative terms. The other sites keep finite ones.
  void make_underflow() {
    const unsigned states = dims.states;
    const std::size_t block =
        static_cast<std::size_t>(dims.categories) * states;
    for (std::size_t p = 0; p < dims.patterns; ++p)
      for (std::size_t i = 0; i < block; ++i) {
        double& v = left[p * block + i];
        if (p % 5 != 0 && i % states == 0) v = 0.0;
        if (p % 3 == 0) v *= 1e-310;
      }
    for (std::size_t i = 0; i < dmat.size(); i += states) {
      dmat[i] = 1e200;
      d2mat[i] = 1e200;
    }
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

  EvalSide inner_near() const { return {right.data(), rscale.data()}; }
  EvalSide inner_far() const { return {left.data(), lscale.data()}; }
  EvalSide tip_near() const {
    return {nullptr, nullptr, codes.data(), indicator.data()};
  }
};

void expect_same_bits(const std::vector<double>& expected,
                      const std::vector<double>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << "element " << i << ": " << expected[i] << " vs " << actual[i];
}

void expect_same_bits(const BranchValue& expected, const BranchValue& actual) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.log_likelihood),
            std::bit_cast<std::uint64_t>(actual.log_likelihood))
      << expected.log_likelihood << " vs " << actual.log_likelihood;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.d1),
            std::bit_cast<std::uint64_t>(actual.d1))
      << expected.d1 << " vs " << actual.d1;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.d2),
            std::bit_cast<std::uint64_t>(actual.d2))
      << expected.d2 << " vs " << actual.d2;
}

void expect_bit_identical(const Inputs& in, const NewviewChild& left,
                          const NewviewChild& right) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const std::size_t width =
      in.dims.patterns * in.dims.categories * in.dims.states;
  std::vector<double> scalar_out(width);
  std::vector<double> simd_out(width, -1.0);
  std::vector<std::int32_t> scalar_scale(in.dims.patterns);
  std::vector<std::int32_t> simd_scale(in.dims.patterns, -9);
  const std::size_t scalar_scaled =
      newview_scalar(in.dims, left, right, scalar_out.data(),
                     scalar_scale.data());
  const std::size_t simd_scaled =
      detail::newview_avx2(in.dims, left, right, simd_out.data(),
                           simd_scale.data(), 0, in.dims.patterns);
  EXPECT_EQ(scalar_scaled, simd_scaled);
  EXPECT_EQ(scalar_scale, simd_scale);
  expect_same_bits(scalar_out, simd_out);
}

/// The AVX2 evaluate kernel against the scalar one, twice: over the first
/// pattern block directly (no dispatch involved), and through the public
/// evaluate_branch over every block (dispatch plus the serial block
/// reduction).
void expect_bit_identical(const Inputs& in, const EvalSide& near_side,
                          const EvalSide& far_side, bool with_derivatives) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const double* dmats = with_derivatives ? in.dmat.data() : nullptr;
  const double* d2mats = with_derivatives ? in.d2mat.data() : nullptr;
  KernelDims first = in.dims;
  first.patterns = std::min(in.dims.patterns, kPatternBlock);
  expect_same_bits(
      evaluate_branch_scalar(first, in.freqs.data(), in.weights.data(),
                             near_side, far_side, in.pmat_left.data(), dmats,
                             d2mats, with_derivatives),
      detail::evaluate_avx2(first, in.freqs.data(), in.weights.data(),
                            near_side, far_side, in.pmat_left.data(), dmats,
                            d2mats, with_derivatives, 0, first.patterns));
  expect_same_bits(
      evaluate_branch_scalar(in.dims, in.freqs.data(), in.weights.data(),
                             near_side, far_side, in.pmat_left.data(), dmats,
                             d2mats, with_derivatives),
      evaluate_branch(in.dims, in.freqs.data(), in.weights.data(), near_side,
                      far_side, in.pmat_left.data(), dmats, d2mats,
                      with_derivatives));
}

// --------------------------------------------------------------- newview

TEST(KernelsSimd, InnerInnerBitIdentical) {
  const Inputs in(4, 137, 4, 1);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, TipInnerBitIdentical) {
  const Inputs in(4, 137, 4, 2);
  expect_bit_identical(in, in.tip(), in.inner_right());
}

TEST(KernelsSimd, TipTipBitIdentical) {
  const Inputs in(4, 137, 4, 3);
  expect_bit_identical(in, in.tip(), in.tip());
}

TEST(KernelsSimd, SingleCategoryBitIdentical) {
  const Inputs in(4, 64, 1, 4);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, ScalingPathBitIdentical) {
  // Tiny values force the scaling branch: counts and multiplied values must
  // match exactly too.
  const Inputs in(4, 50, 4, 5, /*tiny_values=*/true);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

/// Zeroes one child's vector for every fifth pattern: those blocks multiply
/// to exactly 0.0 and can never clear the scale threshold.
void zero_left_blocks(Inputs& in) {
  const std::size_t block =
      static_cast<std::size_t>(in.dims.categories) * in.dims.states;
  for (std::size_t p = 0; p < in.dims.patterns; p += 5)
    for (std::size_t i = 0; i < block; ++i) in.left[p * block + i] = 0.0;
}

TEST(KernelsSimd, ZeroBlockTerminatesAndMatchesScalar) {
  // Regression for the unbounded rescale loop: both kernels must break out
  // of a zero block (identically, preserving bit-identity) instead of
  // spinning forever; tiny values elsewhere keep the scaling branch hot.
  Inputs in(4, 50, 4, 7, /*tiny_values=*/true);
  zero_left_blocks(in);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, Newview20InnerInnerBitIdentical) {
  const Inputs in(20, 137, 4, 11);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, Newview20TipInnerBitIdentical) {
  const Inputs in(20, 137, 4, 12);
  expect_bit_identical(in, in.tip(), in.inner_right());
  expect_bit_identical(in, in.inner_left(), in.tip());
}

TEST(KernelsSimd, Newview20TipTipBitIdentical) {
  const Inputs in(20, 137, 4, 13);
  expect_bit_identical(in, in.tip(), in.tip());
}

TEST(KernelsSimd, Newview20SingleCategoryBitIdentical) {
  const Inputs in(20, 64, 1, 14);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, Newview20ScalingPathBitIdentical) {
  const Inputs in(20, 50, 4, 15, /*tiny_values=*/true);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, Newview20ZeroBlockTerminatesAndMatchesScalar) {
  Inputs in(20, 50, 4, 16, /*tiny_values=*/true);
  zero_left_blocks(in);
  expect_bit_identical(in, in.inner_left(), in.inner_right());
}

TEST(KernelsSimd, PublicNewviewDispatchesConsistently) {
  // Whatever path newview() picks, it must agree with the scalar reference.
  for (const unsigned states : {4u, 20u}) {
    SCOPED_TRACE(states);
    const Inputs in(states, 90, 4, 6);
    const std::size_t width = in.dims.patterns * 4 * states;
    std::vector<double> a(width);
    std::vector<double> b(width);
    std::vector<std::int32_t> sa(in.dims.patterns);
    std::vector<std::int32_t> sb(in.dims.patterns);
    newview(in.dims, in.inner_left(), in.inner_right(), a.data(), sa.data());
    newview_scalar(in.dims, in.inner_left(), in.inner_right(), b.data(),
                   sb.data());
    expect_same_bits(b, a);
    EXPECT_EQ(sa, sb);
  }
}

/// Child inputs for the 4-state newview seam test, each aimed at one way
/// the four-patterns-per-vector kernel could drift from the scalar one.
enum class NewviewSeam { kPlain, kMixedScaling, kZeroBlocks, kNonFinite };

/// Applies `seam` to 4-state inputs, to the inner vectors by pattern and to
/// the tip lookup rows by code (DNA codes here are 1, 2, 4 and 8):
///  * kMixedScaling: every seventh pattern and code 4 shrink by 1e-150, so
///    they scale several times; patterns p % 3 != 1 and code 1 shrink by
///    1e-12, so they scale once; the rest do not scale. Quads mix lanes
///    that scale with lanes that do not;
///  * kZeroBlocks: every fifth pattern's left block and code 2's rows are
///    zero, so those products stay 0.0 and never clear the threshold, and
///    every other pattern shrinks by 1e-12 so that the scaling loop runs;
///  * kNonFinite: every third pattern shrinks by 1e-12 and its left block
///    holds a NaN, +inf or -inf at one entry, so that entry decides whether
///    the pattern scales (the scalar test counts a NaN as small); code 8's
///    row holds +inf at state 1 and code 2's a NaN at state 3, in
///    category 0.
void apply_newview_seam(Inputs& in, NewviewSeam seam) {
  const std::size_t block = static_cast<std::size_t>(in.dims.categories) * 4;
  const auto shrink_pattern = [&](std::size_t p, double factor) {
    for (std::size_t i = 0; i < block; ++i) {
      in.left[p * block + i] *= factor;
      in.right[p * block + i] *= factor;
    }
  };
  const auto shrink_code = [&](std::size_t code, double factor) {
    for (std::size_t i = 0; i < block; ++i)
      in.lookup[code * block + i] *= factor;
  };
  switch (seam) {
    case NewviewSeam::kPlain:
      break;
    case NewviewSeam::kMixedScaling:
      for (std::size_t p = 0; p < in.dims.patterns; ++p) {
        if (p % 7 == 0)
          shrink_pattern(p, 1e-150);
        else if (p % 3 != 1)
          shrink_pattern(p, 1e-12);
      }
      shrink_code(4, 1e-150);
      shrink_code(1, 1e-12);
      break;
    case NewviewSeam::kZeroBlocks:
      for (std::size_t p = 0; p < in.dims.patterns; ++p) {
        if (p % 5 == 0)
          for (std::size_t i = 0; i < block; ++i) in.left[p * block + i] = 0.0;
        else if (p % 2 == 0)
          shrink_pattern(p, 1e-12);
      }
      shrink_code(2, 0.0);
      break;
    case NewviewSeam::kNonFinite: {
      const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
      for (std::size_t p = 1; p < in.dims.patterns; p += 3) {
        shrink_pattern(p, 1e-12);
        in.left[p * block + (p % in.dims.categories) * 4 + p % 4] =
            values[(p / 3) % 3];
      }
      in.lookup[8 * block + 1] = std::numeric_limits<double>::infinity();
      in.lookup[2 * block + 3] = std::numeric_limits<double>::quiet_NaN();
      break;
    }
  }
}

/// newview_scalar against the AVX2 kernel: over every pattern in one call;
/// over [h, P) and then [0, h) with h odd, so that the quads of the first
/// call end ragged in front of patterns that are already written; and
/// through the public newview on a 2-thread KernelPool, whose last pattern
/// block ends ragged.
void expect_newview_bit_identical(const Inputs& in, const NewviewChild& left,
                                  const NewviewChild& right,
                                  KernelPool& pool) {
  expect_bit_identical(in, left, right);
  if (testing::Test::HasFatalFailure() || testing::Test::IsSkipped()) return;
  const std::size_t patterns = in.dims.patterns;
  const std::size_t width = patterns * in.dims.categories * 4;
  std::vector<double> scalar_out(width);
  std::vector<std::int32_t> scalar_scale(patterns);
  const std::size_t scalar_scaled = newview_scalar(
      in.dims, left, right, scalar_out.data(), scalar_scale.data());

  std::vector<double> split_out(width, -1.0);
  std::vector<std::int32_t> split_scale(patterns, -9);
  const std::size_t h = std::min(patterns, (patterns / 2) | 1);
  std::size_t split_scaled = detail::newview_avx2(
      in.dims, left, right, split_out.data(), split_scale.data(), h, patterns);
  split_scaled += detail::newview_avx2(in.dims, left, right, split_out.data(),
                                       split_scale.data(), 0, h);
  EXPECT_EQ(scalar_scaled, split_scaled);
  EXPECT_EQ(scalar_scale, split_scale);
  expect_same_bits(scalar_out, split_out);
  if (testing::Test::HasFatalFailure()) return;

  std::vector<double> pool_out(width, -1.0);
  std::vector<std::int32_t> pool_scale(patterns, -9);
  EXPECT_EQ(scalar_scaled, newview(in.dims, left, right, pool_out.data(),
                                   pool_scale.data(), &pool));
  EXPECT_EQ(scalar_scale, pool_scale);
  expect_same_bits(scalar_out, pool_out);
}

/// Whether some four-pattern group from pattern 0 has lanes that scaled
/// beside lanes that did not.
bool some_quad_scales_in_part(const Inputs& in) {
  const std::size_t width = in.dims.patterns * in.dims.categories * 4;
  std::vector<double> out(width);
  std::vector<std::int32_t> scale(in.dims.patterns);
  newview_scalar(in.dims, in.inner_left(), in.inner_right(), out.data(),
                 scale.data());
  for (std::size_t first = 0; first + 4 <= in.dims.patterns; first += 4) {
    unsigned scaled = 0;
    for (std::size_t p = first; p < first + 4; ++p)
      scaled += scale[p] != in.lscale[p] + in.rscale[p] ? 1 : 0;
    if (scaled != 0 && scaled != 4) return true;
  }
  return false;
}

TEST(KernelsSimd, NewviewFourPatternLanesBitIdenticalAtEverySeam) {
  // The pattern counts of the evaluate seam test below: every leftover
  // length 0–3 after zero, one and two quads, pattern blocks that end with
  // 3 left over, none, or a one-pattern block, and a ragged third block.
  // Each count runs every pair of child kinds, with 1, 4 and 16 categories.
  const std::size_t counts[] = {1,   2,   3,   4,   5,   6,  7,
                                8,   9,   255, 256, 257, 601};
  const NewviewSeam seams[] = {NewviewSeam::kPlain, NewviewSeam::kMixedScaling,
                               NewviewSeam::kZeroBlocks,
                               NewviewSeam::kNonFinite};
  KernelPool pool(2);
  std::uint64_t seed = 200;
  for (const NewviewSeam seam : seams)
    for (const std::size_t patterns : counts)
      for (const unsigned cats : {1u, 4u, 16u}) {
        Inputs in(4, patterns, cats, ++seed);
        apply_newview_seam(in, seam);
        if (seam == NewviewSeam::kMixedScaling && patterns >= 8) {
          ASSERT_TRUE(some_quad_scales_in_part(in)) << patterns;
        }
        const NewviewChild kinds[][2] = {{in.inner_left(), in.inner_right()},
                                         {in.tip(), in.inner_right()},
                                         {in.inner_left(), in.tip()},
                                         {in.tip(), in.tip()}};
        for (const auto& [left, right] : kinds) {
          SCOPED_TRACE(testing::Message()
                       << "seam=" << static_cast<int>(seam)
                       << " patterns=" << patterns << " categories=" << cats
                       << " left=" << (left.is_tip() ? "tip" : "inner")
                       << " right=" << (right.is_tip() ? "tip" : "inner"));
          expect_newview_bit_identical(in, left, right, pool);
          if (HasFailure() || IsSkipped()) return;
        }
      }
}

// ------------------------------------------------------- evaluate_branch

/// 601 patterns: three pattern blocks, the last ragged and not a multiple
/// of the four-lane width.
constexpr std::size_t kEvalPatterns = 601;
static_assert(kEvalPatterns > 2 * kPatternBlock && kEvalPatterns % 4 != 0);

/// Both near sides {tip, inner} × {with, without derivatives} against the
/// inner far side, on one input set.
void expect_all_sides_bit_identical(const Inputs& in) {
  for (const bool derivatives : {false, true})
    for (const bool near_tip : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "derivatives=" << derivatives
                   << " near=" << (near_tip ? "tip" : "inner"));
      expect_bit_identical(in, near_tip ? in.tip_near() : in.inner_near(),
                           in.inner_far(), derivatives);
    }
}

TEST(KernelsSimd, EvaluateBitIdenticalAcrossSidesStatesAndCategories) {
  std::uint64_t seed = 20;
  for (const unsigned states : {4u, 20u})
    for (const unsigned cats : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "states=" << states << " categories=" << cats);
      expect_all_sides_bit_identical(
          Inputs(states, kEvalPatterns, cats, ++seed));
    }
}

TEST(KernelsSimd, EvaluateUnderflowClampAndFiniteDropBitIdentical) {
  std::uint64_t seed = 40;
  for (const unsigned states : {4u, 20u})
    for (const unsigned cats : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "states=" << states << " categories=" << cats);
      Inputs in(states, kEvalPatterns, cats, ++seed);
      in.make_underflow();
      expect_all_sides_bit_identical(in);
      // The every-fifth sites really reach the isfinite drop: without it
      // their d2 terms are -Inf and poison the totals, and the other sites
      // still contribute finite derivatives.
      const BranchValue value = evaluate_branch_scalar(
          in.dims, in.freqs.data(), in.weights.data(), in.inner_near(),
          in.inner_far(), in.pmat_left.data(), in.dmat.data(),
          in.d2mat.data(), true);
      EXPECT_TRUE(std::isfinite(value.d1) && std::isfinite(value.d2));
      EXPECT_NE(value.d1, 0.0);
    }
}

/// Input variants for the 4-state seam test, each aimed at one way the
/// four-patterns-per-vector kernel could drift from the scalar one.
enum class Seam { kPlain, kNegativeZero, kNaN, kSubnormal };

/// Applies `seam` to 4-state inputs:
///  * kNegativeZero: every dP and d²P entry negative, and every other
///    pattern's far block zero, so those lanes sum products of -0.0;
///  * kNaN: one NaN in the near vector (inner: the middle pattern's state 1
///    in category 0; tip: the middle pattern reads indicator row 0, whose
///    state 1 is NaN);
///  * kSubnormal: every other pattern's far block scaled into the
///    subnormal range, so its site clamps.
void apply_seam(Inputs& in, Seam seam) {
  const std::size_t block = static_cast<std::size_t>(in.dims.categories) * 4;
  const std::size_t mid = in.dims.patterns / 2;
  switch (seam) {
    case Seam::kPlain:
      break;
    case Seam::kNegativeZero:
      for (double& v : in.dmat) v = -std::abs(v) - 0.5;
      for (double& v : in.d2mat) v = -std::abs(v) - 0.5;
      for (std::size_t p = 0; p < in.dims.patterns; p += 2)
        for (std::size_t i = 0; i < block; ++i) in.left[p * block + i] = 0.0;
      break;
    case Seam::kNaN:
      in.right[mid * block + 1] = std::nan("");
      in.codes[mid] = 0;
      in.indicator[0] = 1.0;
      in.indicator[1] = std::nan("");
      in.indicator[2] = 1.0;
      in.indicator[3] = 1.0;
      break;
    case Seam::kSubnormal:
      for (std::size_t p = 1; p < in.dims.patterns; p += 2)
        for (std::size_t i = 0; i < block; ++i)
          in.left[p * block + i] *= 1e-310;
      break;
  }
}

TEST(KernelsSimd, EvaluateFourPatternLanesBitIdenticalAtEverySeam) {
  // Pattern counts 1–9 give every leftover length 0–3 with zero, one and
  // two four-pattern groups; 255/256/257 end a pattern block with 3 left
  // over, none, and a one-pattern second block; 601 has a ragged third
  // block. evaluate_branch must equal evaluate_branch_scalar bit for bit.
  const std::size_t counts[] = {1,   2,   3,   4,   5,   6,  7,
                                8,   9,   255, 256, 257, 601};
  const Seam seams[] = {Seam::kPlain, Seam::kNegativeZero, Seam::kNaN,
                        Seam::kSubnormal};
  std::uint64_t seed = 60;
  for (const Seam seam : seams)
    for (const std::size_t patterns : counts)
      for (const unsigned cats : {1u, 4u, 16u}) {
        SCOPED_TRACE(testing::Message()
                     << "seam=" << static_cast<int>(seam)
                     << " patterns=" << patterns << " categories=" << cats);
        Inputs in(4, patterns, cats, ++seed);
        apply_seam(in, seam);
        expect_all_sides_bit_identical(in);
        if (HasFatalFailure() || IsSkipped()) return;
      }
}

// ------------------------------------------------ tip near side, by code

/// Replaces the random tip codes with the data type's own: indicator rows
/// from code_state_mask (DNA code 0, which encode_char never yields, keeps
/// the all-zero row TipStates gives it). Groups of four patterns alternate
/// between one-hot codes only (a 4-state quad of one-hot codes) and a cycle
/// through every code — one-hot, two-state ambiguities (R, Y, B, Z, J) and
/// all-ones.
void use_alphabet(Inputs& in, DataType type) {
  const unsigned states = in.dims.states;
  in.codes_count = num_codes(type);
  in.indicator.assign(static_cast<std::size_t>(in.codes_count) * states, 0.0);
  std::vector<std::uint8_t> one_hot;
  for (unsigned code = 0; code < in.codes_count; ++code) {
    const std::uint32_t mask =
        type == DataType::kDna && code == 0
            ? 0u
            : code_state_mask(type, static_cast<std::uint8_t>(code));
    for (unsigned x = 0; x < states; ++x)
      in.indicator[code * states + x] = (mask >> x) & 1u ? 1.0 : 0.0;
    if (std::has_single_bit(mask))
      one_hot.push_back(static_cast<std::uint8_t>(code));
  }
  for (std::size_t p = 0; p < in.dims.patterns; ++p)
    in.codes[p] = (p / 4) % 2 == 0
                      ? one_hot[(5 * p + p / 8) % one_hot.size()]
                      : static_cast<std::uint8_t>((7 * p + 3) % in.codes_count);
}

/// Far-side variants for the tip-near seam test. A tip near side lets the
/// kernel skip the states its code rules out, which is exact only while
/// every skipped far_x is finite; each variant aims at one way that fails.
enum class TipSeam { kPlain, kNonFinite, kHuge, kSubnormal, kNegativeZero };

///  * kNonFinite: every third pattern holds a NaN, +inf or -inf at one
///    state of one category;
///  * kHuge: every other pattern's far block is 1e300, and row 1 of every
///    P, dP and d²P has entries of 1e10, so far_1 overflows and the other
///    far_x stay finite: only a code that rules state 1 out can skip it;
///  * kSubnormal: every other pattern's far block is scaled into the
///    subnormal range, so its site clamps;
///  * kNegativeZero: every dP and d²P entry is negative and every other
///    far block holds the smallest subnormal, so every product of dP·v
///    rounds to -0.0 and only the 0.0 start makes dfar_x +0.0.
void apply_tip_seam(Inputs& in, TipSeam seam) {
  const unsigned states = in.dims.states;
  const unsigned cats = in.dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  const std::size_t matrix = static_cast<std::size_t>(states) * states;
  switch (seam) {
    case TipSeam::kPlain:
      break;
    case TipSeam::kNonFinite: {
      const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
      for (std::size_t p = 1; p < in.dims.patterns; p += 3)
        in.left[p * block + (p % cats) * states + p % states] =
            values[(p / 3) % 3];
      break;
    }
    case TipSeam::kHuge:
      for (std::size_t p = 0; p < in.dims.patterns; p += 2)
        for (std::size_t i = 0; i < block; ++i) in.left[p * block + i] = 1e300;
      for (std::vector<double>* m : {&in.pmat_left, &in.dmat, &in.d2mat})
        for (unsigned c = 0; c < cats; ++c)
          for (unsigned y = 0; y < states; ++y)
            (*m)[c * matrix + states + y] = 1e10;
      break;
    case TipSeam::kSubnormal:
      for (std::size_t p = 1; p < in.dims.patterns; p += 2)
        for (std::size_t i = 0; i < block; ++i)
          in.left[p * block + i] *= 1e-310;
      break;
    case TipSeam::kNegativeZero:
      for (double& v : in.dmat) v = -std::abs(v) - 0.01;
      for (double& v : in.d2mat) v = -std::abs(v) - 0.01;
      for (std::size_t p = 0; p < in.dims.patterns; p += 2)
        for (std::size_t i = 0; i < block; ++i)
          in.left[p * block + i] = std::numeric_limits<double>::denorm_min();
      break;
  }
}

/// Every code of `type` on the tip near side, at pattern counts that end
/// every group and block shape (see the four-pattern test above), with 1,
/// 4 and 16 categories and with and without derivatives: evaluate_branch
/// must equal evaluate_branch_scalar bit for bit.
void expect_tip_near_bit_identical(DataType type) {
  const std::size_t counts[] = {1,   2,   3,   4,   5,   6,  7,
                                8,   9,   255, 256, 257, 601};
  const TipSeam seams[] = {TipSeam::kPlain, TipSeam::kNonFinite,
                           TipSeam::kHuge, TipSeam::kSubnormal,
                           TipSeam::kNegativeZero};
  const unsigned states = num_states(type);
  std::uint64_t seed = 100 + states;
  for (const TipSeam seam : seams)
    for (const std::size_t patterns : counts)
      for (const unsigned cats : {1u, 4u, 16u})
        for (const bool derivatives : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "seam=" << static_cast<int>(seam)
                       << " patterns=" << patterns << " categories=" << cats
                       << " derivatives=" << derivatives);
          Inputs in(states, patterns, cats, ++seed);
          use_alphabet(in, type);
          apply_tip_seam(in, seam);
          expect_bit_identical(in, in.tip_near(), in.inner_far(),
                               derivatives);
          if (testing::Test::HasFailure() || testing::Test::IsSkipped())
            return;
        }
}

TEST(KernelsSimd, EvaluateTipNearDnaCodesBitIdentical) {
  expect_tip_near_bit_identical(DataType::kDna);
}

TEST(KernelsSimd, EvaluateTipNearProteinCodesBitIdentical) {
  expect_tip_near_bit_identical(DataType::kProtein);
}

// accumulate_site is the tail both evaluate paths share. When a NaN running
// logL meets a NaN site term, the stored result is the one fixed quiet NaN,
// whichever operand holds which payload. The inputs pass through volatiles
// so the compiler cannot fold the sum at build time.
TEST(KernelsSimd, AccumulateSiteStoresOneFixedNaN) {
  const std::uint64_t payloads[] = {0xfff8000000000000u,   // x86's default
                                    0x7ff8000000000123u};  // quiet, tagged
  const std::uint64_t fixed =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN());
  for (int order = 0; order < 2; ++order) {
    volatile double running = std::bit_cast<double>(payloads[order]);
    volatile double site = std::bit_cast<double>(payloads[1 - order]);
    BranchValue result;
    result.log_likelihood = running;
    detail::accumulate_site(result, site, 0.0, 0.0, 0, 1.0, false);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.log_likelihood), fixed)
        << "order " << order;
  }
}

}  // namespace
}  // namespace plfoc
