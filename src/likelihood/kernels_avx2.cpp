// AVX2 specialisation of the 4-state newview kernel.
//
// One __m256d holds the four states of a (pattern, category) block; the
// child propagation SUM_y P[x][y] * v[y] is computed per x-lane by
// broadcasting v[y] against the transposed matrix column — the identical
// left-to-right multiply/add sequence the scalar kernel performs, so the
// results are bit-for-bit equal (deliberately no FMA: fused rounding would
// break the equality, and with it the suite's cross-configuration
// bit-identity checks).
#include <immintrin.h>

#include "likelihood/kernels_internal.hpp"
#include "util/checks.hpp"

namespace plfoc::detail {

namespace {

/// Transposed 4x4 transition matrix: column y as a vector over x.
struct TransposedP {
  __m256d col[4];
};

__attribute__((target("avx2"))) inline TransposedP transpose(
    const double* p) {
  TransposedP out;
  for (int y = 0; y < 4; ++y)
    out.col[y] = _mm256_set_pd(p[3 * 4 + y], p[2 * 4 + y], p[1 * 4 + y],
                               p[0 * 4 + y]);
  return out;
}

/// (0 + P[:,0]*v0 + P[:,1]*v1 + P[:,2]*v2 + P[:,3]*v3) — the scalar order.
__attribute__((target("avx2"))) inline __m256d propagate(
    const TransposedP& pt, const double* child) {
  __m256d acc = _mm256_setzero_pd();
  for (int y = 0; y < 4; ++y) {
    const __m256d vy = _mm256_set1_pd(child[y]);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(pt.col[y], vy));
  }
  return acc;
}

}  // namespace

__attribute__((target("avx2"))) std::size_t newview4_avx2(
    const KernelDims& dims, const NewviewChild& left,
    const NewviewChild& right, double* parent, std::int32_t* parent_scale,
    std::size_t p_begin, std::size_t p_end) {
  PLFOC_CHECK(dims.states == 4);
  const unsigned cats = dims.categories;
  PLFOC_CHECK(cats <= 16);
  const std::size_t block = static_cast<std::size_t>(cats) * 4;
  const __m256d threshold = _mm256_set1_pd(kScaleThreshold);
  const __m256d multiplier = _mm256_set1_pd(kScaleMultiplier);
  std::size_t scaled = 0;

  TransposedP left_t[16];
  TransposedP right_t[16];
  if (!left.is_tip())
    for (unsigned c = 0; c < cats; ++c)
      left_t[c] = transpose(left.pmat + static_cast<std::size_t>(c) * 16);
  if (!right.is_tip())
    for (unsigned c = 0; c < cats; ++c)
      right_t[c] = transpose(right.pmat + static_cast<std::size_t>(c) * 16);

  for (std::size_t p = p_begin; p < p_end; ++p) {
    double* parent_block = parent + p * block;
    // all_small lane-mask: 1 where the value is below the scaling threshold.
    bool all_small = true;
    for (unsigned c = 0; c < cats; ++c) {
      __m256d l;
      if (left.is_tip()) {
        l = _mm256_loadu_pd(left.lookup +
                            (static_cast<std::size_t>(left.codes[p]) * cats +
                             c) *
                                4);
      } else {
        l = propagate(left_t[c],
                      left.vector + p * block + static_cast<std::size_t>(c) * 4);
      }
      __m256d r;
      if (right.is_tip()) {
        r = _mm256_loadu_pd(right.lookup +
                            (static_cast<std::size_t>(right.codes[p]) * cats +
                             c) *
                                4);
      } else {
        r = propagate(right_t[c], right.vector + p * block +
                                      static_cast<std::size_t>(c) * 4);
      }
      const __m256d out = _mm256_mul_pd(l, r);
      _mm256_storeu_pd(parent_block + static_cast<std::size_t>(c) * 4, out);
      // v >= threshold on any lane => not all small.
      const __m256d below = _mm256_cmp_pd(out, threshold, _CMP_LT_OQ);
      if (_mm256_movemask_pd(below) != 0xF) all_small = false;
    }
    std::int32_t count =
        (left.scale_counts != nullptr ? left.scale_counts[p] : 0) +
        (right.scale_counts != nullptr ? right.scale_counts[p] : 0);
    if (all_small) {
      ++scaled;
      // Repeat until the largest entry clears the threshold (see the scalar
      // kernel for the rationale).
      while (all_small) {
        all_small = true;
        bool any_positive = false;
        for (unsigned c = 0; c < cats; ++c) {
          double* out = parent_block + static_cast<std::size_t>(c) * 4;
          const __m256d scaled_block =
              _mm256_mul_pd(_mm256_loadu_pd(out), multiplier);
          _mm256_storeu_pd(out, scaled_block);
          const __m256d below =
              _mm256_cmp_pd(scaled_block, threshold, _CMP_LT_OQ);
          if (_mm256_movemask_pd(below) != 0xF) all_small = false;
          const __m256d positive =
              _mm256_cmp_pd(scaled_block, _mm256_setzero_pd(), _CMP_GT_OQ);
          if (_mm256_movemask_pd(positive) != 0) any_positive = true;
        }
        ++count;
        // Matches the scalar kernel's max_value == 0.0 break: an all-zero
        // block never clears the threshold, so stop instead of spinning.
        if (!any_positive) break;
      }
    }
    parent_scale[p] = count;
  }
  return scaled;
}

}  // namespace plfoc::detail
