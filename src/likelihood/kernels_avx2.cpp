// AVX2 newview and evaluate_branch for 4- and 20-state data.
//
// One template family over the state count S: the S states of a (pattern,
// category) block are S/4 __m256d x-lanes. propagate<S> computes each lane's
// 0 + P[x][0]*v[0] + ... + P[x][S-1]*v[S-1] in y order, from the transposed
// matrix and a broadcast v[y], as a separate multiply then add — the
// identical sequence the scalar kernel performs per x, so the results are
// bit-for-bit equal (deliberately no FMA: fused rounding would break the
// equality, and with it the suite's cross-configuration bit-identity
// checks; the kernel-no-fma lint rule enforces it). The loops over lanes are
// fully unrolled so that the accumulators stay in registers.
//
// A reduction across x must also keep the scalar order, so no horizontal
// add (the kernel-no-hadd lint rule). newview needs none. The 4-state
// evaluate turns the x-sums vertical instead: it transposes four patterns'
// blocks so that lane i holds pattern i, and each lane then runs the scalar
// sequence of multiplies and adds (evaluate_quads). The 20-state evaluate,
// and the 0–3 patterns a 4-state block leaves over, keep S/4 x-lanes per
// pattern and sum across x in scalar code, in x order.
#include <immintrin.h>

#include <limits>

#include "likelihood/kernels_internal.hpp"
#include "util/checks.hpp"

namespace plfoc::detail {

namespace {

/// Writes each category's row-major S×S matrix transposed, so that row y of
/// the result holds column y of P as contiguous x lanes.
template <unsigned S>
void transpose(const double* pmats, unsigned cats, double* out) {
  for (unsigned c = 0; c < cats; ++c) {
    const double* p = pmats + static_cast<std::size_t>(c) * S * S;
    double* t = out + static_cast<std::size_t>(c) * S * S;
    for (unsigned x = 0; x < S; ++x)
      for (unsigned y = 0; y < S; ++y) t[y * S + x] = p[x * S + y];
  }
}

/// out[x] = 0 + P[x][0]*v[0] + ... + P[x][S-1]*v[S-1] — the scalar order.
/// `pt` is one category's transposed matrix (32-byte aligned).
template <unsigned S>
__attribute__((target("avx2"))) inline void propagate(const double* pt,
                                                      const double* v,
                                                      __m256d* out) {
#pragma GCC unroll 8
  for (unsigned k = 0; k < S / 4; ++k) out[k] = _mm256_setzero_pd();
  for (unsigned y = 0; y < S; ++y) {
    const __m256d vy = _mm256_set1_pd(v[y]);
#pragma GCC unroll 8
    for (unsigned k = 0; k < S / 4; ++k)
      out[k] = _mm256_add_pd(
          out[k], _mm256_mul_pd(_mm256_load_pd(pt + y * S + 4 * k), vy));
  }
}

/// Loads S values starting at `from` as S/4 lanes.
template <unsigned S>
__attribute__((target("avx2"))) inline void load_lanes(const double* from,
                                                       __m256d* out) {
#pragma GCC unroll 8
  for (unsigned k = 0; k < S / 4; ++k) out[k] = _mm256_loadu_pd(from + 4 * k);
}

/// Propagated likelihood of one newview child at (p, c): the folded lookup
/// row for a tip, propagate<S> for an inner child.
template <unsigned S>
__attribute__((target("avx2"))) inline void child_lanes(
    const NewviewChild& child, const double* transposed, unsigned cats,
    std::size_t p, unsigned c, __m256d* out) {
  if (child.is_tip()) {
    load_lanes<S>(child.lookup +
                      (static_cast<std::size_t>(child.codes[p]) * cats + c) * S,
                  out);
  } else {
    propagate<S>(transposed + static_cast<std::size_t>(c) * S * S,
                 child.vector + (p * cats + c) * S, out);
  }
}

template <unsigned S>
__attribute__((target("avx2"))) std::size_t newview_lanes(
    const KernelDims& dims, const NewviewChild& left,
    const NewviewChild& right, double* parent, std::int32_t* parent_scale,
    std::size_t p_begin, std::size_t p_end) {
  constexpr unsigned kLanes = S / 4;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * S;
  const __m256d threshold = _mm256_set1_pd(kScaleThreshold);
  const __m256d multiplier = _mm256_set1_pd(kScaleMultiplier);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t scaled = 0;

  // Both children's transposed matrices, packed from the front so that a
  // call touches only the stack pages of the categories it has.
  alignas(32) double transposed[2 * kSimdMaxCategories * S * S];
  double* const left_t = transposed;
  double* const right_t = transposed + static_cast<std::size_t>(cats) * S * S;
  if (!left.is_tip()) transpose<S>(left.pmat, cats, left_t);
  if (!right.is_tip()) transpose<S>(right.pmat, cats, right_t);

  for (std::size_t p = p_begin; p < p_end; ++p) {
    double* parent_block = parent + p * block;
    bool all_small = true;
    for (unsigned c = 0; c < cats; ++c) {
      __m256d l[kLanes];
      __m256d r[kLanes];
      child_lanes<S>(left, left_t, cats, p, c, l);
      child_lanes<S>(right, right_t, cats, p, c, r);
      double* out = parent_block + static_cast<std::size_t>(c) * S;
#pragma GCC unroll 8
      for (unsigned k = 0; k < kLanes; ++k) {
        const __m256d v = _mm256_mul_pd(l[k], r[k]);
        _mm256_storeu_pd(out + 4 * k, v);
        // The scalar test is v >= threshold; an ordered compare keeps NaN
        // lanes "small" there too.
        if (_mm256_movemask_pd(_mm256_cmp_pd(v, threshold, _CMP_GE_OQ)) != 0)
          all_small = false;
      }
    }
    std::int32_t count = scale_sum(left.scale_counts, right.scale_counts, p);
    if (all_small) {
      ++scaled;
      // The scalar rule: repeat until the largest entry clears the
      // threshold, stopping on a block with no positive entry (an all-zero
      // block never clears it). "max >= threshold" is "some lane >=
      // threshold", and "max == 0" is "no lane > 0".
      while (all_small) {
        bool any_large = false;
        bool any_positive = false;
        for (std::size_t i = 0; i < block; i += 4) {
          const __m256d v =
              _mm256_mul_pd(_mm256_loadu_pd(parent_block + i), multiplier);
          _mm256_storeu_pd(parent_block + i, v);
          any_large |=
              _mm256_movemask_pd(_mm256_cmp_pd(v, threshold, _CMP_GE_OQ)) != 0;
          any_positive |=
              _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GT_OQ)) != 0;
        }
        ++count;
        if (!any_positive) break;
        all_small = !any_large;
      }
    }
    parent_scale[p] = count;
  }
  return scaled;
}

/// Sums S values in x order, starting from 0 — the scalar accumulation.
template <unsigned S>
inline double sum_in_order(const double* values) {
  double sum = 0.0;
  for (unsigned x = 0; x < S; ++x) sum += values[x];
  return sum;
}

/// The per-pattern evaluate over [p_begin, p_end), added to `result` in
/// pattern order: each (pattern, category) block's S states are S/4
/// x-lanes, and the x-sums run in scalar x order.
template <unsigned S, bool kDerivatives>
__attribute__((target("avx2"))) void evaluate_patterns(
    const KernelDims& dims, const double* freqs, const double* weights,
    const EvalSide& near_side, const EvalSide& far_side, const double* pmats,
    const double* dmats, const double* d2mats, std::size_t p_begin,
    std::size_t p_end, BranchValue& result) {
  constexpr unsigned kLanes = S / 4;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * S;
  const double cat_weight = 1.0 / cats;

  // The transposed P (and dP, d²P) of every category, packed from the
  // front as in newview_lanes.
  alignas(32) double
      transposed[(kDerivatives ? 3 : 1) * kSimdMaxCategories * S * S];
  double* const pt = transposed;
  double* const dpt = pt + static_cast<std::size_t>(cats) * S * S;
  double* const d2pt = dpt + static_cast<std::size_t>(cats) * S * S;
  transpose<S>(pmats, cats, pt);
  if constexpr (kDerivatives) {
    transpose<S>(dmats, cats, dpt);
    transpose<S>(d2mats, cats, d2pt);
  }
  __m256d freq[kLanes];
  load_lanes<S>(freqs, freq);

  for (std::size_t p = p_begin; p < p_end; ++p) {
    double site_l = 0.0;
    double site_d1 = 0.0;
    double site_d2 = 0.0;
    for (unsigned c = 0; c < cats; ++c) {
      // Far side propagated across the branch (and its t-derivatives).
      __m256d far[kLanes];
      __m256d dfar[kLanes];
      __m256d d2far[kLanes];
      const double* vec =
          far_side.vector + p * block + static_cast<std::size_t>(c) * S;
      const std::size_t at = static_cast<std::size_t>(c) * S * S;
      propagate<S>(pt + at, vec, far);
      if constexpr (kDerivatives) {
        propagate<S>(dpt + at, vec, dfar);
        propagate<S>(d2pt + at, vec, d2far);
      }
      // Near side values at this (pattern, category).
      const double* near =
          near_side.is_tip()
              ? near_side.indicator +
                    static_cast<std::size_t>(near_side.codes[p]) * S
              : near_side.vector + p * block + static_cast<std::size_t>(c) * S;
      // base = freqs[x] * near[x]; the products base * far[x] are
      // element-wise, their sum over x is not.
      alignas(32) double prod[S];
      alignas(32) double dprod[S];
      alignas(32) double d2prod[S];
#pragma GCC unroll 8
      for (unsigned k = 0; k < kLanes; ++k) {
        const __m256d base =
            _mm256_mul_pd(freq[k], _mm256_loadu_pd(near + 4 * k));
        _mm256_store_pd(prod + 4 * k, _mm256_mul_pd(base, far[k]));
        if constexpr (kDerivatives) {
          _mm256_store_pd(dprod + 4 * k, _mm256_mul_pd(base, dfar[k]));
          _mm256_store_pd(d2prod + 4 * k, _mm256_mul_pd(base, d2far[k]));
        }
      }
      site_l += sum_in_order<S>(prod);
      if constexpr (kDerivatives) {
        site_d1 += sum_in_order<S>(dprod);
        site_d2 += sum_in_order<S>(d2prod);
      }
    }
    add_site(result, site_l, site_d1, site_d2, cat_weight,
             scale_sum(near_side.scale_counts, far_side.scale_counts, p),
             weights != nullptr ? weights[p] : 1.0, kDerivatives);
  }
}

/// Loads four 4-state rows and transposes them: out[y] holds state y of
/// every row, row i in lane i.
__attribute__((target("avx2"))) inline void transpose_rows(
    const double* r0, const double* r1, const double* r2, const double* r3,
    __m256d* out) {
  const __m256d t0 =
      _mm256_unpacklo_pd(_mm256_loadu_pd(r0), _mm256_loadu_pd(r1));
  const __m256d t1 =
      _mm256_unpackhi_pd(_mm256_loadu_pd(r0), _mm256_loadu_pd(r1));
  const __m256d t2 =
      _mm256_unpacklo_pd(_mm256_loadu_pd(r2), _mm256_loadu_pd(r3));
  const __m256d t3 =
      _mm256_unpackhi_pd(_mm256_loadu_pd(r2), _mm256_loadu_pd(r3));
  out[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  out[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  out[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  out[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Four consecutive blocks of `stride` doubles from `first`, transposed.
__attribute__((target("avx2"))) inline void transpose_blocks(
    const double* first, std::size_t stride, __m256d* out) {
  transpose_rows(first, first + stride, first + 2 * stride, first + 3 * stride,
                 out);
}

/// out[x] = 0 + m[x][0]*v[0] + ... + m[x][3]*v[3] in every lane — the
/// scalar order, with each entry of the row-major 4×4 matrix `m` broadcast
/// to the four patterns.
__attribute__((target("avx2"))) inline void propagate_quad(const double* m,
                                                           const __m256d* v,
                                                           __m256d* out) {
#pragma GCC unroll 4
  for (unsigned x = 0; x < 4; ++x) {
    __m256d sum = _mm256_setzero_pd();
#pragma GCC unroll 4
    for (unsigned y = 0; y < 4; ++y)
      sum = _mm256_add_pd(
          sum, _mm256_mul_pd(_mm256_broadcast_sd(m + 4 * x + y), v[y]));
    out[x] = sum;
  }
}

/// 0 + base[0]*far[0] + ... + base[3]*far[3] in every lane, in x order.
__attribute__((target("avx2"))) inline __m256d dot_quad(const __m256d* base,
                                                        const __m256d* far) {
  __m256d sum = _mm256_setzero_pd();
#pragma GCC unroll 4
  for (unsigned x = 0; x < 4; ++x)
    sum = _mm256_add_pd(sum, _mm256_mul_pd(base[x], far[x]));
  return sum;
}

/// The 4-state evaluate with four patterns per vector, pattern i of a quad
/// in lane i: transposing the blocks makes every per-state sum vertical, so
/// each lane runs the scalar kernel's exact multiply/add sequence with no
/// horizontal add. Adds the quads in [p_begin, p_end) to `result` in
/// pattern order and returns the first pattern of the 0–3 left over.
template <bool kDerivatives>
__attribute__((target("avx2"))) std::size_t evaluate_quads(
    const KernelDims& dims, const double* freqs, const double* weights,
    const EvalSide& near_side, const EvalSide& far_side, const double* pmats,
    const double* dmats, const double* d2mats, std::size_t p_begin,
    std::size_t p_end, BranchValue& result) {
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * 4;
  const __m256d cat_weight = _mm256_set1_pd(1.0 / cats);
  const __m256d min_site = _mm256_set1_pd(std::numeric_limits<double>::min());
  __m256d freq[4];
#pragma GCC unroll 4
  for (unsigned x = 0; x < 4; ++x) freq[x] = _mm256_set1_pd(freqs[x]);

  std::size_t p = p_begin;
  for (; p_end - p >= 4; p += 4) {
    // A tip's base = freqs[x] * indicator[x] is the same in every category.
    __m256d base[4] = {};
    if (near_side.is_tip()) {
      const std::uint8_t* codes = near_side.codes + p;
      const double* indicator = near_side.indicator;
      transpose_rows(indicator + static_cast<std::size_t>(codes[0]) * 4,
                     indicator + static_cast<std::size_t>(codes[1]) * 4,
                     indicator + static_cast<std::size_t>(codes[2]) * 4,
                     indicator + static_cast<std::size_t>(codes[3]) * 4, base);
#pragma GCC unroll 4
      for (unsigned x = 0; x < 4; ++x)
        base[x] = _mm256_mul_pd(freq[x], base[x]);
    }
    __m256d site_l = _mm256_setzero_pd();
    __m256d site_d1 = _mm256_setzero_pd();
    __m256d site_d2 = _mm256_setzero_pd();
    for (unsigned c = 0; c < cats; ++c) {
      const std::size_t offset = p * block + static_cast<std::size_t>(c) * 4;
      if (!near_side.is_tip()) {
        transpose_blocks(near_side.vector + offset, block, base);
#pragma GCC unroll 4
        for (unsigned x = 0; x < 4; ++x)
          base[x] = _mm256_mul_pd(freq[x], base[x]);
      }
      __m256d v[4];
      transpose_blocks(far_side.vector + offset, block, v);
      const std::size_t at = static_cast<std::size_t>(c) * 16;
      __m256d far[4];
      propagate_quad(pmats + at, v, far);
      site_l = _mm256_add_pd(site_l, dot_quad(base, far));
      if constexpr (kDerivatives) {
        propagate_quad(dmats + at, v, far);
        site_d1 = _mm256_add_pd(site_d1, dot_quad(base, far));
        propagate_quad(d2mats + at, v, far);
        site_d2 = _mm256_add_pd(site_d2, dot_quad(base, far));
      }
    }
    // add_site's element-wise head, lane by lane. max(min, site) is
    // std::max(site, min): both return site when it is NaN.
    const __m256d guarded =
        _mm256_max_pd(min_site, _mm256_mul_pd(site_l, cat_weight));
    alignas(32) double g[4];
    alignas(32) double d1[4] = {};
    alignas(32) double d2[4] = {};
    _mm256_store_pd(g, guarded);
    if constexpr (kDerivatives) {
      const __m256d d1_term =
          _mm256_div_pd(_mm256_mul_pd(site_d1, cat_weight), guarded);
      const __m256d d2_term = _mm256_sub_pd(
          _mm256_div_pd(_mm256_mul_pd(site_d2, cat_weight), guarded),
          _mm256_mul_pd(d1_term, d1_term));
      _mm256_store_pd(d1, d1_term);
      _mm256_store_pd(d2, d2_term);
    }
    for (unsigned i = 0; i < 4; ++i)
      accumulate_site(
          result, g[i], d1[i], d2[i],
          scale_sum(near_side.scale_counts, far_side.scale_counts, p + i),
          weights != nullptr ? weights[p + i] : 1.0, kDerivatives);
  }
  return p;
}

template <unsigned S, bool kDerivatives>
__attribute__((target("avx2"))) BranchValue evaluate_lanes(
    const KernelDims& dims, const double* freqs, const double* weights,
    const EvalSide& near_side, const EvalSide& far_side, const double* pmats,
    const double* dmats, const double* d2mats, std::size_t p_begin,
    std::size_t p_end) {
  BranchValue result;
  std::size_t p = p_begin;
  if constexpr (S == 4)
    p = evaluate_quads<kDerivatives>(dims, freqs, weights, near_side,
                                     far_side, pmats, dmats, d2mats, p_begin,
                                     p_end, result);
  if (p < p_end)
    evaluate_patterns<S, kDerivatives>(dims, freqs, weights, near_side,
                                       far_side, pmats, dmats, d2mats, p,
                                       p_end, result);
  return result;
}

}  // namespace

__attribute__((target("avx2"))) std::size_t newview_avx2(
    const KernelDims& dims, const NewviewChild& left,
    const NewviewChild& right, double* parent, std::int32_t* parent_scale,
    std::size_t p_begin, std::size_t p_end) {
  PLFOC_CHECK(dims.categories <= kSimdMaxCategories);
  if (dims.states == 4)
    return newview_lanes<4>(dims, left, right, parent, parent_scale, p_begin,
                            p_end);
  PLFOC_CHECK(dims.states == 20);
  return newview_lanes<20>(dims, left, right, parent, parent_scale, p_begin,
                           p_end);
}

__attribute__((target("avx2"))) BranchValue evaluate_avx2(
    const KernelDims& dims, const double* freqs, const double* weights,
    const EvalSide& near_side, const EvalSide& far_side, const double* pmats,
    const double* dmats, const double* d2mats, bool with_derivatives,
    std::size_t p_begin, std::size_t p_end) {
  PLFOC_CHECK(dims.categories <= kSimdMaxCategories);
  PLFOC_CHECK(dims.states == 4 || dims.states == 20);
  const auto kernel = dims.states == 4
                          ? (with_derivatives ? evaluate_lanes<4, true>
                                              : evaluate_lanes<4, false>)
                          : (with_derivatives ? evaluate_lanes<20, true>
                                              : evaluate_lanes<20, false>);
  return kernel(dims, freqs, weights, near_side, far_side, pmats, dmats,
                d2mats, p_begin, p_end);
}

}  // namespace plfoc::detail
