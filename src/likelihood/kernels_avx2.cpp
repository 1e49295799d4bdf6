// AVX2 newview and evaluate_branch for 4- and 20-state data.
//
// Every lane performs the scalar kernel's multiplies and adds in the scalar
// order: each x-sum is 0 + M[x][0]*v[0] + ... + M[x][S-1]*v[S-1] in y order,
// as a separate multiply then add, so the results are bit-for-bit equal
// (deliberately no FMA: fused rounding would break the equality, and with
// it the suite's cross-configuration bit-identity checks; the kernel-no-fma
// lint rule enforces it). A reduction across x must also keep the scalar
// order, so no horizontal add (the kernel-no-hadd lint rule). The loops
// over lanes are fully unrolled so that the accumulators stay in registers.
//
// 20 states: the S states of a (pattern, category) block are S/4 __m256d
// x-lanes. propagate<S> computes each lane's x-sums from the transposed
// matrix and a broadcast v[y]; newview needs no sum across x, and the
// evaluate with an inner near side sums across x in scalar code, in x
// order.
//
// 4 states: four patterns per vector, pattern i of a quad in lane i. Both
// kernels transpose the quad's blocks so that vector y holds state y of
// every pattern; each lane then runs the scalar sequence with P[x][y]
// broadcast from the row-major matrix, and every sum over states is a
// vertical add (newview_quads, evaluate_quads). newview transposes the
// products back before it stores them. The 0–3 patterns a block leaves
// over form a last quad whose missing lanes read zeros (kZeroRow) and
// reach neither the parent vector nor the branch value.
//
// A tip on the near side needs only the states its code allows: every other
// term of the x-sum is an exact ±0 as long as its far_x is finite, which a
// per-category bound on the far block guarantees (see "the tip near side"
// below). The 20-state evaluate then puts four categories in each vector
// and visits only those states. The 4-state evaluate does not: its quads
// already cost little beyond their logs and transposes.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
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

/// The 20-state newview: each (pattern, category) block's S states are S/4
/// x-lanes.
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

/// Transposes four vectors as a 4×4 matrix: lane i of out[y] is lane y of
/// in[i].
__attribute__((target("avx2"))) inline void transpose_quad(const __m256d* in,
                                                           __m256d* out) {
  const __m256d t0 = _mm256_unpacklo_pd(in[0], in[1]);
  const __m256d t1 = _mm256_unpackhi_pd(in[0], in[1]);
  const __m256d t2 = _mm256_unpacklo_pd(in[2], in[3]);
  const __m256d t3 = _mm256_unpackhi_pd(in[2], in[3]);
  out[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  out[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  out[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  out[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Loads four 4-state rows and transposes them: out[y] holds state y of
/// every row, row i in lane i. This is transpose_quad of the four loads,
/// written out so that the loads fold into the unpacks.
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

// ------------------------------------------------------- the tip near side
//
// A tip's base_x = freqs[x] * indicator[x] is ±0 for every state x its code
// rules out, so the scalar term base_x * far_x is an exact ±0 whenever far_x
// is finite. Added to a sum that starts at +0.0 it changes no bit: such a
// sum is never -0.0, and x + (±0) = x for every other x, NaN and ±inf
// included. The tip path therefore visits only the states x with
// indicator[x] != 0 (NaN counts as nonzero) — for a one-hot code one row of
// P, dP and d²P instead of S — once a guard shows that every far_x it skips
// is finite. Everything else visits all S states.

/// All S states, the visit set of a pattern that the guard turns down.
template <unsigned S>
inline constexpr std::uint32_t kAllStates = (std::uint32_t{1} << S) - 1;

/// Bit x set where row[x] != 0 — an unordered compare, so a NaN entry is
/// in the set.
template <unsigned S>
__attribute__((target("avx2"))) inline std::uint32_t support_mask(
    const double* row) {
  std::uint32_t mask = 0;
#pragma GCC unroll 8
  for (unsigned k = 0; k < S / 4; ++k)
    mask |= static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(
                _mm256_loadu_pd(row + 4 * k), _mm256_setzero_pd(),
                _CMP_NEQ_UQ)))
            << (4 * k);
  return mask;
}

/// The guard's bound for each category c: bound[c] = DBL_MAX / (2·S·m),
/// where m is the largest |entry| of category c's P (and dP, d²P). When
/// every |v_y| <= bound[c], each product M[x][y]·v_y is at most DBL_MAX/(2S)
/// in magnitude, so every x-sum 0 + Σ_y M[x][y]·v_y of any of the matrices
/// is finite. The bound is DBL_MAX when every entry is 0 (it still rejects
/// an infinite v_y, since 0·inf is NaN), and -1 — nothing passes — when an
/// entry or a frequency is not finite (freqs[x]·0 is NaN then).
template <unsigned S>
__attribute__((target("avx2"))) void far_bounds(const double* const* mats,
                                                unsigned count, unsigned cats,
                                                const double* freqs,
                                                double* bound) {
  constexpr double kMax = std::numeric_limits<double>::max();
  bool freqs_finite = true;
  for (unsigned x = 0; x < S; ++x)
    freqs_finite = freqs_finite && std::isfinite(freqs[x]);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d largest = _mm256_set1_pd(kMax);
  for (unsigned c = 0; c < cats; ++c) {
    // Four accumulators keep the max chains short; `bad` flags NaN and inf.
    __m256d top[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                      _mm256_setzero_pd(), _mm256_setzero_pd()};
    __m256d bad = _mm256_setzero_pd();
    for (unsigned m = 0; m < count; ++m) {
      const double* entry = mats[m] + static_cast<std::size_t>(c) * S * S;
      for (unsigned i = 0; i < S * S; i += 16)
#pragma GCC unroll 4
        for (unsigned j = 0; j < 4; ++j) {
          const __m256d a =
              _mm256_andnot_pd(sign, _mm256_loadu_pd(entry + i + 4 * j));
          top[j] = _mm256_max_pd(top[j], a);
          bad = _mm256_or_pd(bad, _mm256_cmp_pd(a, largest, _CMP_NLE_UQ));
        }
    }
    alignas(32) double lanes[16];
    for (unsigned j = 0; j < 4; ++j) _mm256_store_pd(lanes + 4 * j, top[j]);
    double m = 0.0;
    for (const double lane : lanes) m = std::max(m, lane);
    if (!freqs_finite || _mm256_movemask_pd(bad) != 0)
      bound[c] = -1.0;
    else if (m == 0.0)
      bound[c] = kMax;
    else
      bound[c] = std::min(kMax / (2.0 * S * m), kMax);
  }
}

/// The guard over pattern p's far blocks: every |v_y| of category c at most
/// bound[c]. The compare is ordered, so a NaN fails, and an infinity fails
/// against any bound <= DBL_MAX.
template <unsigned S>
__attribute__((target("avx2"))) inline bool far_block_within(
    const double* blocks, unsigned cats, const double* bound) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (unsigned c = 0; c < cats; ++c) {
    const __m256d b = _mm256_set1_pd(bound[c]);
#pragma GCC unroll 8
    for (unsigned k = 0; k < S / 4; ++k) {
      const __m256d v =
          _mm256_andnot_pd(sign, _mm256_loadu_pd(blocks + c * S + 4 * k));
      ok = _mm256_and_pd(ok, _mm256_cmp_pd(v, b, _CMP_LE_OQ));
    }
  }
  return _mm256_movemask_pd(ok) == 0xF;
}

/// Zeros that stand in for missing rows: the categories past the last one
/// (up to 20 entries), and in a 4-state quad the patterns past the last
/// one (a 4-entry row per category).
alignas(32) constexpr double kZeroRow[4 * kSimdMaxCategories] = {};

/// Four rows of S entries, row i at first + i·stride, transposed: out[y]
/// holds entry y of every row, row i in lane i. Rows from `rows` on read
/// as zeros.
template <unsigned S>
__attribute__((target("avx2"))) inline void transpose_strided(
    const double* first, std::size_t stride, unsigned rows, __m256d* out) {
  static_assert(S <= sizeof(kZeroRow) / sizeof(double));
  const double* r[4];
  for (unsigned i = 0; i < 4; ++i)
    r[i] = i < rows ? first + i * stride : kZeroRow;
#pragma GCC unroll 8
  for (unsigned k = 0; k < S / 4; ++k)
    transpose_rows(r[0] + 4 * k, r[1] + 4 * k, r[2] + 4 * k, r[3] + 4 * k,
                   out + 4 * k);
}

/// The S-state evaluate with a tip near side, four categories per vector:
/// lane i of group g is category 4g + i, so each lane runs the scalar
/// sequence far_x = 0 + Σ_y M[x][y]·v_y, lc = 0 + Σ_x base_x·far_x (and the
/// same for dP, d²P) over the states x it visits, and the lanes reach the
/// category sums in category order. A pattern whose code and guard allow it
/// visits only the code's states; the rest visit all S.
template <unsigned S, bool kDerivatives>
__attribute__((target("avx2"))) void evaluate_tip_patterns(
    const KernelDims& dims, const double* freqs, const double* weights,
    const EvalSide& near_side, const EvalSide& far_side,
    const double* const* mats, std::size_t p_begin, std::size_t p_end,
    BranchValue& result) {
  constexpr unsigned kMats = kDerivatives ? 3 : 1;
  const unsigned cats = dims.categories;
  const unsigned groups = (cats + 3) / 4;
  const std::size_t block = static_cast<std::size_t>(cats) * S;
  const std::size_t family = static_cast<std::size_t>(groups) * S * S;
  const double cat_weight = 1.0 / cats;

  // Entry (x, y) of group g's matrix family m at lanes[m·family + (g·S +
  // x)·S + y].
  __m256d lanes[kMats * (kSimdMaxCategories / 4) * S * S];
  for (unsigned m = 0; m < kMats; ++m)
    for (unsigned g = 0; g < groups; ++g)
      for (unsigned x = 0; x < S; ++x)
        transpose_strided<S>(
            mats[m] + (static_cast<std::size_t>(4 * g) * S + x) * S, S * S,
            std::min(4u, cats - 4 * g),
            lanes + m * family + (static_cast<std::size_t>(g) * S + x) * S);
  double bound[kSimdMaxCategories];
  far_bounds<S>(mats, kMats, cats, freqs, bound);

  // The category sums of a chunk of patterns first, then add_site in
  // pattern order: the site tails (log, divides) then no longer wait on
  // one pattern's x-sums at a time.
  constexpr std::size_t kChunk = 64;
  double sums[kChunk][3];
  for (std::size_t first = p_begin; first < p_end; first += kChunk) {
    const std::size_t last = std::min(p_end, first + kChunk);
    for (std::size_t p = first; p < last; ++p) {
      double* site = sums[p - first];
      site[0] = site[1] = site[2] = 0.0;
      const double* near = near_side.indicator +
                           static_cast<std::size_t>(near_side.codes[p]) * S;
      const double* far_blocks = far_side.vector + p * block;
      std::uint32_t visit = support_mask<S>(near);
      if (visit != kAllStates<S> &&
          !far_block_within<S>(far_blocks, cats, bound))
        visit = kAllStates<S>;
      for (unsigned g = 0; g < groups; ++g) {
        const unsigned rows = std::min(4u, cats - 4 * g);
        __m256d v[S];
        transpose_strided<S>(far_blocks + static_cast<std::size_t>(4 * g) * S,
                             S, rows, v);
        __m256d lc = _mm256_setzero_pd();
        __m256d d1c = _mm256_setzero_pd();
        __m256d d2c = _mm256_setzero_pd();
        for (std::uint32_t left = visit; left != 0; left &= left - 1) {
          const unsigned x = static_cast<unsigned>(std::countr_zero(left));
          const __m256d* row =
              lanes + (static_cast<std::size_t>(g) * S + x) * S;
          const __m256d* drow = row + family;
          const __m256d* d2row = drow + family;
          __m256d far = _mm256_setzero_pd();
          __m256d dfar = _mm256_setzero_pd();
          __m256d d2far = _mm256_setzero_pd();
#pragma GCC unroll 20
          for (unsigned y = 0; y < S; ++y) {
            far = _mm256_add_pd(far, _mm256_mul_pd(row[y], v[y]));
            if constexpr (kDerivatives) {
              dfar = _mm256_add_pd(dfar, _mm256_mul_pd(drow[y], v[y]));
              d2far = _mm256_add_pd(d2far, _mm256_mul_pd(d2row[y], v[y]));
            }
          }
          const __m256d base = _mm256_set1_pd(freqs[x] * near[x]);
          lc = _mm256_add_pd(lc, _mm256_mul_pd(base, far));
          if constexpr (kDerivatives) {
            d1c = _mm256_add_pd(d1c, _mm256_mul_pd(base, dfar));
            d2c = _mm256_add_pd(d2c, _mm256_mul_pd(base, d2far));
          }
        }
        alignas(32) double lane[3][4];
        _mm256_store_pd(lane[0], lc);
        _mm256_store_pd(lane[1], d1c);
        _mm256_store_pd(lane[2], d2c);
        for (unsigned i = 0; i < rows; ++i) {
          site[0] += lane[0][i];
          if constexpr (kDerivatives) {
            site[1] += lane[1][i];
            site[2] += lane[2][i];
          }
        }
      }
    }
    for (std::size_t p = first; p < last; ++p)
      add_site(result, sums[p - first][0], sums[p - first][1],
               sums[p - first][2], cat_weight,
               scale_sum(near_side.scale_counts, far_side.scale_counts, p),
               weights != nullptr ? weights[p] : 1.0, kDerivatives);
  }
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

/// Row pointers of a 4-state quad, the patterns first..first+count-1 (count
/// 1–4) in lanes 0..count-1: lane i reads table + k·stride, where k is
/// codes[first + i] (a tip's lookup or indicator table) or first + i (an
/// inner vector) when codes is null. Lanes from count on read kZeroRow.
inline void quad_rows(const double* table, std::size_t stride,
                      const std::uint8_t* codes, std::size_t first,
                      unsigned count, const double** rows) {
  if (codes == nullptr) {
#pragma GCC unroll 4
    for (unsigned i = 0; i < 4; ++i)
      rows[i] = i < count ? table + (first + i) * stride : kZeroRow;
  } else {
#pragma GCC unroll 4
    for (unsigned i = 0; i < 4; ++i)
      rows[i] = i < count ? table + codes[first + i] * stride : kZeroRow;
  }
}

/// A newview child's quad_rows: a tip's rows are its lookup table's rows
/// for the patterns' codes.
inline void child_rows(const NewviewChild& child, std::size_t block,
                       std::size_t first, unsigned count, const double** rows) {
  if (child.is_tip())
    quad_rows(child.lookup, block, child.codes, first, count, rows);
  else
    quad_rows(child.vector, block, nullptr, first, count, rows);
}

/// The quad's rows at offset `at`, transposed: out[y] holds state y of
/// lane i's row in lane i.
__attribute__((target("avx2"))) inline void transpose_at(
    const double* const* rows, std::size_t at, __m256d* out) {
  transpose_rows(rows[0] + at, rows[1] + at, rows[2] + at, rows[3] + at, out);
}

/// The 4-state newview with four patterns per vector, pattern i of a quad
/// in lane i. Per category, an inner child's blocks are transposed and
/// propagated by propagate_quad, a tip child's folded lookup rows are
/// transposed as they are, and the product l_x·r_x is transposed back and
/// stored: each lane runs the scalar kernel's multiply/add sequence. The
/// 0–3 patterns a block leaves over form a last quad whose missing lanes
/// read zeros and store nowhere. Scaling then runs per pattern, in pattern
/// order, by the scalar rule.
__attribute__((target("avx2"))) std::size_t newview_quads(
    const KernelDims& dims, const NewviewChild& left,
    const NewviewChild& right, double* parent, std::int32_t* parent_scale,
    std::size_t p_begin, std::size_t p_end) {
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * 4;
  const __m256d threshold = _mm256_set1_pd(kScaleThreshold);
  const __m256d multiplier = _mm256_set1_pd(kScaleMultiplier);
  const __m256d zero = _mm256_setzero_pd();
  // Where the missing lanes of a last quad store.
  alignas(32) double discard[4 * kSimdMaxCategories];
  std::size_t scaled = 0;

  // One quad, patterns p..p+count-1. Inlined at both calls below, so the
  // full quads run with count = 4 known.
  const auto quad = [&](std::size_t p, unsigned count)
      __attribute__((target("avx2"), always_inline)) {
    const double* left_rows[4];
    const double* right_rows[4];
    child_rows(left, block, p, count, left_rows);
    child_rows(right, block, p, count, right_rows);
    double* out[4];
    for (unsigned i = 0; i < 4; ++i)
      out[i] = i < count ? parent + (p + i) * block : discard;
    // Lane i is set once pattern p + i has an entry >= threshold. The
    // scalar test is v >= threshold; an ordered compare keeps NaN entries
    // "small" there too.
    __m256d large = _mm256_setzero_pd();
    for (unsigned c = 0; c < cats; ++c) {
      const std::size_t at = static_cast<std::size_t>(c) * 4;
      __m256d l[4];
      __m256d r[4];
      __m256d v[4];
      if (left.is_tip()) {
        transpose_at(left_rows, at, l);
      } else {
        transpose_at(left_rows, at, v);
        propagate_quad(left.pmat + at * 4, v, l);
      }
      if (right.is_tip()) {
        transpose_at(right_rows, at, r);
      } else {
        transpose_at(right_rows, at, v);
        propagate_quad(right.pmat + at * 4, v, r);
      }
#pragma GCC unroll 4
      for (unsigned x = 0; x < 4; ++x) {
        v[x] = _mm256_mul_pd(l[x], r[x]);
        large =
            _mm256_or_pd(large, _mm256_cmp_pd(v[x], threshold, _CMP_GE_OQ));
      }
      __m256d rows[4];
      transpose_quad(v, rows);
#pragma GCC unroll 4
      for (unsigned i = 0; i < 4; ++i) _mm256_storeu_pd(out[i] + at, rows[i]);
    }
    const int large_lanes = _mm256_movemask_pd(large);
    for (unsigned i = 0; i < count; ++i) {
      std::int32_t scale =
          scale_sum(left.scale_counts, right.scale_counts, p + i);
      bool all_small = (large_lanes >> i & 1) == 0;
      if (all_small) {
        ++scaled;
        // The scalar rule, as in newview_lanes.
        while (all_small) {
          bool any_large = false;
          bool any_positive = false;
          for (std::size_t k = 0; k < block; k += 4) {
            const __m256d v =
                _mm256_mul_pd(_mm256_loadu_pd(out[i] + k), multiplier);
            _mm256_storeu_pd(out[i] + k, v);
            any_large |= _mm256_movemask_pd(
                             _mm256_cmp_pd(v, threshold, _CMP_GE_OQ)) != 0;
            any_positive |=
                _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GT_OQ)) != 0;
          }
          ++scale;
          if (!any_positive) break;
          all_small = !any_large;
        }
      }
      parent_scale[p + i] = scale;
    }
  };
  std::size_t p = p_begin;
  for (; p_end - p >= 4; p += 4) quad(p, 4);
  if (p < p_end) quad(p, static_cast<unsigned>(p_end - p));
  return scaled;
}

/// The 4-state evaluate with four patterns per vector, pattern i of a quad
/// in lane i: transposing the blocks makes every per-state sum vertical, so
/// each lane runs the scalar kernel's exact multiply/add sequence with no
/// horizontal add. The 0–3 patterns a block leaves over form a last quad
/// whose missing lanes read zeros; only the real lanes reach
/// accumulate_site, in pattern order.
template <bool kDerivatives>
__attribute__((target("avx2"))) void evaluate_quads(
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

  // One quad, patterns p..p+count-1. Inlined at both calls below, so the
  // full quads run with count = 4 known.
  const auto quad = [&](std::size_t p, unsigned count)
      __attribute__((target("avx2"), always_inline)) {
    const double* far_rows[4];
    quad_rows(far_side.vector, block, nullptr, p, count, far_rows);
    const double* near_rows[4];
    quad_rows(near_side.is_tip() ? near_side.indicator : near_side.vector,
              near_side.is_tip() ? 4 : block, near_side.codes, p, count,
              near_rows);
    // A tip's base = freqs[x] * indicator[x] is the same in every category.
    __m256d base[4] = {};
    if (near_side.is_tip()) {
      transpose_at(near_rows, 0, base);
#pragma GCC unroll 4
      for (unsigned x = 0; x < 4; ++x)
        base[x] = _mm256_mul_pd(freq[x], base[x]);
    }
    __m256d site_l = _mm256_setzero_pd();
    __m256d site_d1 = _mm256_setzero_pd();
    __m256d site_d2 = _mm256_setzero_pd();
    for (unsigned c = 0; c < cats; ++c) {
      const std::size_t at = static_cast<std::size_t>(c) * 4;
      if (!near_side.is_tip()) {
        transpose_at(near_rows, at, base);
#pragma GCC unroll 4
        for (unsigned x = 0; x < 4; ++x)
          base[x] = _mm256_mul_pd(freq[x], base[x]);
      }
      __m256d v[4];
      transpose_at(far_rows, at, v);
      __m256d far[4];
      propagate_quad(pmats + at * 4, v, far);
      site_l = _mm256_add_pd(site_l, dot_quad(base, far));
      if constexpr (kDerivatives) {
        propagate_quad(dmats + at * 4, v, far);
        site_d1 = _mm256_add_pd(site_d1, dot_quad(base, far));
        propagate_quad(d2mats + at * 4, v, far);
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
    for (unsigned i = 0; i < count; ++i)
      accumulate_site(
          result, g[i], d1[i], d2[i],
          scale_sum(near_side.scale_counts, far_side.scale_counts, p + i),
          weights != nullptr ? weights[p + i] : 1.0, kDerivatives);
  };
  std::size_t p = p_begin;
  for (; p_end - p >= 4; p += 4) quad(p, 4);
  if (p < p_end) quad(p, static_cast<unsigned>(p_end - p));
}

template <unsigned S, bool kDerivatives>
__attribute__((target("avx2"))) BranchValue evaluate_lanes(
    const KernelDims& dims, const double* freqs, const double* weights,
    const EvalSide& near_side, const EvalSide& far_side, const double* pmats,
    const double* dmats, const double* d2mats, std::size_t p_begin,
    std::size_t p_end) {
  BranchValue result;
  if constexpr (S == 4) {
    evaluate_quads<kDerivatives>(dims, freqs, weights, near_side, far_side,
                                 pmats, dmats, d2mats, p_begin, p_end, result);
  } else if (near_side.is_tip()) {
    const double* const mats[3] = {pmats, dmats, d2mats};
    evaluate_tip_patterns<S, kDerivatives>(dims, freqs, weights, near_side,
                                           far_side, mats, p_begin, p_end,
                                           result);
  } else if (p_begin < p_end) {
    evaluate_patterns<S, kDerivatives>(dims, freqs, weights, near_side,
                                       far_side, pmats, dmats, d2mats, p_begin,
                                       p_end, result);
  }
  return result;
}

}  // namespace

__attribute__((target("avx2"))) std::size_t newview_avx2(
    const KernelDims& dims, const NewviewChild& left,
    const NewviewChild& right, double* parent, std::int32_t* parent_scale,
    std::size_t p_begin, std::size_t p_end) {
  PLFOC_CHECK(dims.categories <= kSimdMaxCategories);
  if (dims.states == 4)
    return newview_quads(dims, left, right, parent, parent_scale, p_begin,
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
