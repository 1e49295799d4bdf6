// Internal kernel-dispatch seam between the portable kernels and the
// vectorised specialisations. Not part of the public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "likelihood/kernels.hpp"

namespace plfoc::detail {

/// Largest category count the AVX2 kernels take; their per-category
/// transposed matrices live in fixed stack buffers of this size.
inline constexpr unsigned kSimdMaxCategories = 16;

/// Summed child scaling counts of pattern p (a tip side has none).
inline std::int32_t scale_sum(const std::int32_t* a, const std::int32_t* b,
                              std::size_t p) {
  return (a != nullptr ? a[p] : 0) + (b != nullptr ? b[p] : 0);
}

/// The ordered tail of add_site: log and the scaling correction of the
/// guarded site likelihood, and the drop of a non-finite derivative term,
/// added to `result` with the pattern's weight. The AVX2 evaluate kernel
/// computes the element-wise head for four patterns at once and calls this
/// for each in pattern order.
inline void accumulate_site(BranchValue& result, double guarded,
                            double d1_term, double d2_term, std::int32_t scale,
                            double w, bool with_derivatives) {
  // When both addends are NaN, x86 keeps the first operand's payload, and
  // which one is first is the compiler's choice. A NaN sum is therefore
  // stored as one fixed quiet NaN, so its bits never depend on codegen.
  const double sum =
      result.log_likelihood + w * (std::log(guarded) + scale * kLogScaleUnit);
  result.log_likelihood =
      std::isnan(sum) ? std::numeric_limits<double>::quiet_NaN() : sum;
  // When site_l clamps to numeric_limits::min() (underflowed site) the
  // ratios can overflow to Inf and poison d2 with NaN, derailing the Newton
  // step in optimize_branch. An underflowed site carries no usable
  // curvature signal, so drop its derivative contribution.
  if (with_derivatives && std::isfinite(d1_term) && std::isfinite(d2_term)) {
    result.d1 += w * d1_term;
    result.d2 += w * d2_term;
  }
}

/// Folds one pattern's category sums into the branch value: the 1/C weight,
/// the min() guard and the two ratios, then accumulate_site. Shared by the
/// scalar and AVX2 evaluate kernels, so everything after the category loop
/// is one code path.
inline void add_site(BranchValue& result, double site_l, double site_d1,
                     double site_d2, double cat_weight, std::int32_t scale,
                     double w, bool with_derivatives) {
  site_l *= cat_weight;
  site_d1 *= cat_weight;
  site_d2 *= cat_weight;
  const double guarded = std::max(site_l, std::numeric_limits<double>::min());
  double d1_term = 0.0;
  double d2_term = 0.0;
  if (with_derivatives) {
    d1_term = site_d1 / guarded;
    d2_term = site_d2 / guarded - d1_term * d1_term;
  }
  accumulate_site(result, guarded, d1_term, d2_term, scale, w,
                  with_derivatives);
}

/// AVX2 newview over patterns [p_begin, p_end) for 4- and 20-state data
/// with at most kSimdMaxCategories categories — the block-parallel driver
/// hands each pattern block to one call. 4-state data runs four patterns
/// per vector, one per lane, the 0–3 left over as a last quad padded with
/// zeros; 20-state data runs one pattern at a time with S/4 x-lanes. Either
/// way each lane performs exactly the scalar kernel's multiply/add sequence
/// (no FMA), and scaling runs per pattern, in pattern order, so the parent
/// vector, scale counts and return value are bit-identical to
/// newview_scalar. Compiled with a per-function target attribute; only call
/// when cpu_has_avx2() (util/cpu_features.hpp).
std::size_t newview_avx2(const KernelDims& dims, const NewviewChild& left,
                         const NewviewChild& right, double* parent,
                         std::int32_t* parent_scale, std::size_t p_begin,
                         std::size_t p_end);

/// AVX2 evaluate_branch over patterns [p_begin, p_end) with an inner far
/// side, same preconditions and bit-identity guarantee as newview_avx2.
/// 4-state data runs four patterns per vector, one per lane, so the
/// per-category x-sums are vertical adds in scalar x order; the 0–3
/// patterns left over form a last quad padded with zeros. 20-state data
/// with an inner near side runs one pattern at a time with S/4 x-lanes and
/// scalar x-sums. 20-state data with a tip near side runs four categories
/// per vector, and a pattern whose far blocks pass a finiteness guard skips
/// the states its code rules out: their terms are exact ±0 and change no
/// bit. Either way the patterns reach accumulate_site in pattern order.
BranchValue evaluate_avx2(const KernelDims& dims, const double* freqs,
                          const double* weights, const EvalSide& near_side,
                          const EvalSide& far_side, const double* pmats,
                          const double* dmats, const double* d2mats,
                          bool with_derivatives, std::size_t p_begin,
                          std::size_t p_end);

}  // namespace plfoc::detail
