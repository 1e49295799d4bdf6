#include "likelihood/kernels.hpp"

#include <algorithm>
#include <vector>

#include "likelihood/kernel_pool.hpp"
#include "likelihood/kernels_internal.hpp"

#include "util/checks.hpp"
#include "util/cpu_features.hpp"

namespace plfoc {
namespace {

/// Propagated child likelihood L(x) for one (pattern, category) block.
/// S is the compile-time state count (0 = generic/runtime).
template <unsigned S>
inline void propagate_inner(const double* pmat_c, const double* child_block,
                            unsigned states, double* out) {
  const unsigned s = S != 0 ? S : states;
  for (unsigned x = 0; x < s; ++x) {
    double sum = 0.0;
    const double* row = pmat_c + static_cast<std::size_t>(x) * s;
    for (unsigned y = 0; y < s; ++y) sum += row[y] * child_block[y];
    out[x] = sum;
  }
}

template <unsigned S>
std::size_t newview_impl(const KernelDims& dims, const NewviewChild& left,
                         const NewviewChild& right, double* parent,
                         std::int32_t* parent_scale, std::size_t p_begin,
                         std::size_t p_end) {
  const unsigned states = S != 0 ? S : dims.states;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  std::size_t scaled = 0;

  double lbuf[32];
  double rbuf[32];
  PLFOC_CHECK(states <= 32);

  for (std::size_t p = p_begin; p < p_end; ++p) {
    double* parent_block = parent + p * block;
    bool all_small = true;
    for (unsigned c = 0; c < cats; ++c) {
      const double* l;
      if (left.is_tip()) {
        l = left.lookup +
            (static_cast<std::size_t>(left.codes[p]) * cats + c) * states;
      } else {
        propagate_inner<S>(left.pmat + static_cast<std::size_t>(c) * states * states,
                           left.vector + p * block + static_cast<std::size_t>(c) * states,
                           states, lbuf);
        l = lbuf;
      }
      const double* r;
      if (right.is_tip()) {
        r = right.lookup +
            (static_cast<std::size_t>(right.codes[p]) * cats + c) * states;
      } else {
        propagate_inner<S>(right.pmat + static_cast<std::size_t>(c) * states * states,
                           right.vector + p * block + static_cast<std::size_t>(c) * states,
                           states, rbuf);
        r = rbuf;
      }
      double* out = parent_block + static_cast<std::size_t>(c) * states;
      for (unsigned x = 0; x < states; ++x) {
        const double v = l[x] * r[x];
        out[x] = v;
        if (v >= kScaleThreshold) all_small = false;
      }
    }
    std::int32_t count = detail::scale_sum(left.scale_counts,
                                           right.scale_counts, p);
    if (all_small) {
      ++scaled;
      // Scale repeatedly until the largest entry clears the threshold: a
      // single application is not enough when one pruning step shrinks the
      // site by more than the multiplier, and the single-precision disk
      // representation relies on max >= threshold.
      while (all_small) {
        all_small = false;
        double max_value = 0.0;
        for (std::size_t i = 0; i < block; ++i) {
          parent_block[i] *= kScaleMultiplier;
          if (parent_block[i] > max_value) max_value = parent_block[i];
        }
        ++count;
        // A block that underflowed to exactly zero stays zero under the
        // (power of two, exact) multiplier; without this break the loop
        // spins forever while count overflows. The AVX2 kernel applies the
        // identical rule, preserving scalar/AVX2 bit-identity.
        if (max_value == 0.0) break;
        all_small = max_value < kScaleThreshold;
      }
    }
    parent_scale[p] = count;
  }
  return scaled;
}

template <unsigned S>
BranchValue evaluate_impl(const KernelDims& dims, const double* freqs,
                          const double* weights, const EvalSide& near_side,
                          const EvalSide& far_side, const double* pmats,
                          const double* dmats, const double* d2mats,
                          bool with_derivatives, std::size_t p_begin,
                          std::size_t p_end) {
  const unsigned states = S != 0 ? S : dims.states;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  const double cat_weight = 1.0 / cats;

  double far[32];
  double dfar[32];
  double d2far[32];
  PLFOC_CHECK(states <= 32);

  BranchValue result;
  for (std::size_t p = p_begin; p < p_end; ++p) {
    double site_l = 0.0;
    double site_d1 = 0.0;
    double site_d2 = 0.0;
    for (unsigned c = 0; c < cats; ++c) {
      // Far side propagated across the branch (and its t-derivatives).
      const double* vec = far_side.vector + p * block +
                          static_cast<std::size_t>(c) * states;
      const std::size_t at = static_cast<std::size_t>(c) * states * states;
      propagate_inner<S>(pmats + at, vec, states, far);
      if (with_derivatives) {
        propagate_inner<S>(dmats + at, vec, states, dfar);
        propagate_inner<S>(d2mats + at, vec, states, d2far);
      }
      // Near side values at this (pattern, category).
      const double* near;
      if (near_side.is_tip()) {
        near = near_side.indicator +
               static_cast<std::size_t>(near_side.codes[p]) * states;
      } else {
        near = near_side.vector + p * block + static_cast<std::size_t>(c) * states;
      }
      double lc = 0.0;
      double d1c = 0.0;
      double d2c = 0.0;
      for (unsigned x = 0; x < states; ++x) {
        const double base = freqs[x] * near[x];
        lc += base * far[x];
        if (with_derivatives) {
          d1c += base * dfar[x];
          d2c += base * d2far[x];
        }
      }
      site_l += lc;
      site_d1 += d1c;
      site_d2 += d2c;
    }
    detail::add_site(result, site_l, site_d1, site_d2, cat_weight,
                     detail::scale_sum(near_side.scale_counts,
                                       far_side.scale_counts, p),
                     weights != nullptr ? weights[p] : 1.0, with_derivatives);
  }
  return result;
}

std::size_t newview_range(const KernelDims& dims, const NewviewChild& left,
                          const NewviewChild& right, double* parent,
                          std::int32_t* parent_scale, std::size_t p_begin,
                          std::size_t p_end) {
  switch (dims.states) {
    case 4:
      return newview_impl<4>(dims, left, right, parent, parent_scale, p_begin,
                             p_end);
    case 20:
      return newview_impl<20>(dims, left, right, parent, parent_scale, p_begin,
                              p_end);
    default:
      return newview_impl<0>(dims, left, right, parent, parent_scale, p_begin,
                             p_end);
  }
}

BranchValue evaluate_range(const KernelDims& dims, const double* freqs,
                           const double* weights, const EvalSide& near_side,
                           const EvalSide& far_side, const double* pmats,
                           const double* dmats, const double* d2mats,
                           bool with_derivatives, std::size_t p_begin,
                           std::size_t p_end) {
  switch (dims.states) {
    case 4:
      return evaluate_impl<4>(dims, freqs, weights, near_side, far_side, pmats,
                              dmats, d2mats, with_derivatives, p_begin, p_end);
    case 20:
      return evaluate_impl<20>(dims, freqs, weights, near_side, far_side,
                               pmats, dmats, d2mats, with_derivatives, p_begin,
                               p_end);
    default:
      return evaluate_impl<0>(dims, freqs, weights, near_side, far_side, pmats,
                              dmats, d2mats, with_derivatives, p_begin, p_end);
  }
}

inline std::size_t block_begin(std::size_t b) { return b * kPatternBlock; }

inline std::size_t block_end(std::size_t b, std::size_t patterns) {
  return std::min(patterns, (b + 1) * kPatternBlock);
}

bool pool_active(const KernelPool* pool, std::size_t blocks) {
  return pool != nullptr && pool->threads() > 1 && blocks > 1;
}

/// True when the AVX2 kernels take these dimensions on this CPU.
bool avx2_dispatch(const KernelDims& dims) {
  return (dims.states == 4 || dims.states == 20) &&
         dims.categories <= detail::kSimdMaxCategories && cpu_has_avx2();
}

using NewviewRange = std::size_t (*)(const KernelDims&, const NewviewChild&,
                                     const NewviewChild&, double*,
                                     std::int32_t*, std::size_t, std::size_t);
using EvaluateRange = BranchValue (*)(const KernelDims&, const double*,
                                      const double*, const EvalSide&,
                                      const EvalSide&, const double*,
                                      const double*, const double*, bool,
                                      std::size_t, std::size_t);

std::size_t newview_blocks(NewviewRange range, const KernelDims& dims,
                           const NewviewChild& left, const NewviewChild& right,
                           double* parent, std::int32_t* parent_scale,
                           KernelPool* pool) {
  const std::size_t blocks = pattern_block_count(dims.patterns);
  if (!pool_active(pool, blocks))
    return range(dims, left, right, parent, parent_scale, 0, dims.patterns);
  // Block outputs (parent slices, scale counts) are disjoint and the
  // scaled-pattern tally is an exact integer sum, so any execution order
  // yields the identical result.
  std::vector<std::size_t> partials(blocks, 0);
  pool->run_blocks(blocks, [&](std::size_t b) {
    partials[b] = range(dims, left, right, parent, parent_scale,
                        block_begin(b), block_end(b, dims.patterns));
  });
  std::size_t scaled = 0;
  for (const std::size_t partial : partials) scaled += partial;
  return scaled;
}

BranchValue evaluate_blocks(EvaluateRange range, const KernelDims& dims,
                            const double* freqs, const double* weights,
                            const EvalSide& near_side,
                            const EvalSide& far_side, const double* pmats,
                            const double* dmats, const double* d2mats,
                            bool with_derivatives, KernelPool* pool) {
  PLFOC_CHECK(!far_side.is_tip());
  if (with_derivatives) PLFOC_CHECK(dmats != nullptr && d2mats != nullptr);
  const std::size_t blocks = pattern_block_count(dims.patterns);
  if (blocks <= 1)
    return range(dims, freqs, weights, near_side, far_side, pmats, dmats,
                 d2mats, with_derivatives, 0, dims.patterns);
  // Per-block partials are ALWAYS computed and combined serially in block
  // order — also on the single-threaded path — so the floating-point
  // association depends only on the pattern count, never the thread count.
  std::vector<BranchValue> partials(blocks);
  const auto body = [&](std::size_t b) {
    partials[b] = range(dims, freqs, weights, near_side, far_side, pmats,
                        dmats, d2mats, with_derivatives, block_begin(b),
                        block_end(b, dims.patterns));
  };
  if (pool_active(pool, blocks)) {
    pool->run_blocks(blocks, body);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) body(b);
  }
  BranchValue result = partials[0];
  for (std::size_t b = 1; b < blocks; ++b) {
    result.log_likelihood += partials[b].log_likelihood;
    result.d1 += partials[b].d1;
    result.d2 += partials[b].d2;
  }
  return result;
}

}  // namespace

std::size_t newview_scalar(const KernelDims& dims, const NewviewChild& left,
                           const NewviewChild& right, double* parent,
                           std::int32_t* parent_scale) {
  return newview_blocks(newview_range, dims, left, right, parent,
                        parent_scale, nullptr);
}

std::size_t newview(const KernelDims& dims, const NewviewChild& left,
                    const NewviewChild& right, double* parent,
                    std::int32_t* parent_scale, KernelPool* pool) {
  return newview_blocks(
      avx2_dispatch(dims) ? detail::newview_avx2 : newview_range, dims, left,
      right, parent, parent_scale, pool);
}

BranchValue evaluate_branch_scalar(const KernelDims& dims, const double* freqs,
                                   const double* weights,
                                   const EvalSide& near_side,
                                   const EvalSide& far_side,
                                   const double* pmats, const double* dmats,
                                   const double* d2mats,
                                   bool with_derivatives) {
  return evaluate_blocks(evaluate_range, dims, freqs, weights, near_side,
                         far_side, pmats, dmats, d2mats, with_derivatives,
                         nullptr);
}

BranchValue evaluate_branch(const KernelDims& dims, const double* freqs,
                            const double* weights, const EvalSide& near_side,
                            const EvalSide& far_side, const double* pmats,
                            const double* dmats, const double* d2mats,
                            bool with_derivatives, KernelPool* pool) {
  return evaluate_blocks(
      avx2_dispatch(dims) ? detail::evaluate_avx2 : evaluate_range, dims,
      freqs, weights, near_side, far_side, pmats, dmats, d2mats,
      with_derivatives, pool);
}

}  // namespace plfoc
