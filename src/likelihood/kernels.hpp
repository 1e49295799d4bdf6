// The PLF inner loops: newview (Felsenstein pruning step) and the branch
// likelihood/derivative evaluation, with RAxML-style numerical scaling.
//
// Data layout of an ancestral probability vector: pattern-major,
//   v[p * C * S + c * S + x]
// for pattern p, rate category c, state x. Tips enter either through a
// per-branch lookup table (newview) or the raw 0/1 indicator (the near side
// of evaluate); see likelihood/tip_states.hpp.
#pragma once

#include <cmath>
#include <cstdint>

namespace plfoc {

/// Numerical scaling constants (RAxML-style): when every entry of a site
/// block falls below the threshold, the block is multiplied by the (power of
/// two, hence exact) multiplier — repeatedly, until the largest entry clears
/// the threshold — and the site's scaling counter counts the applications;
/// log-likelihoods add count * kLogScaleUnit at the root.
///
/// RAxML uses 2^-256; we use 2^-64 so that the largest entry of every stored
/// block stays far above IEEE float range (~1.2e-38): that is what makes the
/// optional single-precision on-disk representation (DiskPrecision::kSingle)
/// safe. Because scaling by powers of two is exact, the choice of threshold
/// does not perturb double-precision results beyond the rounding of the
/// final log() accumulation.
inline const double kScaleThreshold = std::ldexp(1.0, -64);
inline const double kScaleMultiplier = std::ldexp(1.0, 64);
inline const double kLogScaleUnit = -64.0 * M_LN2;

class KernelPool;

/// Patterns per parallel work block. The partition of a kernel call into
/// blocks is a function of the pattern count ONLY — never of the thread
/// count — and per-block partial sums are combined serially in block order,
/// so every kernel result is bit-identical across --threads 1..N (the
/// determinism contract; see docs/parallelism.md).
inline constexpr std::size_t kPatternBlock = 256;

inline constexpr std::size_t pattern_block_count(std::size_t patterns) {
  return (patterns + kPatternBlock - 1) / kPatternBlock;
}

struct KernelDims {
  std::size_t patterns;
  unsigned categories;
  unsigned states;
};

/// One child of a newview operation. Exactly one of {vector, lookup} is set:
///  * inner child: `vector` + `scale_counts` + `pmat` (C×S×S for its branch);
///  * tip child:   `codes` (per pattern) + `lookup` (codes×C×S, already
///    folded with the branch's transition matrices).
struct NewviewChild {
  const double* vector = nullptr;
  const std::int32_t* scale_counts = nullptr;
  const double* pmat = nullptr;
  const std::uint8_t* codes = nullptr;
  const double* lookup = nullptr;

  bool is_tip() const { return lookup != nullptr; }
};

/// parent[p,c,x] = L(p,c,x) * R(p,c,x) where L/R are the children's
/// likelihoods propagated across their branches. Writes parent (P*C*S) and
/// parent_scale (per pattern, = children's counts + fresh scalings).
/// Returns the number of patterns scaled in this call.
/// Dispatches to the AVX2 kernel for 4- and 20-state data with at most 16
/// categories when the CPU supports it; every vector lane performs the
/// scalar kernel's multiply/add sequence (no FMA), so results are
/// bit-identical to newview_scalar. When `pool` is non-null the
/// pattern blocks run in parallel on its thread team (block writes are
/// disjoint and the scaled-pattern count is an exact integer sum, so the
/// result does not depend on the thread count).
std::size_t newview(const KernelDims& dims, const NewviewChild& left,
                    const NewviewChild& right, double* parent,
                    std::int32_t* parent_scale, KernelPool* pool = nullptr);

/// The portable kernel, bypassing SIMD dispatch (reference for tests/benches).
std::size_t newview_scalar(const KernelDims& dims, const NewviewChild& left,
                           const NewviewChild& right, double* parent,
                           std::int32_t* parent_scale);

/// One side of a branch likelihood evaluation.
///  * inner: `vector` + `scale_counts`;
///  * tip: `codes` + `indicator` (codes×S 0/1 rows). Only the near side may
///    be a tip: a tree with n >= 3 has no tip-tip edge, so the caller puts
///    the tip end near and the far side is always inner.
struct EvalSide {
  const double* vector = nullptr;
  const std::int32_t* scale_counts = nullptr;
  const std::uint8_t* codes = nullptr;
  const double* indicator = nullptr;

  bool is_tip() const { return codes != nullptr; }
};

struct BranchValue {
  double log_likelihood = 0.0;
  double d1 = 0.0;  ///< d log L / d t
  double d2 = 0.0;  ///< d² log L / d t²
};

/// Log likelihood (and optionally its first two branch-length derivatives)
/// across a branch with per-category transition matrices pmats (C×S×S) and,
/// when `with_derivatives`, dmats/d2mats. `near_side` is conditioned on data
/// on its side only; `far_side`, always an inner vector, is propagated
/// across the branch. `weights` are per-pattern multiplicities, `freqs` the
/// equilibrium frequencies.
/// The sums are always reduced per pattern block in serial block order
/// (whether or not `pool` is supplied), which pins the floating-point
/// association to the partition and keeps the value bit-identical for any
/// thread count. Dispatches to AVX2 under the same conditions as newview,
/// bit-identical to evaluate_branch_scalar.
BranchValue evaluate_branch(const KernelDims& dims, const double* freqs,
                            const double* weights, const EvalSide& near_side,
                            const EvalSide& far_side, const double* pmats,
                            const double* dmats, const double* d2mats,
                            bool with_derivatives, KernelPool* pool = nullptr);

/// The portable evaluate_branch, bypassing SIMD dispatch (reference for
/// tests/benches). Same block partition and serial block reduction.
BranchValue evaluate_branch_scalar(const KernelDims& dims, const double* freqs,
                                   const double* weights,
                                   const EvalSide& near_side,
                                   const EvalSide& far_side,
                                   const double* pmats, const double* dmats,
                                   const double* d2mats,
                                   bool with_derivatives);

}  // namespace plfoc
