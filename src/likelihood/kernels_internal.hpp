// Internal kernel-dispatch seam between the portable kernels and the
// vectorised specialisations. Not part of the public API.
#pragma once

#include "likelihood/kernels.hpp"

namespace plfoc::detail {

/// AVX2 implementation of the 4-state newview over patterns
/// [p_begin, p_end) — the block-parallel driver hands each pattern block to
/// one call. Performs per-lane exactly the same multiply/add sequence as the
/// scalar kernel (no FMA contraction), so results are bit-identical — the
/// cross-backend determinism guarantee is unaffected by dispatch. Compiled
/// with a per-function target attribute; only call when cpu_has_avx2()
/// (util/cpu_features.hpp).
std::size_t newview4_avx2(const KernelDims& dims, const NewviewChild& left,
                          const NewviewChild& right, double* parent,
                          std::int32_t* parent_scale, std::size_t p_begin,
                          std::size_t p_end);

}  // namespace plfoc::detail
