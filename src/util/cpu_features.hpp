// Runtime CPU feature detection for the SIMD code paths (the AVX2 newview
// and evaluate_branch kernels for 4 and 20 states, the AVX2 transition-matrix
// build V diag(w) V^{-1} for 4 and 20 states, the AVX2 record checksum).
// Each path keeps a scalar twin that computes identical results, so dispatch
// never changes an output.
#pragma once

namespace plfoc {

/// True if this CPU supports AVX2 (checked once).
inline bool cpu_has_avx2() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
}

}  // namespace plfoc
