// lint-as: src/likelihood/kernels_avx2.cpp
// A horizontal add sums neighbouring lanes pairwise, which reassociates the
// per-state sum away from the scalar kernel's x order.
#include <immintrin.h>

double bad_sum(__m256d v) {
  const __m256d pairs = _mm256_hadd_pd(v, v);  // expect(kernel-no-hadd)
  const __m128d low = _mm256_castpd256_pd128(pairs);
  return _mm_cvtsd_f64(_mm_hadd_pd(low, low));  // expect(kernel-no-hadd)
}

__m256d fine_sum(const __m256d* lanes) {
  __m256d sum = _mm256_setzero_pd();
  for (unsigned x = 0; x < 4; ++x) sum = _mm256_add_pd(sum, lanes[x]);
  return sum;
}
