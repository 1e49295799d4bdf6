// lint-as: src/likelihood/kernels_avx2.cpp
// The AVX2 kernels round every product before adding it, like the scalar
// kernels: no fused multiply-add under src/likelihood/, whether spelled as
// an intrinsic, a libm call or a builtin.
#include <immintrin.h>

#include <cmath>

__m256d bad(__m256d a, __m256d b, __m256d c, __m128d d, double x) {
  __m256d r = _mm256_fmadd_pd(a, b, c);        // expect(kernel-no-fma)
  r = _mm256_fmsub_pd(r, b, c);                // expect(kernel-no-fma)
  const __m128d s = _mm_fmadd_pd(d, d, d);     // expect(kernel-no-fma)
  double y = std::fma(x, 2.0, 3.0);            // expect(kernel-no-fma)
  y += fma(y, 2.0, 3.0);                       // expect(kernel-no-fma)
  y += __builtin_fma(y, 2.0, 3.0);             // expect(kernel-no-fma)
  double (*fused)(double, double, double) = &fma;  // expect(kernel-no-fma)
  return _mm256_add_pd(r, _mm256_set1_pd(y + fused(y, y, y) + s[0]));
}

__m256d fine(__m256d a, __m256d b, __m256d c) {
  // A separate multiply then add is the sanctioned form; fma( in a comment,
  // a "fma" string or an identifier merely containing it must not fire.
  const char* doc = "_mm256_fmadd_pd(a, b, c) would fuse";
  int fma_count = 0;
  (void)doc;
  (void)fma_count;
  return _mm256_add_pd(c, _mm256_mul_pd(a, b));
}

// plfoc-lint: allow(kernel-no-fma): fixture: justified suppression is silent
double suppressed(double x) { return std::fma(x, x, x); }
