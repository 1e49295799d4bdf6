// lint-as: src/model/transition.cpp
// The AVX2 transition-matrix build matches its scalar twin bit for bit only
// with a separate multiply and add, so kernel-no-fma covers this TU too.
#include <immintrin.h>

#include <cmath>

__m256d bad_row(__m256d acc, __m256d a, const double* inverse, double x) {
  acc = _mm256_fmadd_pd(a, _mm256_loadu_pd(inverse), acc);  // expect(kernel-no-fma)
  const double y = std::fma(x, x, x);                      // expect(kernel-no-fma)
  return _mm256_add_pd(acc, _mm256_set1_pd(y));
}

__m256d fine_row(__m256d acc, __m256d a, const double* inverse) {
  return _mm256_add_pd(acc, _mm256_mul_pd(a, _mm256_loadu_pd(inverse)));
}
