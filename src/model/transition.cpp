// Every matrix here is V diag(w) V^{-1}, entry (i, j) summed in k order as
// 0 + (V[i][0]*w[0])*V^{-1}[0][j] + ... + (V[i][S-1]*w[S-1])*V^{-1}[S-1][j].
// For 4 and 20 states an AVX2 twin keeps row i's S/4 lanes in registers and
// walks k in that same order with a separate multiply and add (deliberately
// no FMA; the kernel-no-fma lint rule enforces it), so both paths produce
// the same bits and dispatch never changes a likelihood. Other state counts
// and hosts without AVX2 take the scalar loop.
#include "model/transition.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "util/checks.hpp"
#include "util/cpu_features.hpp"

namespace plfoc {
namespace {

void weighted_reconstruct_scalar(const EigenSystem& eigen,
                                 const double* weights, double* out) {
  const unsigned s = eigen.states;
  for (unsigned i = 0; i < s; ++i) {
    for (unsigned j = 0; j < s; ++j) {
      double sum = 0.0;
      for (unsigned k = 0; k < s; ++k)
        sum += eigen.right[i * s + k] * weights[k] * eigen.inverse[k * s + j];
      out[i * s + j] = sum;
    }
  }
}

/// The scalar sum for every j of row i at once: the broadcast product
/// V[i][k]*w[k] is the scalar's left factor, rounded the same way. The lane
/// loops are fully unrolled so that the accumulators stay in registers.
template <unsigned S>
__attribute__((target("avx2"))) void weighted_reconstruct_avx2(
    const EigenSystem& eigen, const double* weights, double* out) {
  const double* right = eigen.right.data();
  const double* inverse = eigen.inverse.data();
  for (unsigned i = 0; i < S; ++i) {
    __m256d acc[S / 4];
#pragma GCC unroll 8
    for (unsigned l = 0; l < S / 4; ++l) acc[l] = _mm256_setzero_pd();
    for (unsigned k = 0; k < S; ++k) {
      const __m256d a = _mm256_set1_pd(right[i * S + k] * weights[k]);
#pragma GCC unroll 8
      for (unsigned l = 0; l < S / 4; ++l)
        acc[l] = _mm256_add_pd(
            acc[l], _mm256_mul_pd(a, _mm256_loadu_pd(inverse + k * S + 4 * l)));
    }
#pragma GCC unroll 8
    for (unsigned l = 0; l < S / 4; ++l)
      _mm256_storeu_pd(out + i * S + 4 * l, acc[l]);
  }
}

/// out = V diag(w) V^{-1}; the shared core of P and its derivatives.
void weighted_reconstruct(const EigenSystem& eigen, const double* weights,
                          double* out) {
  if (eigen.states == 4 && cpu_has_avx2())
    weighted_reconstruct_avx2<4>(eigen, weights, out);
  else if (eigen.states == 20 && cpu_has_avx2())
    weighted_reconstruct_avx2<20>(eigen, weights, out);
  else
    weighted_reconstruct_scalar(eigen, weights, out);
}

}  // namespace

void transition_matrix(const EigenSystem& eigen, double t, double* out) {
  transition_derivatives(eigen, t, out, nullptr, nullptr);
}

void transition_derivatives(const EigenSystem& eigen, double t, double* p,
                            double* dp, double* d2p) {
  PLFOC_CHECK(t >= 0.0 && std::isfinite(t));
  const unsigned s = eigen.states;
  PLFOC_CHECK(s <= 32);
  double w0[32] = {};
  double w1[32] = {};
  double w2[32] = {};
  for (unsigned k = 0; k < s; ++k) {
    const double lambda = eigen.eigenvalues[k];
    const double e = std::exp(lambda * t);
    w0[k] = e;
    w1[k] = lambda * e;
    w2[k] = lambda * lambda * e;
  }
  if (p != nullptr) {
    weighted_reconstruct(eigen, w0, p);
    // Clamp tiny negative round-off; probabilities must be non-negative for
    // the likelihood kernels (log of negative would poison a whole site).
    // Scalar on purpose: _mm256_max_pd(x, 0) would turn a −0.0 or NaN entry
    // into +0.0, where std::max keeps it.
    for (unsigned i = 0; i < s * s; ++i) p[i] = std::max(p[i], 0.0);
  }
  if (dp != nullptr) weighted_reconstruct(eigen, w1, dp);
  if (d2p != nullptr) weighted_reconstruct(eigen, w2, d2p);
}

void category_transition_matrices(const EigenSystem& eigen, double t,
                                  const std::vector<double>& rates,
                                  std::vector<double>& out) {
  const unsigned s = eigen.states;
  out.resize(rates.size() * s * s);
  for (std::size_t c = 0; c < rates.size(); ++c)
    transition_matrix(eigen, t * rates[c], out.data() + c * s * s);
}

void category_transition_derivatives(const EigenSystem& eigen, double t,
                                     const std::vector<double>& rates,
                                     std::vector<double>& p,
                                     std::vector<double>& dp,
                                     std::vector<double>& d2p) {
  const std::size_t n = static_cast<std::size_t>(eigen.states) * eigen.states;
  p.resize(rates.size() * n);
  dp.resize(p.size());
  d2p.resize(p.size());
  for (std::size_t c = 0; c < rates.size(); ++c) {
    double* d1 = dp.data() + c * n;
    double* d2 = d2p.data() + c * n;
    transition_derivatives(eigen, t * rates[c], p.data() + c * n, d1, d2);
    // d/dt P(r_c t) = r_c P'(r_c t): chain rule over the category rate.
    const double r = rates[c];
    for (std::size_t i = 0; i < n; ++i) {
      d1[i] *= r;
      d2[i] *= r * r;
    }
  }
}

}  // namespace plfoc
