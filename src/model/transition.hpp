// Transition probability matrices P(t) = V e^{Λt} V^{-1} and their first two
// derivatives in t (needed by Newton-Raphson branch-length optimisation).
// 4- and 20-state builds run an AVX2 path bit-identical to the scalar one.
#pragma once

#include <vector>

#include "model/eigen.hpp"

namespace plfoc {

/// Fill `out` (row-major S×S) with P(t). t >= 0.
void transition_matrix(const EigenSystem& eigen, double t, double* out);

/// Fill p, dp, d2p (each row-major S×S, any may be nullptr) with P(t) and its
/// first and second derivatives with respect to t.
void transition_derivatives(const EigenSystem& eigen, double t, double* p,
                            double* dp, double* d2p);

/// Per-category transition matrices for a branch: out has
/// categories × S × S entries; category c uses effective time t * rates[c].
void category_transition_matrices(const EigenSystem& eigen, double t,
                                  const std::vector<double>& rates,
                                  std::vector<double>& out);

/// Per-category P, dP/dt and d²P/dt² for a branch of length t, each
/// categories × S × S: p matches category_transition_matrices, and the
/// derivatives carry the chain rule over the category rate (dp is
/// r_c P'(r_c t), d2p is r_c² P''(r_c t)). Newton's per-iteration build.
void category_transition_derivatives(const EigenSystem& eigen, double t,
                                     const std::vector<double>& rates,
                                     std::vector<double>& p,
                                     std::vector<double>& dp,
                                     std::vector<double>& d2p);

}  // namespace plfoc
