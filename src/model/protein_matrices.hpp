// Empirical protein model support.
//
// The paper's experiments are DNA-only; protein (20-state) support exists to
// exercise the Sec. 3.1 memory model ((n−2)·8·80·s bytes under Γ4) and the
// 20-state kernels. We deliberately do not embed the published WAG/LG/JTT
// constant tables (this build is offline and hand-typing 190 constants per
// matrix invites silent transcription errors); instead:
//
//  * `poisson_protein()` (rate_matrix.hpp) is a real published model;
//  * `synthetic_protein_model(seed)` produces a deterministic, strictly
//    positive, heterogeneous reversible matrix for tests and benchmarks.
#pragma once

#include <cstdint>

#include "model/rate_matrix.hpp"

namespace plfoc {

/// Deterministic pseudo-empirical 20-state model: heterogeneous
/// exchangeabilities and frequencies derived from `seed`. Valid and
/// reversible by construction.
SubstitutionModel synthetic_protein_model(std::uint64_t seed);

}  // namespace plfoc
