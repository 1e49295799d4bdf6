// Checksum of out-of-core vector records (vector-file format v2 and the
// mmap store's per-vector sums; docs/file-formats.md specifies it).
//
// Every record is checksummed on write-back and verified on swap-in, so the
// hash sits on the Fig. 5 write-back path: a serial mix64 chain there costs
// ~4x the pwrite it guards. This one is stripe-parallel — each 64-byte
// stripe feeds eight independent 64-bit lanes with a keyed 32x32->64
// multiply-accumulate — and runs an AVX2 body where the CPU has one. The
// record hashed at write-back is a cold LRU victim, and hashing it cost
// about as much as its payload pwrite, so the AVX2 body prefetches 2 KiB
// ahead of the stripe it reads.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/hash.hpp"

namespace plfoc {

/// Seeded 64-bit checksum of one integrity record. Seeding makes checksums
/// file-specific: a record replayed from another file (or stripe) with a
/// self-consistent checksum still fails verification.
std::uint64_t record_checksum(std::uint64_t seed, const void* data,
                              std::size_t bytes);

namespace detail {
/// The two bodies behind record_checksum. They compute the same integers;
/// the AVX2 one may only run when cpu_has_avx2().
std::uint64_t record_checksum_scalar(std::uint64_t seed, const void* data,
                                     std::size_t bytes);
std::uint64_t record_checksum_avx2(std::uint64_t seed, const void* data,
                                   std::size_t bytes);
}  // namespace detail

}  // namespace plfoc
