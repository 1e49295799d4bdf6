// The repo-wide 64-bit mixing permutation and the serial digest built on it.
//
// checksum64 is the *digest* hash: it keys the result cache
// (cache/result_cache.cpp) and forms the wire-visible taxa digest
// (tree/phylo2vec.cpp), so its values are frozen — changing a single bit
// invalidates every cache key and every client's digest check. Out-of-core
// vector records use ooc/record_checksum.hpp instead (a lint rule keeps
// src/ooc/ off this one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace plfoc {

/// The splitmix64 finalizer — the repo-wide mixing permutation (util/rng.cpp
/// steps the same constants as a generator).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeded 64-bit digest: one mix64 round per 8-byte little-endian word, tail
/// zero-padded and salted with the length so inputs of different sizes never
/// collide trivially. One dependent chain — about 1 GB/s, fine for names and
/// keys, far too slow for vector records.
inline std::uint64_t checksum64(std::uint64_t seed, const void* data,
                                std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h =
      seed ^ (0x9e3779b97f4a7c15ull + (static_cast<std::uint64_t>(bytes) << 1));
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = mix64(h ^ word);
  }
  if (i < bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, bytes - i);
    h = mix64(h ^ word ^ static_cast<std::uint64_t>(bytes));
  }
  return h;
}

/// Two checksum64 digests of the same bytes under two seeds, in one pass:
/// the chains are independent, so interleaving them roughly doubles the
/// throughput of two calls. Bit-identical to
/// {checksum64(seed_a, ...), checksum64(seed_b, ...)}.
struct Checksum64Pair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

inline Checksum64Pair checksum64_pair(std::uint64_t seed_a,
                                      std::uint64_t seed_b, const void* data,
                                      std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const std::uint64_t salt =
      0x9e3779b97f4a7c15ull + (static_cast<std::uint64_t>(bytes) << 1);
  std::uint64_t a = seed_a ^ salt;
  std::uint64_t b = seed_b ^ salt;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    a = mix64(a ^ word);
    b = mix64(b ^ word);
  }
  if (i < bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, bytes - i);
    word ^= static_cast<std::uint64_t>(bytes);
    a = mix64(a ^ word);
    b = mix64(b ^ word);
  }
  return {a, b};
}

}  // namespace plfoc
