#include "ooc/record_checksum.hpp"

#include <immintrin.h>

#include <cstring>

#include "util/cpu_features.hpp"

namespace plfoc {
namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kStripeBytes = kLanes * 8;
// Lane j's key starts at mix64(seed ^ kKeySalt[j]) and advances by kKeyStep
// every stripe, so the same stripe contributes differently at every position
// and swapped stripes change the sum. The salts are the first eight 64-bit
// words of pi's fraction; lane j's accumulator starts at kKeySalt[7 - j].
constexpr std::uint64_t kKeySalt[kLanes] = {
    0x243f6a8885a308d3ull, 0x13198a2e03707344ull, 0xa4093822299f31d0ull,
    0x082efa98ec4e6c89ull, 0x452821e638d01377ull, 0xbe5466cf34e90c6cull,
    0xc0ac29b7c97c50ddull, 0x3f84d5b5b5470917ull};
constexpr std::uint64_t kKeyStep = 0x9e3779b97f4a7c15ull;

struct LaneState {
  alignas(32) std::uint64_t acc[kLanes];
  alignas(32) std::uint64_t key[kLanes];
};

LaneState initial_lanes(std::uint64_t seed) {
  LaneState lanes;
  for (std::size_t j = 0; j < kLanes; ++j) {
    lanes.acc[j] = kKeySalt[kLanes - 1 - j];
    lanes.key[j] = mix64(seed ^ kKeySalt[j]);
  }
  return lanes;
}

/// The lanes, then the < 64-byte tail, fold through one mix64 chain salted
/// with the record length (a torn prefix never matches the full record).
std::uint64_t finish(std::uint64_t seed, const std::uint64_t* acc,
                     const unsigned char* tail, std::size_t bytes) {
  const std::size_t tail_bytes = bytes % kStripeBytes;
  std::uint64_t h =
      seed ^ (0x9e3779b97f4a7c15ull + (static_cast<std::uint64_t>(bytes) << 1));
  for (std::size_t j = 0; j < kLanes; ++j) h = mix64(h ^ acc[j]);
  std::size_t i = 0;
  for (; i + 8 <= tail_bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, tail + i, 8);
    h = mix64(h ^ word);
  }
  if (i < tail_bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, tail + i, tail_bytes - i);
    h = mix64(h ^ word ^ static_cast<std::uint64_t>(bytes));
  }
  return h;
}

}  // namespace

namespace detail {

std::uint64_t record_checksum_scalar(std::uint64_t seed, const void* data,
                                     std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  LaneState lanes = initial_lanes(seed);
  for (std::size_t s = bytes / kStripeBytes; s > 0; --s, p += kStripeBytes) {
    std::uint64_t word[kLanes];
    std::memcpy(word, p, kStripeBytes);
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::uint64_t x = word[j] ^ lanes.key[j];
      lanes.acc[j] += word[j ^ 1] + (x & 0xffffffffull) * (x >> 32);
      lanes.key[j] += kKeyStep;
    }
  }
  return finish(seed, lanes.acc, p, bytes);
}

// Lanes 0-3 and 4-7 each live in one __m256i. _mm256_mul_epu32 multiplies
// the low 32 bits of each 64-bit lane, so mul(x, x >> 32) is lo32 * hi32;
// the (1,0,3,2) dword shuffle swaps adjacent 64-bit words, i.e. word[j ^ 1].
__attribute__((target("avx2"))) std::uint64_t record_checksum_avx2(
    std::uint64_t seed, const void* data, std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  LaneState lanes = initial_lanes(seed);
  auto* acc = reinterpret_cast<__m256i*>(lanes.acc);
  const auto* key = reinterpret_cast<const __m256i*>(lanes.key);
  __m256i acc_lo = _mm256_load_si256(acc);
  __m256i acc_hi = _mm256_load_si256(acc + 1);
  __m256i key_lo = _mm256_load_si256(key);
  __m256i key_hi = _mm256_load_si256(key + 1);
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(kKeyStep));
  constexpr int kSwapWords = _MM_SHUFFLE(1, 0, 3, 2);
  for (std::size_t s = bytes / kStripeBytes; s > 0; --s, p += kStripeBytes) {
    // Write-back hashes a cold LRU victim; the hardware prefetcher alone
    // leaves the loop waiting on memory. The address is formed as an integer
    // because it may lie past the record's end, where a prefetch is only a
    // hint and never faults.
    _mm_prefetch(reinterpret_cast<const char*>(
                     reinterpret_cast<std::uintptr_t>(p) + 2048),
                 _MM_HINT_T0);
    const __m256i w_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i w_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    const __m256i x_lo = _mm256_xor_si256(w_lo, key_lo);
    const __m256i x_hi = _mm256_xor_si256(w_hi, key_hi);
    const __m256i m_lo = _mm256_mul_epu32(x_lo, _mm256_srli_epi64(x_lo, 32));
    const __m256i m_hi = _mm256_mul_epu32(x_hi, _mm256_srli_epi64(x_hi, 32));
    acc_lo = _mm256_add_epi64(
        acc_lo, _mm256_add_epi64(m_lo, _mm256_shuffle_epi32(w_lo, kSwapWords)));
    acc_hi = _mm256_add_epi64(
        acc_hi, _mm256_add_epi64(m_hi, _mm256_shuffle_epi32(w_hi, kSwapWords)));
    key_lo = _mm256_add_epi64(key_lo, step);
    key_hi = _mm256_add_epi64(key_hi, step);
  }
  _mm256_store_si256(acc, acc_lo);
  _mm256_store_si256(acc + 1, acc_hi);
  return finish(seed, lanes.acc, p, bytes);
}

}  // namespace detail

std::uint64_t record_checksum(std::uint64_t seed, const void* data,
                              std::size_t bytes) {
  return cpu_has_avx2() ? detail::record_checksum_avx2(seed, data, bytes)
                        : detail::record_checksum_scalar(seed, data, bytes);
}

}  // namespace plfoc
