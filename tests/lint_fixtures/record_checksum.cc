// lint-as: src/ooc/file_backend.cpp
// Vector records are checksummed with record_checksum; the digest hash
// checksum64 is banned under src/ooc/ in every spelling, called or not.
#include "ooc/record_checksum.hpp"
#include "util/hash.hpp"

namespace plfoc {

std::uint64_t bad(std::uint64_t seed, const void* data, std::size_t bytes) {
  std::uint64_t h = checksum64(seed, data, bytes);  // expect(record-checksum)
  h ^= plfoc::checksum64(seed, data, 8);            // expect(record-checksum)
  h ^= ::plfoc::checksum64(h, data, 8);             // expect(record-checksum)
  auto* digest = &checksum64;                       // expect(record-checksum)
  return h ^ digest(0, data, 0);
}

std::uint64_t fine(std::uint64_t seed, const void* data, std::size_t bytes) {
  // A comment naming checksum64( must not fire, nor a string:
  const char* doc = "checksum64(seed, data, bytes) is the digest hash";
  (void)doc;
  int checksum64_calls = 0;  // identifier merely *containing* the name
  (void)checksum64_calls;
  return record_checksum(seed, data, bytes) ^ mix64(seed);
}

// plfoc-lint: allow(record-checksum): fixture: justified suppression is silent
std::uint64_t suppressed(const void* data) { return checksum64(0, data, 8); }

}  // namespace plfoc
