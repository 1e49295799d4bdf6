#include "cache/result_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "msa/alignment.hpp"
#include "model/rate_matrix.hpp"
#include "session.hpp"
#include "tree/phylo2vec.hpp"
#include "util/hash.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

// Domain-separation seeds for the two digest chains of the 128-bit key.
constexpr std::uint64_t kKeySeedHi = 0x504c464f43434b31ull;  // "PLFOCCK1"
constexpr std::uint64_t kKeySeedLo = 0x504c464f43434b32ull;  // "PLFOCCK2"

/// Two independent mix64/checksum64 chains absorbing the same material.
struct KeyHasher {
  std::uint64_t hi = kKeySeedHi;
  std::uint64_t lo = kKeySeedLo;

  void absorb_u64(std::uint64_t word) {
    hi = mix64(hi ^ word);
    lo = mix64(lo ^ mix64(word));
  }
  void absorb_f64(double value) {
    absorb_u64(std::bit_cast<std::uint64_t>(value));
  }
  void absorb_bytes(const void* data, std::size_t bytes) {
    const Checksum64Pair pair = checksum64_pair(hi, mix64(lo), data, bytes);
    hi = pair.a;
    lo = pair.b;
  }
  void absorb_string(const std::string& text) {
    absorb_u64(text.size());
    absorb_bytes(text.data(), text.size());
  }
  void absorb_f64_vector(const std::vector<double>& values) {
    absorb_u64(values.size());
    absorb_bytes(values.data(), values.size() * sizeof(double));
  }
};

}  // namespace

void CacheStats::check_identities() const {
  PLFOC_CHECK(hits + misses == lookups);
  PLFOC_CHECK(coalesced <= hits);
  PLFOC_CHECK(inserts + abandoned <= misses);
  PLFOC_CHECK(evictions <= inserts);
}

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  lookups += other.lookups;
  hits += other.hits;
  misses += other.misses;
  coalesced += other.coalesced;
  inserts += other.inserts;
  abandoned += other.abandoned;
  evictions += other.evictions;
  return *this;
}

CacheKey plf_cache_key(const Alignment& alignment, const Phylo2Vec& tree,
                       const SubstitutionModel& model,
                       const SessionOptions& options) {
  KeyHasher hasher;

  // Alignment: data type, dimensions, then per-taxon name + encoded row.
  hasher.absorb_u64(static_cast<std::uint64_t>(alignment.data_type()));
  hasher.absorb_u64(alignment.num_taxa());
  hasher.absorb_u64(alignment.num_sites());
  for (std::size_t taxon = 0; taxon < alignment.num_taxa(); ++taxon) {
    hasher.absorb_string(alignment.name(taxon));
    const auto row = alignment.row(taxon);
    hasher.absorb_bytes(row.data(), row.size());
  }
  hasher.absorb_f64_vector(alignment.weights());

  // Canonical tree: topology vector + canonical-order branch lengths. The
  // taxon binding is positional (label = rank in sorted name order), and
  // the names themselves are already absorbed via the alignment above.
  hasher.absorb_u64(tree.v.size());
  for (const std::uint32_t entry : tree.v) hasher.absorb_u64(entry);
  hasher.absorb_f64_vector(tree.lengths);

  // Model by content; the display name is cosmetic.
  hasher.absorb_u64(static_cast<std::uint64_t>(model.type));
  hasher.absorb_f64_vector(model.frequencies);
  hasher.absorb_f64_vector(model.exchangeabilities);

  // Session options that change the logL bit pattern. Backend, threads,
  // budget, policy, read-skipping are value-transparent by the determinism
  // contract and intentionally excluded.
  hasher.absorb_u64(options.categories);
  hasher.absorb_f64(options.alpha);
  hasher.absorb_u64(options.compress_patterns ? 1 : 0);
  hasher.absorb_u64(options.single_precision_disk ? 1 : 0);

  return CacheKey{hasher.hi, hasher.lo};
}

ResultCache::ResultCache(std::size_t capacity, std::size_t shards)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  const std::size_t count =
      std::clamp<std::size_t>(shards, 1, capacity_);
  shard_capacity_ = (capacity_ + count - 1) / count;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::optional<double> ResultCache::lookup(const CacheKey& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mutex);
  // A lookup is counted when it resolves, together with its hit or miss,
  // so a stats() snapshot taken while a waiter is blocked still balances.
  bool waited = false;
  for (;;) {
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      // Leader: install the in-flight placeholder (pinned — not in the
      // LRU list, so eviction cannot drop it before publish/abandon).
      shard.entries.emplace(key, Entry{});
      ++shard.stats.lookups;
      ++shard.stats.misses;
      return std::nullopt;
    }
    if (it->second.ready) {
      ++shard.stats.lookups;
      ++shard.stats.hits;
      if (waited) ++shard.stats.coalesced;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      return it->second.value;
    }
    // Someone else is computing this key: coalesce onto their result.
    waited = true;
    shard.resolved.wait(lock);
  }
}

std::optional<double> ResultCache::lookup_ready(const CacheKey& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end() || !it->second.ready) return std::nullopt;
  ++shard.stats.lookups;
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  return it->second.value;
}

void ResultCache::publish(const CacheKey& key, double value) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  PLFOC_CHECK(it != shard.entries.end() && !it->second.ready);
  it->second.value = value;
  it->second.ready = true;
  shard.lru.push_front(key);
  it->second.lru_pos = shard.lru.begin();
  ++shard.stats.inserts;
  while (shard.lru.size() > shard_capacity_) {
    const CacheKey victim = shard.lru.back();
    shard.lru.pop_back();
    shard.entries.erase(victim);
    ++shard.stats.evictions;
  }
  shard.resolved.notify_all();
}

void ResultCache::abandon(const CacheKey& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  PLFOC_CHECK(it != shard.entries.end() && !it->second.ready);
  shard.entries.erase(it);
  ++shard.stats.abandoned;
  shard.resolved.notify_all();
}

CacheStats ResultCache::stats() const {
  CacheStats merged;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    merged += shard->stats;
  }
  merged.check_identities();
  return merged;
}

std::size_t ResultCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace plfoc
