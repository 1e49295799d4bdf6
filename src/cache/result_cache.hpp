// Content-addressed result cache for the serving tier (docs/serving.md).
//
// The cache maps a 128-bit content key — derived from the canonical
// Phylo2Vec encoding of the query tree, its branch lengths, the alignment,
// the substitution model and the value-affecting session options — to the
// evaluated log likelihood. Because the key is content-addressed over the
// *canonical* encoding, topologically equivalent submissions (any Newick
// rotation of the same unrooted tree) collapse onto one entry, and because
// the determinism contract (docs/parallelism.md) makes logL bit-identical
// across backends/threads/budgets, a hit is indistinguishable from a fresh
// out-of-core traversal.
//
// Concurrency: sharded by key, one plfoc::Mutex per shard, LRU over the
// ready entries of each shard. Lookups are single-flight: the first miss
// for a key installs an in-flight placeholder and tells the caller to
// compute (the "leader"); concurrent lookups for the same key block on the
// shard's condition variable until the leader publishes (a coalesced hit)
// or abandons (a failed job never publishes — one blocked waiter is then
// promoted to leader). In-flight entries are pinned: eviction only ever
// removes ready entries.
//
// Counter identities (enforced by CacheStats::check_identities, the
// auditor-style gate the cache-stats-audit lint rule pins to this pair of
// files):  hits + misses == lookups,  coalesced <= hits,
// inserts + abandoned <= misses,  evictions <= inserts.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace plfoc {

class Alignment;
struct SubstitutionModel;
struct SessionOptions;
struct Phylo2Vec;

/// 128-bit content-addressed cache key (two independent 64-bit digest
/// chains over the same material; entries compare the full key, so a
/// collision needs both chains to collide at once).
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
  friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
};

/// Monotonic cache counters. All identities are checked, not assumed:
/// stats() runs check_identities() on the merged snapshot on every call.
struct CacheStats {
  /// lookup() calls, plus lookup_ready() calls that found a ready entry
  /// (the hits Service::submit answers without queueing the job)
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;       ///< lookups resolved from a ready entry
  std::uint64_t misses = 0;     ///< lookups that made the caller the leader
  std::uint64_t coalesced = 0;  ///< hits that waited on an in-flight leader
  std::uint64_t inserts = 0;    ///< publish() calls (leader succeeded)
  std::uint64_t abandoned = 0;  ///< abandon() calls (leader failed)
  std::uint64_t evictions = 0;  ///< ready entries dropped by LRU pressure

  /// Aborts (PLFOC_CHECK) unless the counter identities hold.
  void check_identities() const;
  CacheStats& operator+=(const CacheStats& other);
};

/// The alignment's share of a cache key: the state of both digest chains
/// after the alignment's fields (data type, dimensions, then names, encoded
/// rows and weights in row order). It depends on nothing else, so the
/// serving tier computes it once per bound alignment file.
struct CacheKeyPrefix {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};
CacheKeyPrefix plf_cache_key_prefix(const Alignment& alignment);

/// Derive the cache key for one evaluation job from its alignment's prefix.
/// `tree` must be the canonical encoding (phylo2vec_encode output); the
/// model is hashed by content (type, frequencies, exchangeabilities — the
/// display name is cosmetic), and of the session options exactly the
/// value-affecting fields: categories, alpha, compress_patterns,
/// single_precision_disk. Backend, thread count, budget and replacement
/// policy are deliberately excluded — the determinism contract makes them
/// value-transparent, which is what lets a cached result stand in for any
/// backend's traversal.
CacheKey plf_cache_key(const CacheKeyPrefix& prefix, const Phylo2Vec& tree,
                       const SubstitutionModel& model,
                       const SessionOptions& options);
/// plf_cache_key(plf_cache_key_prefix(alignment), tree, model, options).
CacheKey plf_cache_key(const Alignment& alignment, const Phylo2Vec& tree,
                       const SubstitutionModel& model,
                       const SessionOptions& options);

class ResultCache {
 public:
  /// `capacity` bounds the number of *ready* entries across all shards
  /// (in-flight placeholders are pinned and uncounted); it is split evenly
  /// over `shards`, each shard holding at least one entry.
  explicit ResultCache(std::size_t capacity, std::size_t shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Single-flight lookup. A ready entry returns its value (and refreshes
  /// its LRU position). A missing key installs an in-flight placeholder
  /// and returns nullopt: the caller is now the leader and MUST later call
  /// exactly one of publish() or abandon() for this key. An in-flight key
  /// blocks until the leader resolves it; waiters on a published value
  /// return it as a coalesced hit, waiters on an abandoned key re-enter
  /// the miss path (one of them becomes the new leader).
  std::optional<double> lookup(const CacheKey& key);

  /// Non-blocking probe for a ready entry. A ready entry counts one lookup
  /// and one hit, refreshes its LRU position and returns its value. A
  /// missing or in-flight key returns nullopt and counts nothing: the
  /// caller then goes through lookup() as usual, which counts it once.
  std::optional<double> lookup_ready(const CacheKey& key);

  /// Leader success: make the in-flight entry ready with `value`, wake
  /// waiters, apply LRU eviction.
  void publish(const CacheKey& key, double value);

  /// Leader failure: drop the in-flight entry and wake waiters so the job
  /// can be retried by whoever asks next. Failed evaluations are never
  /// cached (docs/serving.md on IoError / IntegrityError).
  void abandon(const CacheKey& key);

  /// Merged counter snapshot; runs check_identities() before returning.
  CacheStats stats() const;

  /// Ready entries currently held (in-flight placeholders excluded).
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    double value = 0.0;
    bool ready = false;
    /// Valid only when ready: position in the shard's LRU list.
    std::list<CacheKey>::iterator lru_pos;
  };

  struct Shard {
    mutable Mutex mutex;
    /// Signalled on publish() and abandon(); waiters re-check the map.
    CondVar resolved;
    std::map<CacheKey, Entry> entries PLFOC_GUARDED_BY(mutex);
    /// Ready keys, most recently used first.
    std::list<CacheKey> lru PLFOC_GUARDED_BY(mutex);
    CacheStats stats PLFOC_GUARDED_BY(mutex);
  };

  Shard& shard_for(const CacheKey& key) const {
    return *shards_[key.lo % shards_.size()];
  }

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace plfoc
