// The result-cache subsystem (src/cache/) and its Phylo2Vec foundation
// (src/tree/phylo2vec.*): the encode/decode round-trip property, canonical
// dedupe of topologically equivalent trees, content-key derivation,
// single-flight coalescing under threads, LRU eviction, and the counter
// identities. Built as its own binary with the `cache` ctest label so CI
// runs it under every sanitizer flavour (TSan matters for the
// single-flight protocol).
#include "cache/result_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/compare.hpp"
#include "tree/newick.hpp"
#include "tree/phylo2vec.hpp"
#include "tree/random_tree.hpp"
#include "util/checks.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

// ------------------------------------------------------------- Phylo2Vec

/// Branch-length multiset of a tree: every edge length, sorted. The decode
/// renumbers nodes, so lengths are compared as multisets (the canonical
/// re-encode below pins the exact per-edge correspondence).
std::vector<double> sorted_lengths(const Tree& tree) {
  std::vector<double> lengths;
  for (const auto& [a, b] : tree.edges())
    lengths.push_back(tree.branch_length(a, b));
  std::sort(lengths.begin(), lengths.end());
  return lengths;
}

TEST(Phylo2Vec, RoundTripIsTopologyIdenticalAcrossRandomTrees) {
  Rng rng(20260808);
  for (const std::size_t n : {3u, 4u, 5u, 8u, 13u, 32u, 64u}) {
    for (int trial = 0; trial < (n <= 5 ? 8 : 3); ++trial) {
      const Tree tree = random_tree(n, rng);
      const Phylo2Vec encoding = phylo2vec_encode(tree);
      ASSERT_EQ(encoding.v.size(), n);
      ASSERT_EQ(encoding.lengths.size(), 2 * n - 3);
      EXPECT_EQ(encoding.v[0], 0u);
      EXPECT_EQ(encoding.v[1], 0u);
      for (std::size_t i = 2; i < n; ++i)
        EXPECT_LE(encoding.v[i], 2 * i - 2) << "n=" << n << " i=" << i;

      const Tree rebuilt = phylo2vec_decode(encoding);
      EXPECT_EQ(robinson_foulds(tree, rebuilt), 0u)
          << "n=" << n << " trial=" << trial;
      EXPECT_EQ(sorted_lengths(tree), sorted_lengths(rebuilt));
    }
  }
}

TEST(Phylo2Vec, EncodeIsAFixpointAfterOneRoundTrip) {
  Rng rng(7);
  for (const std::size_t n : {4u, 9u, 21u}) {
    const Tree tree = random_tree(n, rng);
    const Phylo2Vec first = phylo2vec_encode(tree);
    const Phylo2Vec second = phylo2vec_encode(phylo2vec_decode(first));
    EXPECT_EQ(first.taxa, second.taxa);
    EXPECT_EQ(first.v, second.v);
    // Bit-for-bit, not approximately: lengths ride the canonical order.
    ASSERT_EQ(first.lengths.size(), second.lengths.size());
    for (std::size_t i = 0; i < first.lengths.size(); ++i)
      EXPECT_EQ(std::memcmp(&first.lengths[i], &second.lengths[i],
                            sizeof(double)),
                0)
          << "length " << i << " changed across the round trip";
  }
}

TEST(Phylo2Vec, NewickRotationsEncodeIdentically) {
  // The same unrooted 5-taxon tree written three ways: rotated children,
  // different outermost trifurcation node.
  const char* rotations[] = {
      "((a:0.1,b:0.2):0.05,(c:0.3,d:0.4):0.07,e:0.5);",
      "((b:0.2,a:0.1):0.05,e:0.5,(d:0.4,c:0.3):0.07);",
      "(c:0.3,d:0.4,((a:0.1,b:0.2):0.05,e:0.5):0.07);",
  };
  const Phylo2Vec reference = phylo2vec_encode(parse_newick(rotations[0]));
  for (const char* text : rotations) {
    const Phylo2Vec encoding = phylo2vec_encode(parse_newick(text));
    EXPECT_EQ(encoding.taxa, reference.taxa) << text;
    EXPECT_EQ(encoding.v, reference.v) << text;
    EXPECT_EQ(encoding.lengths, reference.lengths) << text;
  }
}

TEST(Phylo2Vec, CanonicalIsIdempotent) {
  Rng rng(11);
  const Tree tree = random_tree(10, rng);
  const Tree once = phylo2vec_canonical(tree);
  const Tree twice = phylo2vec_canonical(once);
  const Phylo2Vec a = phylo2vec_encode(once);
  const Phylo2Vec b = phylo2vec_encode(twice);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(a.lengths, b.lengths);
}

TEST(Phylo2Vec, ValidateRejectsMalformedEncodings) {
  Rng rng(13);
  const Phylo2Vec good = phylo2vec_encode(random_tree(6, rng));
  EXPECT_NO_THROW(phylo2vec_validate(good));

  Phylo2Vec bad = good;
  bad.v[3] = 99;  // out of [0, 2i-2]
  EXPECT_THROW(phylo2vec_validate(bad), Error);

  bad = good;
  bad.lengths.pop_back();  // wrong arity
  EXPECT_THROW(phylo2vec_validate(bad), Error);

  bad = good;
  bad.lengths[0] = -0.5;  // non-positive
  EXPECT_THROW(phylo2vec_validate(bad), Error);

  bad = good;
  std::swap(bad.taxa[0], bad.taxa[1]);  // unsorted taxa
  EXPECT_THROW(phylo2vec_validate(bad), Error);

  bad = good;
  bad.v[0] = 1;  // v[0] must be 0
  EXPECT_THROW(phylo2vec_validate(bad), Error);
}

TEST(Phylo2Vec, DecodeRejectsUntrustedGarbage) {
  // The wire path feeds attacker-controlled vectors through decode; it must
  // throw plfoc::Error, never crash or mis-build.
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.below(8);
    Phylo2Vec encoding;
    for (std::size_t i = 0; i < n; ++i)
      encoding.taxa.push_back("t" + std::to_string(i));
    std::sort(encoding.taxa.begin(), encoding.taxa.end());
    for (std::size_t i = 0; i < n; ++i)
      encoding.v.push_back(static_cast<std::uint32_t>(rng.below(64)));
    const std::size_t num_lengths = rng.below(2 * n);
    for (std::size_t i = 0; i < num_lengths; ++i)
      encoding.lengths.push_back(rng.uniform() - 0.25);
    try {
      const Tree tree = phylo2vec_decode(encoding);
      tree.validate();  // decode may accept it — then it must be coherent
    } catch (const Error&) {
      // typed rejection is the expected path for malformed input
    }
  }
}

TEST(Phylo2Vec, TaxaDigestSeparatesTaxonSets) {
  const std::vector<std::string> a = {"a", "b", "c", "d"};
  const std::vector<std::string> b = {"a", "b", "c", "e"};
  const std::vector<std::string> c = {"a", "b", "c"};
  EXPECT_NE(phylo2vec_taxa_digest(a), phylo2vec_taxa_digest(b));
  EXPECT_NE(phylo2vec_taxa_digest(a), phylo2vec_taxa_digest(c));
  EXPECT_EQ(phylo2vec_taxa_digest(a), phylo2vec_taxa_digest(a));
}

// ------------------------------------------------------------- cache key

PlannedDataset cache_dataset(std::uint64_t seed = 5) {
  DatasetPlan plan;
  plan.num_taxa = 8;
  plan.num_sites = 40;
  plan.seed = seed;
  return make_dna_dataset(plan);
}

TEST(CacheKey, EquivalentRotationsShareAKeyDifferentTreesDoNot) {
  // Alignment over taxa a..e matching the rotation strings above.
  Alignment alignment(DataType::kDna, 8);
  alignment.add_sequence("a", "ACGTACGT");
  alignment.add_sequence("b", "ACGTACGA");
  alignment.add_sequence("c", "ACGTACAA");
  alignment.add_sequence("d", "ACGTAAAA");
  alignment.add_sequence("e", "ACGAAAAA");
  const SubstitutionModel model = jc69();
  const SessionOptions options;

  const Phylo2Vec rotation_a = phylo2vec_encode(
      parse_newick("((a:0.1,b:0.2):0.05,(c:0.3,d:0.4):0.07,e:0.5);"));
  const Phylo2Vec rotation_b = phylo2vec_encode(
      parse_newick("(c:0.3,d:0.4,((a:0.1,b:0.2):0.05,e:0.5):0.07);"));
  const Phylo2Vec different = phylo2vec_encode(
      parse_newick("((a:0.1,c:0.3):0.05,(b:0.2,d:0.4):0.07,e:0.5);"));
  const Phylo2Vec relabelled = phylo2vec_encode(
      parse_newick("((a:0.9,b:0.2):0.05,(c:0.3,d:0.4):0.07,e:0.5);"));

  const CacheKey key_a = plf_cache_key(alignment, rotation_a, model, options);
  const CacheKey key_b = plf_cache_key(alignment, rotation_b, model, options);
  const CacheKey key_c = plf_cache_key(alignment, different, model, options);
  const CacheKey key_d = plf_cache_key(alignment, relabelled, model, options);
  EXPECT_EQ(key_a, key_b) << "equivalent rotations must share a cache entry";
  EXPECT_NE(key_a, key_c) << "different topology must not collide";
  EXPECT_NE(key_a, key_d) << "different branch lengths must not collide";
}

TEST(CacheKey, ValueAffectingInputsChangeTheKeyTransparentOnesDoNot) {
  PlannedDataset data = cache_dataset();
  const Phylo2Vec tree = phylo2vec_encode(data.tree);
  const SubstitutionModel gtr = benchmark_gtr();
  SessionOptions base;

  const CacheKey reference = plf_cache_key(data.alignment, tree, gtr, base);

  SessionOptions changed = base;
  changed.alpha = base.alpha * 2;
  EXPECT_NE(plf_cache_key(data.alignment, tree, gtr, changed), reference);

  changed = base;
  changed.categories = base.categories + 1;
  EXPECT_NE(plf_cache_key(data.alignment, tree, gtr, changed), reference);

  EXPECT_NE(plf_cache_key(data.alignment, tree, jc69(), base), reference);

  // Backend / threads / budget / policy are value-transparent by the
  // determinism contract: the key must ignore them, or equivalent queries
  // submitted with different resource envelopes would never dedupe.
  changed = base;
  changed.backend = Backend::kOutOfCore;
  changed.ram_fraction = 0.3;
  changed.threads = 4;
  changed.policy = ReplacementPolicy::kLfu;
  EXPECT_EQ(plf_cache_key(data.alignment, tree, gtr, changed), reference);

  // The model's display name is cosmetic; its content is not.
  SubstitutionModel renamed = gtr;
  renamed.name = "custom";
  EXPECT_EQ(plf_cache_key(data.alignment, tree, renamed, base), reference);
  SubstitutionModel perturbed = gtr;
  perturbed.exchangeabilities[0] *= 1.5;
  EXPECT_NE(plf_cache_key(data.alignment, tree, perturbed, base), reference);
}

// ----------------------------------------------------------- ResultCache

CacheKey key_of(std::uint64_t i) { return CacheKey{i * 7919 + 1, i}; }

TEST(CacheKey, FusedDigestPairEqualsTwoChecksums) {
  std::vector<unsigned char> bytes(128000);
  Rng rng(31);
  for (unsigned char& byte : bytes)
    byte = static_cast<unsigned char>(rng.uniform() * 256.0);
  const std::uint64_t seed_a = 0x504c464f43434b31ull;
  const std::uint64_t seed_b = mix64(0x504c464f43434b32ull);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 70; ++n) lengths.push_back(n);
  lengths.push_back(bytes.size());
  for (const std::size_t n : lengths) {
    // Unaligned starts too: the fused loop reads words with memcpy.
    for (const std::size_t offset : {0u, 3u}) {
      if (offset + n > bytes.size()) continue;
      const unsigned char* data = bytes.data() + offset;
      const Checksum64Pair pair = checksum64_pair(seed_a, seed_b, data, n);
      EXPECT_EQ(pair.a, checksum64(seed_a, data, n)) << n << "+" << offset;
      EXPECT_EQ(pair.b, checksum64(seed_b, data, n)) << n << "+" << offset;
    }
  }
}

TEST(ResultCache, MissLeaderPublishHit) {
  ResultCache cache(8, 2);
  const CacheKey key = key_of(1);
  EXPECT_EQ(cache.lookup(key), std::nullopt);  // miss: caller is leader
  cache.publish(key, -123.5);
  EXPECT_EQ(cache.lookup(key), -123.5);
  EXPECT_EQ(cache.size(), 1u);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(ResultCache, AbandonedKeyIsRetriable) {
  ResultCache cache(8, 1);
  const CacheKey key = key_of(2);
  EXPECT_EQ(cache.lookup(key), std::nullopt);
  cache.abandon(key);  // leader failed; nothing cached
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key), std::nullopt);  // next caller leads again
  cache.publish(key, 4.0);
  EXPECT_EQ(cache.lookup(key), 4.0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.abandoned, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ResultCache, LookupReadyCountsOnlyReadyEntries) {
  ResultCache cache(2, 1);  // one shard so the LRU order is global
  const CacheKey key = key_of(3);
  // Missing and in-flight keys: nullopt, nothing counted, no placeholder.
  EXPECT_EQ(cache.lookup_ready(key), std::nullopt);
  EXPECT_EQ(cache.stats().lookups, 0u);
  ASSERT_EQ(cache.lookup(key), std::nullopt);  // leader
  EXPECT_EQ(cache.lookup_ready(key), std::nullopt);
  EXPECT_EQ(cache.stats().lookups, 1u);
  cache.publish(key, -7.25);

  // Ready: one lookup and one hit.
  EXPECT_EQ(cache.lookup_ready(key), -7.25);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 0u);

  // The probe refreshes LRU: key_of(4) is now the coldest and is evicted.
  ASSERT_EQ(cache.lookup(key_of(4)), std::nullopt);
  cache.publish(key_of(4), 4.0);
  EXPECT_EQ(cache.lookup_ready(key), -7.25);
  ASSERT_EQ(cache.lookup(key_of(5)), std::nullopt);
  cache.publish(key_of(5), 5.0);
  EXPECT_EQ(cache.lookup_ready(key), -7.25);
  EXPECT_EQ(cache.lookup_ready(key_of(4)), std::nullopt);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST(ResultCache, LruEvictsTheColdestReadyEntry) {
  ResultCache cache(3, 1);  // one shard so the LRU order is global
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(cache.lookup(key_of(i)), std::nullopt);
    cache.publish(key_of(i), static_cast<double>(i));
  }
  // Touch 0 so 1 is now the coldest.
  EXPECT_EQ(cache.lookup(key_of(0)), 0.0);
  ASSERT_EQ(cache.lookup(key_of(9)), std::nullopt);
  cache.publish(key_of(9), 9.0);  // evicts 1
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.lookup(key_of(0)), 0.0);
  EXPECT_EQ(cache.lookup(key_of(9)), 9.0);
  EXPECT_EQ(cache.lookup(key_of(1)), std::nullopt);  // evicted: miss, lead
  cache.abandon(key_of(1));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ResultCache, SingleFlightCoalescesConcurrentIdenticalLookups) {
  ResultCache cache(16, 4);
  const CacheKey key = key_of(3);
  constexpr int kThreads = 8;
  std::atomic<int> leaders{0};
  std::atomic<int> ready{0};
  std::vector<double> seen(kThreads, 0.0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const std::optional<double> found = cache.lookup(key);
      if (found) {
        seen[t] = *found;
        return;
      }
      leaders.fetch_add(1);
      // Simulate the traversal the waiters are coalescing behind.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cache.publish(key, -77.25);
      seen[t] = -77.25;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(leaders.load(), 1) << "exactly one thread computes";
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], -77.25);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.inserts, 1u);
  // Every non-leader either waited on the in-flight entry (coalesced) or
  // raced in after publish (plain hit); TSan runs shift the split, the
  // identities pin the total.
  EXPECT_LE(stats.coalesced, stats.hits);
}

TEST(ResultCache, StatsBalanceWhileAWaiterIsBlocked) {
  ResultCache cache(8, 1);
  const CacheKey key = key_of(6);
  ASSERT_EQ(cache.lookup(key), std::nullopt);  // leader
  std::thread waiter([&] { EXPECT_EQ(cache.lookup(key), 2.5); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // stats() checks the identities; a waiter counted before it resolves
  // would unbalance hits + misses == lookups here.
  EXPECT_EQ(cache.stats().lookups, 1u);
  cache.publish(key, 2.5);
  waiter.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCache, AbandonPromotesAWaiterToLeader) {
  ResultCache cache(16, 4);
  const CacheKey key = key_of(4);
  ASSERT_EQ(cache.lookup(key), std::nullopt);  // this thread leads

  std::atomic<bool> waiter_started{false};
  std::atomic<int> second_leaders{0};
  std::thread waiter([&] {
    waiter_started.store(true);
    const std::optional<double> found = cache.lookup(key);
    if (!found) {
      // Promoted to leader after the abandon; resolve so nothing dangles.
      second_leaders.fetch_add(1);
      cache.publish(key, 1.0);
    }
  });
  while (!waiter_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.abandon(key);
  waiter.join();

  EXPECT_EQ(second_leaders.load(), 1);
  EXPECT_EQ(cache.lookup(key), 1.0);
  cache.stats();  // identity check runs internally
}

TEST(ResultCache, StatsIdentitiesHoldUnderConcurrentMixedLoad) {
  ResultCache cache(8, 2);  // small: forces evictions under load
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const CacheKey key = key_of(rng.below(24));
        const std::optional<double> found = cache.lookup(key);
        if (!found) {
          if (rng.below(8) == 0)
            cache.abandon(key);
          else
            cache.publish(key, static_cast<double>(key.lo));
        } else {
          ASSERT_EQ(*found, static_cast<double>(key.lo));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = cache.stats();  // aborts if identities broken
  EXPECT_EQ(stats.lookups,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(ResultCache, StatsMergeAcrossInstances) {
  ResultCache a(4, 1);
  ASSERT_EQ(a.lookup(key_of(1)), std::nullopt);
  a.publish(key_of(1), 1.0);
  a.lookup(key_of(1));

  CacheStats merged = a.stats();
  merged += a.stats();
  EXPECT_EQ(merged.lookups, 4u);
  EXPECT_EQ(merged.hits, 2u);
  merged.check_identities();  // still coherent after the merge
}

}  // namespace
}  // namespace plfoc
