// Golden store traces: a fixed, seeded acquire/release/flush trace — with
// held pins, reads and writes — replayed against every file-backed slot
// manager configuration, asserting every counter and a hash of the final
// vector file.
//
// The likelihood oracles compare logL only, and logL does not depend on which
// vector a replacement strategy evicts. These traces pin the eviction
// sequence itself: the free-slot-first scan, the candidate order handed to
// choose_victim, the Random strategy's draws, and the write-back / read-skip
// decisions all show up in the counters or in the file bytes. A refactor of
// the slot table must reproduce the recorded values exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ooc/ooc_store.hpp"
#include "tree/random_tree.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

constexpr std::size_t kCount = 20;  // ancestral vectors (22-taxon tree)
constexpr std::size_t kWidth = 24;  // doubles per vector
constexpr int kSteps = 600;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << path;
  return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

/// Values exactly representable as floats, so kSingle round trips are exact
/// and the read-back digest depends only on which write each read observes.
void fill(double* data, std::uint32_t index, int step) {
  for (std::size_t i = 0; i < kWidth; ++i)
    data[i] = static_cast<double>(index * 1024 + (step % 997)) +
              static_cast<double>(i) * 0.25;
}

/// The trace. Every vector is first written once (the engine's first access
/// is always write-mode), then a seeded mix of reads, writes, held leases
/// (up to two pinned at once, so victim selection skips pinned slots),
/// releases and flushes. Returns a digest of every value read back.
std::uint64_t run_trace(AncestralStore& store) {
  Rng rng(0x5eed);
  std::vector<VectorLease> held;
  std::uint64_t digest = kFnvBasis;
  const auto hold = [&](VectorLease lease) {
    if (held.size() == 2) held.erase(held.begin());
    held.push_back(std::move(lease));
  };
  for (std::uint32_t v = 0; v < kCount; ++v) {
    VectorLease lease = store.acquire(v, AccessMode::kWrite);
    fill(lease.data(), v, 0);
  }
  for (int step = 1; step <= kSteps; ++step) {
    const auto v = static_cast<std::uint32_t>(rng.below(kCount));
    const std::uint64_t op = rng.below(20);
    if (op < 8) {  // read, sometimes keeping the pin
      VectorLease lease = store.acquire(v, AccessMode::kRead);
      digest = fnv1a(digest, lease.data(), kWidth * sizeof(double));
      if (op < 3) hold(std::move(lease));
    } else if (op < 14) {  // overwrite, sometimes keeping the pin
      VectorLease lease = store.acquire(v, AccessMode::kWrite);
      fill(lease.data(), v, step);
      if (op < 10) hold(std::move(lease));
    } else if (op < 17) {  // write then read back (a newview-style pair)
      {
        VectorLease lease = store.acquire(v, AccessMode::kWrite);
        fill(lease.data(), v, step);
      }
      VectorLease lease = store.acquire(v, AccessMode::kRead);
      digest = fnv1a(digest, lease.data(), kWidth * sizeof(double));
    } else if (op < 19) {
      held.clear();
    } else {
      store.flush();
    }
  }
  held.clear();
  store.flush();
  return digest;
}

std::string describe(const OocStats& s) {
  std::ostringstream out;
  out << "acc=" << s.accesses << " hit=" << s.hits << " miss=" << s.misses
      << " cold=" << s.cold_misses << " ev=" << s.evictions
      << " rd=" << s.file_reads << " wr=" << s.file_writes
      << " skip=" << s.skipped_reads << " br=" << s.bytes_read
      << " bw=" << s.bytes_written
      << " fi=" << s.faults_injected << " rt=" << s.io_retries
      << " ex=" << s.io_exhausted << " if=" << s.integrity_failures
      << " irc=" << s.integrity_recoveries
      << " iun=" << s.integrity_unrecovered
      << " rrc=" << s.recovery_recomputes
      << " ci=" << s.corruptions_injected << " bat=" << s.io_batches
      << " co=" << s.io_coalesced << " wco=" << s.io_write_coalesced;
  return out.str();
}

struct Golden {
  const char* name;
  const char* stats;
  std::uint64_t file_hash;
  std::uint64_t digest;
};

/// On a mismatch, print the observed values in the table's own syntax.
void expect_golden(const Golden& golden, const std::string& stats,
                   std::uint64_t file, std::uint64_t digest) {
  const bool match = stats == golden.stats && file == golden.file_hash &&
                     digest == golden.digest;
  EXPECT_TRUE(match) << "observed:\n    {\"" << golden.name << "\",\n     \""
                     << stats << "\",\n     0x" << std::hex << file
                     << "ull, 0x" << digest << "ull},";
}

Tree trace_tree() {
  Rng rng(22);
  return random_tree(kCount + 2, rng);
}

// clang-format off
const Golden kOocGolden[] = {
    {"random/sync/double",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=167 wr=441 skip=203 br=32064 bw=84672 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0x12d1853be24c6885ull, 0x82b623589fe6c97dull},
    {"random/sync/single",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=167 wr=254 skip=203 br=16032 bw=24384 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0xd1b25a88c923159full, 0x82b623589fe6c97dull},
    {"random/deterministic/double",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=167 wr=441 skip=203 br=32064 bw=84672 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=191 co=19 wco=19",
     0x12d1853be24c6885ull, 0x82b623589fe6c97dull},
    {"random/deterministic/single",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=167 wr=254 skip=203 br=16032 bw=24384 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=111 co=19 wco=19",
     0xd1b25a88c923159full, 0x82b623589fe6c97dull},
    {"lru/sync/double",
     "acc=617 hit=257 miss=360 cold=20 ev=354 rd=164 wr=431 skip=196 br=31488 bw=82752 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0xc8a6daf05e9e5eb9ull, 0x82b623589fe6c97dull},
    {"lru/sync/single",
     "acc=617 hit=257 miss=360 cold=20 ev=354 rd=164 wr=253 skip=196 br=15744 bw=24288 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0xae00e4fe6c77eddaull, 0x82b623589fe6c97dull},
    {"lru/deterministic/double",
     "acc=617 hit=257 miss=360 cold=20 ev=354 rd=164 wr=431 skip=196 br=31488 bw=82752 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=188 co=24 wco=24",
     0xc8a6daf05e9e5eb9ull, 0x82b623589fe6c97dull},
    {"lru/deterministic/single",
     "acc=617 hit=257 miss=360 cold=20 ev=354 rd=164 wr=253 skip=196 br=15744 bw=24288 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=100 co=24 wco=24",
     0xae00e4fe6c77eddaull, 0x82b623589fe6c97dull},
    {"lfu/sync/double",
     "acc=617 hit=242 miss=375 cold=20 ev=369 rd=179 wr=445 skip=196 br=34368 bw=85440 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0xd4d52d8d195a35d1ull, 0x82b623589fe6c97dull},
    {"lfu/sync/single",
     "acc=617 hit=242 miss=375 cold=20 ev=369 rd=179 wr=262 skip=196 br=17184 bw=25152 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0x65eba992050096fdull, 0x82b623589fe6c97dull},
    {"lfu/deterministic/double",
     "acc=617 hit=242 miss=375 cold=20 ev=369 rd=179 wr=445 skip=196 br=34368 bw=85440 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=203 co=10 wco=10",
     0xd4d52d8d195a35d1ull, 0x82b623589fe6c97dull},
    {"lfu/deterministic/single",
     "acc=617 hit=242 miss=375 cold=20 ev=369 rd=179 wr=262 skip=196 br=17184 bw=25152 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=109 co=10 wco=10",
     0x65eba992050096fdull, 0x82b623589fe6c97dull},
    {"topological/sync/double",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=174 wr=436 skip=196 br=33408 bw=83712 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0xf71cb7a3cf8ade4ull, 0x82b623589fe6c97dull},
    {"topological/sync/single",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=174 wr=254 skip=196 br=16704 bw=24384 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=0 co=0 wco=0",
     0x2d2def31d1c60271ull, 0x82b623589fe6c97dull},
    {"topological/deterministic/double",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=174 wr=436 skip=196 br=33408 bw=83712 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=198 co=16 wco=16",
     0xf71cb7a3cf8ade4ull, 0x82b623589fe6c97dull},
    {"topological/deterministic/single",
     "acc=617 hit=247 miss=370 cold=20 ev=364 rd=174 wr=254 skip=196 br=16704 bw=24384 fi=0 rt=0 ex=0 if=0 irc=0 iun=0 rrc=0 ci=0 bat=110 co=16 wco=16",
     0x2d2def31d1c60271ull, 0x82b623589fe6c97dull},
};
// clang-format on

const Golden* find_golden(const std::string& name) {
  for (const Golden& golden : kOocGolden)
    if (name == golden.name) return &golden;
  return nullptr;
}

TEST(StoreTrace, OutOfCoreStoreCountersAndFileMatchGolden) {
  const Tree tree = trace_tree();
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kRandom, ReplacementPolicy::kLru,
        ReplacementPolicy::kLfu, ReplacementPolicy::kTopological}) {
    for (AioEngineKind engine :
         {AioEngineKind::kSync, AioEngineKind::kDeterministic}) {
      for (DiskPrecision precision :
           {DiskPrecision::kDouble, DiskPrecision::kSingle}) {
        const std::string name =
            std::string(policy_name(policy)) + "/" + aio_engine_name(engine) +
            (precision == DiskPrecision::kSingle ? "/single" : "/double");
        SCOPED_TRACE(name);
        OocStoreOptions options;
        options.num_slots = 6;
        options.policy = policy;
        options.disk_precision = precision;
        // The kSingle runs also take the dirty-tracking ablation, so the
        // clean-victim drop paths are pinned too.
        options.write_back_clean = precision == DiskPrecision::kDouble;
        options.seed = 17;
        options.tree = &tree;
        options.file.base_path = temp_vector_file_path("trace");
        options.file.io_engine = engine;
        options.file.io_permute_seed = 3;
        OutOfCoreStore store(kCount, kWidth, options);
        const std::uint64_t digest = run_trace(store);
        const Golden* golden = find_golden(name);
        ASSERT_NE(golden, nullptr) << "no golden entry for " << name;
        expect_golden(*golden, describe(store.stats_snapshot()),
                      file_hash(options.file.base_path), digest);
      }
    }
  }
}

}  // namespace
}  // namespace plfoc
