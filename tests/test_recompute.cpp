// Recompute instead of store (docs/storage-layer.md, "dropping rebuildable
// vectors"): the out-of-core store evicts a vector marked rebuildable
// without writing it back, and rebuilds it through the recovery hook on its
// next read-mode miss. The store-level tests pin the counters and the read
// paths (demand, cancellation); the Session-level tests pin bit
// identity against the in-RAM engine and against the paper's write-back
// path, in both disk precisions and on every I/O engine.
#include <gtest/gtest.h>

#include <vector>

#include "ooc/audit.hpp"
#include "ooc/ooc_store.hpp"
#include "search/spr.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"

namespace plfoc {
namespace {

constexpr std::size_t kWidth = 16;

double value_of(std::uint32_t index, std::size_t i) {
  return static_cast<double>(index) * 100.0 + static_cast<double>(i);
}

OocStoreOptions drop_options(const char* tag, bool drop = true) {
  OocStoreOptions options;
  options.num_slots = 3;
  options.policy = ReplacementPolicy::kLru;
  options.drop_rebuildable = drop;
  options.file.base_path = temp_vector_file_path(tag);
  return options;
}

/// Write vector `index` with its pattern, marking it rebuildable on request.
void write_vector(AncestralStore& store, std::uint32_t index, bool mark) {
  VectorLease lease = store.acquire(index, AccessMode::kWrite);
  for (std::size_t i = 0; i < kWidth; ++i) lease.data()[i] = value_of(index, i);
  if (mark) store.mark_rebuildable(index);
}

void expect_pattern(AncestralStore& store, std::uint32_t index) {
  VectorLease lease = store.acquire(index, AccessMode::kRead);
  for (std::size_t i = 0; i < kWidth; ++i)
    ASSERT_EQ(lease.data()[i], value_of(index, i)) << "element " << i;
}

/// Recovery hook that rebuilds the pattern and counts its calls.
struct PatternHook {
  std::uint32_t calls = 0;
  void attach(AncestralStore& store) {
    store.set_recovery_hook([this](std::uint32_t index, double* dst) {
      ++calls;
      for (std::size_t i = 0; i < kWidth; ++i) dst[i] = value_of(index, i);
      return std::uint64_t{1};
    });
  }
};

void expect_identities(const OocStats& stats) {
  StoreAuditor auditor(1, 1);
  const auto violation = auditor.check_stats(stats);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(RecomputeStore, DroppedVectorIsRebuiltNotRead) {
  OutOfCoreStore store(6, kWidth, drop_options("drop-rebuild"));
  PatternHook hook;
  hook.attach(store);
  // Vector 0 is marked; LRU evicts 0, 1 and 2 while 3..5 are written.
  write_vector(store, 0, /*mark=*/true);
  for (std::uint32_t v = 1; v < 6; ++v) write_vector(store, v, false);
  OocStats before = store.stats();
  EXPECT_EQ(before.evictions, 3u);
  EXPECT_EQ(before.write_backs_avoided, 1u);
  EXPECT_EQ(before.file_writes, 2u);

  expect_pattern(store, 0);
  OocStats after = store.stats();
  EXPECT_EQ(hook.calls, 1u);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.recomputes, 1u);
  EXPECT_EQ(after.file_reads, before.file_reads);
  EXPECT_EQ(after.integrity_failures, 0u);

  // The rebuilt vector keeps its mark: its next eviction drops it again.
  before = after;
  for (std::uint32_t v = 3; v < 6; ++v) expect_pattern(store, v);
  after = store.stats();
  EXPECT_FALSE(store.is_resident(0));
  EXPECT_EQ(after.write_backs_avoided, 2u);
  expect_pattern(store, 0);
  EXPECT_EQ(hook.calls, 2u);
  EXPECT_EQ(store.stats().recomputes, 2u);
  expect_identities(store.stats());
}

TEST(RecomputeStore, DropsNeedTheOptionTheHookAndTheMark) {
  // Option on, no hook: a raw store writes every victim back.
  {
    OutOfCoreStore store(6, kWidth, drop_options("drop-nohook"));
    for (std::uint32_t v = 0; v < 6; ++v) write_vector(store, v, true);
    EXPECT_EQ(store.stats().write_backs_avoided, 0u);
    EXPECT_EQ(store.stats().file_writes, store.stats().evictions);
  }
  // Hook and marks, option off: the paper's write-back path.
  {
    OutOfCoreStore store(6, kWidth, drop_options("drop-off", false));
    PatternHook hook;
    hook.attach(store);
    for (std::uint32_t v = 0; v < 6; ++v) write_vector(store, v, true);
    expect_pattern(store, 0);
    EXPECT_EQ(hook.calls, 0u);
    EXPECT_EQ(store.stats().write_backs_avoided, 0u);
    EXPECT_EQ(store.stats().recomputes, 0u);
  }
  // Option and hook, but a later write-mode acquire cleared the mark.
  {
    OutOfCoreStore store(6, kWidth, drop_options("drop-cleared"));
    PatternHook hook;
    hook.attach(store);
    write_vector(store, 0, true);
    write_vector(store, 0, false);
    for (std::uint32_t v = 1; v < 6; ++v) write_vector(store, v, false);
    EXPECT_EQ(store.stats().write_backs_avoided, 0u);
    expect_pattern(store, 0);
    EXPECT_EQ(hook.calls, 0u);
    EXPECT_EQ(store.stats().file_reads, 1u);
  }
}

TEST(RecomputeStore, CancelledRebuildUndoesTheInstall) {
  OutOfCoreStore store(6, kWidth, drop_options("drop-cancel"));
  bool cancel_next = true;
  store.set_recovery_hook([&](std::uint32_t index, double* dst) {
    if (cancel_next) {
      cancel_next = false;
      throw CancelledError(CancelReason::kExplicit);
    }
    for (std::size_t i = 0; i < kWidth; ++i) dst[i] = value_of(index, i);
    return std::uint64_t{1};
  });
  write_vector(store, 0, true);
  for (std::uint32_t v = 1; v < 6; ++v) write_vector(store, v, false);

  EXPECT_THROW(
      { VectorLease lease = store.acquire(0, AccessMode::kRead); },
      CancelledError);
  EXPECT_FALSE(store.is_resident(0));
  EXPECT_EQ(store.stats().recomputes, 0u);
  EXPECT_EQ(store.stats().integrity_failures, 0u);
  expect_identities(store.stats());

  // Still dropped: the next read rebuilds it instead of reading the file.
  const std::uint64_t reads = store.stats().file_reads;
  expect_pattern(store, 0);
  EXPECT_EQ(store.stats().recomputes, 1u);
  EXPECT_EQ(store.stats().file_reads, reads);
  expect_identities(store.stats());
}

// ---------------------------------------------------------------------------
// Session level: the engine marks cherries, and the results never change.

PlannedDataset recompute_dataset(std::size_t taxa = 24,
                                 std::size_t sites = 160) {
  DatasetPlan plan;
  plan.num_taxa = taxa;
  plan.num_sites = sites;
  plan.seed = 77;
  return make_dna_dataset(plan);
}

SessionOptions ooc_options(bool recompute) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.2;
  options.policy = ReplacementPolicy::kLru;
  options.recompute_cherries = recompute;
  return options;
}

/// One evaluation, then full traversals and a branch-length pass.
std::vector<double> run_series(const SessionOptions& options,
                               OocStats* stats = nullptr) {
  PlannedDataset data = recompute_dataset();
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  std::vector<double> series;
  series.push_back(session.engine().log_likelihood());
  for (int t = 0; t < 2; ++t)
    series.push_back(session.engine().full_traversal_log_likelihood());
  series.push_back(session.engine().optimize_all_branches(1));
  if (stats != nullptr) *stats = session.store().stats_snapshot();
  return series;
}

TEST(RecomputeSession, CherriesAreDroppedAndResultsBitIdentical) {
  const std::vector<double> reference = run_series(SessionOptions{});
  OocStats paper_stats;
  const std::vector<double> paper = run_series(ooc_options(false), &paper_stats);
  OocStats stats;
  const std::vector<double> dropped = run_series(ooc_options(true), &stats);
  EXPECT_EQ(paper, reference);
  EXPECT_EQ(dropped, reference);
  EXPECT_EQ(paper_stats.write_backs_avoided, 0u);
  EXPECT_EQ(paper_stats.recomputes, 0u);
  EXPECT_GT(stats.write_backs_avoided, 0u);
  EXPECT_GT(stats.recomputes, 0u);
  EXPECT_LT(stats.file_writes, paper_stats.file_writes);
  expect_identities(stats);
}

TEST(RecomputeSession, SinglePrecisionDropMatchesWriteBackBitForBit) {
  SessionOptions paper = ooc_options(false);
  paper.single_precision_disk = true;
  SessionOptions dropping = ooc_options(true);
  dropping.single_precision_disk = true;
  OocStats stats;
  const std::vector<double> expected = run_series(paper);
  EXPECT_EQ(run_series(dropping, &stats), expected);
  EXPECT_GT(stats.recomputes, 0u);
}

TEST(RecomputeSession, EveryEvictionIsAWriteOrADrop) {
  // Smoke-size full traversal under the paper's unconditional write-back:
  // each victim leaves by exactly one of the two ways.
  PlannedDataset data = recompute_dataset(64, 200);
  SessionOptions options = ooc_options(true);
  options.ram_fraction = 0.125;
  options.write_back_clean = true;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  for (int t = 0; t < 2; ++t) session.engine().full_traversal_log_likelihood();
  const OocStats stats = session.stats();
  EXPECT_GT(stats.write_backs_avoided, 0u);
  EXPECT_EQ(stats.file_writes + stats.write_backs_avoided, stats.evictions);
}

TEST(RecomputeSession, BitIdenticalOnEveryIoEngine) {
  const std::vector<double> reference = run_series(SessionOptions{});
  for (const AioEngineKind engine :
       {AioEngineKind::kSync, AioEngineKind::kThreads,
        AioEngineKind::kDeterministic}) {
    SCOPED_TRACE(static_cast<int>(engine));
    SessionOptions options = ooc_options(true);
    options.io_engine = engine;
    options.io_permute_seed = 5;
    options.read_skipping = engine != AioEngineKind::kThreads;
    OocStats stats;
    EXPECT_EQ(run_series(options, &stats), reference);
    EXPECT_GT(stats.recomputes, 0u);
  }
}

TEST(RecomputeSession, SprSearchMatchesThePaperPath) {
  const auto search = [](bool recompute) {
    PlannedDataset data = recompute_dataset(20, 120);
    Session session(std::move(data.alignment), std::move(data.tree),
                    benchmark_gtr(), ooc_options(recompute));
    SprOptions spr;
    spr.radius_max = 3;
    spr.prune_stride = 2;
    const SprResult result = spr_search(session.engine(), spr);
    return std::vector<double>{result.final_log_likelihood,
                               static_cast<double>(result.moves_accepted),
                               session.engine().log_likelihood()};
  };
  EXPECT_EQ(search(true), search(false));
}

}  // namespace
}  // namespace plfoc
