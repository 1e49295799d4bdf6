#include "ooc/tiered_store.hpp"

#include <gtest/gtest.h>

#include "util/checks.hpp"

namespace plfoc {
namespace {

TieredStoreOptions small_options(std::size_t fast, std::size_t ram) {
  TieredStoreOptions options;
  options.fast_slots = fast;
  options.ram_slots = ram;
  options.file.base_path = temp_vector_file_path("tiered");
  return options;
}

void fill(VectorLease& lease, std::size_t width, double value) {
  for (std::size_t i = 0; i < width; ++i) lease.data()[i] = value + i;
}

void expect_content(VectorLease& lease, std::size_t width, double value) {
  for (std::size_t i = 0; i < width; ++i)
    ASSERT_EQ(lease.data()[i], value + i) << "element " << i;
}

TEST(TieredStore, RequiresMinimumSlots) {
  EXPECT_THROW(TieredStore(10, 8, small_options(2, 4)), Error);
  EXPECT_THROW(TieredStore(10, 8, small_options(3, 0)), Error);
}

TEST(TieredStore, DataSurvivesBothDemotionAndEviction) {
  const std::size_t width = 32;
  // 3 fast + 2 RAM slots for 12 vectors: every access cascade exercised.
  TieredStore store(12, width, small_options(3, 2));
  for (std::uint32_t idx = 0; idx < 12; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    fill(lease, width, idx * 100.0);
  }
  for (std::uint32_t idx = 0; idx < 12; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kRead);
    expect_content(lease, width, idx * 100.0);
  }
}

TEST(TieredStore, FastHitsAvoidAllTransfers) {
  TieredStore store(6, 16, small_options(6, 2));
  for (std::uint32_t idx = 0; idx < 6; ++idx)
    store.acquire(idx, AccessMode::kWrite);
  const TierStats before = store.tier_stats();
  const std::uint64_t reads_before = store.stats().file_reads;
  for (int round = 0; round < 3; ++round)
    for (std::uint32_t idx = 0; idx < 6; ++idx)
      store.acquire(idx, AccessMode::kRead);
  EXPECT_EQ(store.tier_stats().promotions, before.promotions);
  EXPECT_EQ(store.tier_stats().demotions, before.demotions);
  EXPECT_EQ(store.stats().file_reads, reads_before);
  EXPECT_EQ(store.tier_stats().fast_hits, 18u);
}

TEST(TieredStore, RamTierAbsorbsDiskTraffic) {
  // Working set fits fast+RAM: after population, cycling may promote/demote
  // but must not touch the disk.
  const std::size_t width = 16;
  TieredStore store(8, width, small_options(3, 5));
  for (std::uint32_t idx = 0; idx < 8; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    fill(lease, width, idx);
  }
  store.flush();
  const std::uint64_t reads_before = store.stats().file_reads;
  const std::uint64_t writes_before = store.stats().file_writes;
  for (int round = 0; round < 4; ++round)
    for (std::uint32_t idx = 0; idx < 8; ++idx) {
      auto lease = store.acquire(idx, AccessMode::kRead);
      expect_content(lease, width, idx);
    }
  EXPECT_EQ(store.stats().file_reads, reads_before);
  EXPECT_EQ(store.stats().file_writes, writes_before);
  EXPECT_GT(store.tier_stats().ram_hits, 0u);
}

TEST(TieredStore, PinnedFastVectorsAreNotDemoted) {
  const std::size_t width = 8;
  TieredStore store(10, width, small_options(3, 3));
  auto a = store.acquire(0, AccessMode::kWrite);
  fill(a, width, 500.0);
  auto b = store.acquire(1, AccessMode::kWrite);
  fill(b, width, 600.0);
  for (std::uint32_t idx = 2; idx < 10; ++idx)
    store.acquire(idx, AccessMode::kWrite);
  expect_content(a, width, 500.0);
  expect_content(b, width, 600.0);
}

TEST(TieredStore, AllFastPinnedFailsLoudly) {
  TieredStore store(10, 8, small_options(3, 3));
  [[maybe_unused]] auto a = store.acquire(0, AccessMode::kWrite);
  [[maybe_unused]] auto b = store.acquire(1, AccessMode::kWrite);
  [[maybe_unused]] auto c = store.acquire(2, AccessMode::kWrite);
  EXPECT_THROW(store.acquire(3, AccessMode::kWrite), Error);
}

TEST(TieredStore, ReadSkippingAppliesToDiskLayer) {
  TieredStoreOptions options = small_options(3, 2);
  options.read_skipping = true;
  TieredStore store(10, 16, options);
  for (std::uint32_t idx = 0; idx < 10; ++idx)
    store.acquire(idx, AccessMode::kWrite);
  EXPECT_EQ(store.stats().file_reads, 0u);
  EXPECT_GT(store.stats().skipped_reads, 0u);
}

TEST(TieredStore, TransfersAreCountedInBytes) {
  const std::size_t width = 16;
  TieredStore store(6, width, small_options(3, 3));
  for (std::uint32_t idx = 0; idx < 6; ++idx)
    store.acquire(idx, AccessMode::kWrite);
  const TierStats& stats = store.tier_stats();
  EXPECT_EQ(stats.bytes_transferred,
            (stats.promotions + stats.demotions) * width * sizeof(double));
}

TEST(TieredStore, FlushPersistsBothTiers) {
  const std::size_t width = 8;
  TieredStoreOptions options = small_options(3, 3);
  TieredStore store(5, width, options);
  for (std::uint32_t idx = 0; idx < 5; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    fill(lease, width, idx * 7.0);
  }
  store.flush();
  // After flush, reading everything back must not lose data even though it
  // cascades through demotions/evictions.
  for (std::uint32_t idx = 0; idx < 5; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kRead);
    expect_content(lease, width, idx * 7.0);
  }
}

TEST(TieredStore, ResetStatsZeroesTierStats) {
  TieredStoreOptions options = small_options(3, 2);
  options.ram_policy = ReplacementPolicy::kLru;
  TieredStore store(8, 16, options);
  for (int round = 0; round < 2; ++round)
    for (std::uint32_t idx = 0; idx < 8; ++idx)
      store.acquire(idx, round == 0 ? AccessMode::kWrite : AccessMode::kRead);
  store.acquire(7, AccessMode::kRead);  // fast hit
  store.acquire(4, AccessMode::kRead);  // promoted from the RAM tier
  const TierStats before = store.tier_stats();
  ASSERT_GT(before.promotions, 0u);
  ASSERT_GT(before.demotions, 0u);
  ASSERT_GT(before.fast_hits, 0u);
  ASSERT_GT(before.ram_hits, 0u);

  store.reset_stats();
  const TierStats after = store.tier_stats();
  EXPECT_EQ(after.promotions, 0u);
  EXPECT_EQ(after.demotions, 0u);
  EXPECT_EQ(after.fast_hits, 0u);
  EXPECT_EQ(after.ram_hits, 0u);
  EXPECT_EQ(after.bytes_transferred, 0u);
  EXPECT_EQ(store.stats_snapshot().accesses, 0u);
}

TEST(TieredStore, BackendName) {
  TieredStore store(4, 8, small_options(3, 2));
  EXPECT_STREQ(store.backend_name(), "tiered");
  EXPECT_EQ(store.fast_slots(), 3u);
  EXPECT_EQ(store.ram_slots(), 2u);
}

}  // namespace
}  // namespace plfoc
