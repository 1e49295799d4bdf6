// StoreAuditor unit tests: the auditor must accept every state a correct
// slot manager can produce and reject each class of corruption it exists to
// catch. The checking API returns the violated invariant instead of aborting
// so these tests can assert on detection without death tests; the abort-on-
// violation path (enforce) is what OutOfCoreStore uses under PLFOC_AUDIT.
#include "ooc/audit.hpp"

#include <gtest/gtest.h>

#include "ooc/ooc_store.hpp"

namespace plfoc {
namespace {

// A consistent 3-slot / 6-vector table: vectors 4, 1 resident, slot 2 free.
struct TableFixture {
  std::vector<OocSlot> slots;
  std::vector<std::uint32_t> vector_slot;

  TableFixture() {
    slots.resize(3);
    slots[0] = {4, 1, false};
    slots[1] = {1, 0, false};
    vector_slot.assign(6, kOocNoSlot);
    vector_slot[4] = 0;
    vector_slot[1] = 1;
  }
};

TEST(StoreAuditor, AcceptsConsistentTable) {
  TableFixture t;
  StoreAuditor auditor(6, 3);
  EXPECT_EQ(auditor.check_table(t.slots, t.vector_slot), std::nullopt);
}

TEST(StoreAuditor, RejectsWrongSlotCount) {
  TableFixture t;
  StoreAuditor auditor(6, 4);
  ASSERT_TRUE(auditor.check_table(t.slots, t.vector_slot).has_value());
}

TEST(StoreAuditor, RejectsVectorMappedToWrongSlot) {
  TableFixture t;
  t.vector_slot[4] = 1;  // slot 1 actually holds vector 1
  StoreAuditor auditor(6, 3);
  const auto violation = auditor.check_table(t.slots, t.vector_slot);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("slot 0"), std::string::npos);
}

TEST(StoreAuditor, RejectsResidentVectorMissingFromMap) {
  TableFixture t;
  t.vector_slot[4] = kOocNoSlot;  // slot 0 says vector 4 lives there
  StoreAuditor auditor(6, 3);
  const auto violation = auditor.check_table(t.slots, t.vector_slot);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("not resident"), std::string::npos);
}

TEST(StoreAuditor, RejectsOneVectorInTwoSlots) {
  TableFixture t;
  t.slots[2] = {4, 0, false};  // vector 4 now also "in" slot 2
  StoreAuditor auditor(6, 3);
  ASSERT_TRUE(auditor.check_table(t.slots, t.vector_slot).has_value());
}

TEST(StoreAuditor, RejectsMapPointingIntoEmptySlot) {
  TableFixture t;
  t.vector_slot[3] = 2;  // slot 2 is empty
  StoreAuditor auditor(6, 3);
  const auto violation = auditor.check_table(t.slots, t.vector_slot);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("no vector"), std::string::npos);
}

TEST(StoreAuditor, RejectsOutOfRangeEntries) {
  TableFixture t;
  StoreAuditor auditor(6, 3);
  t.slots[0].vector = 99;
  ASSERT_TRUE(auditor.check_table(t.slots, t.vector_slot).has_value());
  TableFixture u;
  u.vector_slot[2] = 17;
  ASSERT_TRUE(auditor.check_table(u.slots, u.vector_slot).has_value());
}

TEST(StoreAuditor, RejectsPinnedOrDirtyEmptySlot) {
  TableFixture t;
  t.slots[2].pins = 1;
  StoreAuditor auditor(6, 3);
  ASSERT_TRUE(auditor.check_table(t.slots, t.vector_slot).has_value());
  TableFixture u;
  u.slots[2].dirty = true;
  ASSERT_TRUE(auditor.check_table(u.slots, u.vector_slot).has_value());
}

TEST(StoreAuditor, TracksDirtyFlagsAgainstWriteBacks) {
  TableFixture t;
  StoreAuditor auditor(6, 3);
  // Write-mode acquire of vector 4: the slot must now be dirty.
  EXPECT_EQ(auditor.record_acquire(4, /*write_mode=*/true,
                                   /*read_skipped=*/false),
            std::nullopt);
  EXPECT_TRUE(auditor.check_table(t.slots, t.vector_slot).has_value())
      << "clean flag on a vector with unwritten modifications must fail";
  t.slots[0].dirty = true;
  EXPECT_EQ(auditor.check_table(t.slots, t.vector_slot), std::nullopt);
  // Write-back: the dirty flag must be cleared again.
  EXPECT_EQ(auditor.record_file_write(4), std::nullopt);
  EXPECT_TRUE(auditor.check_table(t.slots, t.vector_slot).has_value())
      << "dirty flag surviving a write-back must fail";
  t.slots[0].dirty = false;
  EXPECT_EQ(auditor.check_table(t.slots, t.vector_slot), std::nullopt);
}

TEST(StoreAuditor, RejectsEvictionOfPinnedVector) {
  StoreAuditor auditor(6, 3);
  const auto violation =
      auditor.record_evict(4, /*pins=*/2, /*write_back_scheduled=*/true);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("pinned"), std::string::npos);
  EXPECT_EQ(auditor.record_evict(4, /*pins=*/0, /*write_back_scheduled=*/true),
            std::nullopt);
}

TEST(StoreAuditor, RejectsDirtyEvictionWithoutWriteBack) {
  StoreAuditor auditor(6, 3);
  ASSERT_EQ(auditor.record_acquire(2, true, false), std::nullopt);
  const auto violation =
      auditor.record_evict(2, 0, /*write_back_scheduled=*/false);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("write-back"), std::string::npos);
  // The same dirty victim with a write-back scheduled is legal (the hook runs
  // before the write-back, so the shadow dirty bit is still set here).
  EXPECT_EQ(auditor.record_evict(2, 0, /*write_back_scheduled=*/true),
            std::nullopt);
  // A victim whose modifications were already flushed may be dropped without
  // a write-back.
  StoreAuditor ok(6, 3);
  ASSERT_EQ(ok.record_acquire(2, true, false), std::nullopt);
  ASSERT_EQ(ok.record_file_write(2), std::nullopt);
  EXPECT_EQ(ok.record_evict(2, 0, /*write_back_scheduled=*/false),
            std::nullopt);
}

TEST(StoreAuditor, DirtyVictimLeavesByWriteBackOrAsAMarkedDrop) {
  StoreAuditor auditor(6, 3);
  ASSERT_EQ(auditor.record_acquire(2, true, false), std::nullopt);
  // Unmarked: a drop is as bad as a silent discard.
  const auto unmarked = auditor.record_evict(2, 0, false, /*dropped=*/true);
  ASSERT_TRUE(unmarked.has_value());
  EXPECT_NE(unmarked->find("rebuildable mark"), std::string::npos);
  EXPECT_TRUE(auditor.record_evict(2, 0, true, /*dropped=*/true).has_value());
  // Marked: the drop is legal, and the vector may be rebuilt exactly once.
  ASSERT_EQ(auditor.record_mark(2), std::nullopt);
  EXPECT_EQ(auditor.record_evict(2, 0, false, /*dropped=*/true), std::nullopt);
  EXPECT_TRUE(auditor.record_rebuild(2).has_value())
      << "not dropped until record_drop";
  ASSERT_EQ(auditor.record_drop(2), std::nullopt);
  EXPECT_EQ(auditor.record_rebuild(2), std::nullopt);
  const auto twice = auditor.record_rebuild(2);
  ASSERT_TRUE(twice.has_value());
  EXPECT_NE(twice->find("never dropped"), std::string::npos);
  // The rebuilt slot is dirty again and keeps its mark: it may drop again.
  EXPECT_TRUE(auditor.record_evict(2, 0, false).has_value());
  EXPECT_EQ(auditor.record_evict(2, 0, false, /*dropped=*/true), std::nullopt);
  ASSERT_EQ(auditor.record_drop(2), std::nullopt);
  // A write-mode acquire clears both the mark and the dropped state.
  ASSERT_EQ(auditor.record_acquire(2, true, false), std::nullopt);
  EXPECT_TRUE(auditor.record_rebuild(2).has_value());
  EXPECT_TRUE(auditor.record_evict(2, 0, false, /*dropped=*/true).has_value());
}

TEST(StoreAuditor, CheckStatsBindsTheRecomputeCounters) {
  StoreAuditor auditor(6, 3);
  OocStats stats;
  stats.accesses = 4;
  stats.misses = 4;
  stats.skipped_reads = 3;
  stats.recomputes = 2;  // a rebuild is a miss that was not read-skipped
  ASSERT_TRUE(auditor.check_stats(stats).has_value());
  stats.recomputes = 1;
  stats.evictions = 1;
  stats.write_backs_avoided = 2;  // each drop is an eviction
  ASSERT_TRUE(auditor.check_stats(stats).has_value());
  stats.write_backs_avoided = 1;
  EXPECT_EQ(auditor.check_stats(stats), std::nullopt);
  OocStats backwards = stats;
  backwards.recomputes = 0;
  const auto violation = auditor.check_stats(backwards);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("recomputes ran backwards"), std::string::npos);
}

TEST(StoreAuditor, RejectsReadModeReadSkip) {
  StoreAuditor auditor(6, 3);
  // Write-mode skips are the whole point of read skipping: allowed.
  EXPECT_EQ(auditor.record_acquire(1, /*write_mode=*/true,
                                   /*read_skipped=*/true),
            std::nullopt);
  // Read-mode skips are never sound.
  ASSERT_TRUE(auditor.record_acquire(1, false, true).has_value());
  // Worst case: the vector's authoritative copy is on disk and a read-mode
  // access skipped loading it.
  StoreAuditor disk(6, 3);
  ASSERT_EQ(disk.record_file_write(1), std::nullopt);
  EXPECT_TRUE(disk.ever_on_disk(1));
  const auto violation = disk.record_acquire(1, false, true);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("on-disk"), std::string::npos);
}

TEST(StoreAuditor, RejectsReleaseWithoutLease) {
  StoreAuditor auditor(6, 3);
  ASSERT_TRUE(auditor.record_release(3, /*pins_before=*/0).has_value());
  EXPECT_EQ(auditor.record_release(3, 1), std::nullopt);
}

TEST(StoreAuditor, RejectsOutOfRangeEvents) {
  StoreAuditor auditor(6, 3);
  EXPECT_TRUE(auditor.record_acquire(6, true, false).has_value());
  EXPECT_TRUE(auditor.record_file_write(6).has_value());
  EXPECT_TRUE(auditor.record_evict(6, 0, true).has_value());
  EXPECT_TRUE(auditor.record_release(6, 1).has_value());
}

TEST(StoreAuditor, CheckStatsAcceptsConsistentCounters) {
  StoreAuditor auditor(6, 3);
  OocStats stats;
  stats.accesses = 10;
  stats.hits = 6;
  stats.misses = 4;
  stats.cold_misses = 4;
  stats.skipped_reads = 2;
  EXPECT_EQ(auditor.check_stats(stats), std::nullopt);
}

TEST(StoreAuditor, CheckStatsRejectsBrokenIdentities) {
  StoreAuditor auditor(6, 3);
  OocStats stats;
  stats.accesses = 10;
  stats.hits = 6;
  stats.misses = 3;  // 6 + 3 != 10
  auto violation = auditor.check_stats(stats);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("accesses"), std::string::npos);

  stats.misses = 4;
  stats.cold_misses = 5;  // more compulsory misses than misses
  violation = auditor.check_stats(stats);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("cold_misses"), std::string::npos);

  stats.cold_misses = 4;
  stats.skipped_reads = 5;  // every skip is a miss; 5 > 4
  violation = auditor.check_stats(stats);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("skipped_reads"), std::string::npos);
}

TEST(StoreAuditor, CheckStatsDetectsBackwardsCounters) {
  StoreAuditor auditor(6, 3);
  OocStats first;
  first.accesses = 8;
  first.hits = 5;
  first.misses = 3;
  first.io_retries = 2;
  first.faults_injected = 2;
  ASSERT_EQ(auditor.check_stats(first), std::nullopt);

  // A later snapshot where a lifetime counter shrank is corruption.
  OocStats second = first;
  second.io_retries = 1;
  const auto violation = auditor.check_stats(second);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("io_retries ran backwards"), std::string::npos);

  // A failed check must not poison the baseline: the original counters
  // still pass, and genuine growth passes too.
  EXPECT_EQ(auditor.check_stats(first), std::nullopt);
  OocStats third = first;
  third.accesses = 9;
  third.hits = 6;
  EXPECT_EQ(auditor.check_stats(third), std::nullopt);
}

TEST(StoreAuditor, ResetStatsBaselineAllowsFreshCounters) {
  StoreAuditor auditor(6, 3);
  OocStats grown;
  grown.accesses = 100;
  grown.hits = 60;
  grown.misses = 40;
  ASSERT_EQ(auditor.check_stats(grown), std::nullopt);

  // After a store-level reset_stats() the counters legitimately restart
  // from zero; the paired baseline reset makes the auditor accept that.
  OocStats fresh;
  ASSERT_TRUE(auditor.check_stats(fresh).has_value());
  auditor.reset_stats_baseline();
  EXPECT_EQ(auditor.check_stats(fresh), std::nullopt);
}

TEST(StoreAuditor, EnforceIsSilentWithoutViolation) {
  StoreAuditor auditor(6, 3);
  auditor.enforce(std::nullopt, "noop");  // must not abort
  SUCCEED();
}

// End-to-end: drive a real store through misses, evictions, read skips and
// flushes while replaying every event into a shadow auditor exactly as the
// PLFOC_AUDIT hooks do. In PLFOC_AUDIT builds the store also
// runs its internal auditor on every mutation, so this doubles as an
// integration test that a correct workload never trips the oracle.
TEST(StoreAuditor, CleanStoreWorkloadNeverTrips) {
  const std::size_t width = 16;
  OocStoreOptions options;
  options.num_slots = 4;
  options.policy = ReplacementPolicy::kLru;
  options.file.base_path = temp_vector_file_path("audit");
  OutOfCoreStore store(12, width, options);

  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t idx = 0; idx < 12; ++idx) {
      auto lease = store.acquire(idx, AccessMode::kWrite);
      for (std::size_t i = 0; i < width; ++i)
        lease.data()[i] = idx * 100.0 + static_cast<double>(round);
    }
    store.flush();
    for (std::uint32_t idx = 0; idx < 12; ++idx) {
      auto lease = store.acquire(idx, AccessMode::kRead);
      ASSERT_EQ(lease.data()[0], idx * 100.0 + round);
    }
  }
  EXPECT_GT(store.stats().evictions, 0u);
}

}  // namespace
}  // namespace plfoc
