#include "ooc/stats.hpp"

#include <gtest/gtest.h>

namespace plfoc {
namespace {

TEST(Stats, RatesAreZeroWithoutAccesses) {
  OocStats stats;
  EXPECT_EQ(stats.miss_rate(), 0.0);
  EXPECT_EQ(stats.read_rate(), 0.0);
  EXPECT_EQ(stats.capacity_miss_rate(), 0.0);
  EXPECT_EQ(stats.read_skip_rate(), 0.0);
}

TEST(Stats, ReadSkipRateGuardsZeroMisses) {
  // skipped_reads > 0 with misses == 0 can only come from a hand-assembled
  // or partially reset object; the rate must stay 0.0, not divide by zero.
  OocStats stats;
  stats.accesses = 10;
  stats.hits = 10;
  stats.skipped_reads = 3;
  EXPECT_EQ(stats.read_skip_rate(), 0.0);
}

TEST(Stats, ReadSkipRateIsSkippedOverMisses) {
  OocStats stats;
  stats.accesses = 10;
  stats.misses = 8;
  stats.skipped_reads = 6;
  EXPECT_DOUBLE_EQ(stats.read_skip_rate(), 0.75);
}

TEST(Stats, MissRate) {
  OocStats stats;
  stats.accesses = 10;
  stats.hits = 6;
  stats.misses = 4;
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 0.4);
}

TEST(Stats, ReadRateDivergesFromMissRateUnderReadSkipping) {
  OocStats stats;
  stats.accesses = 10;
  stats.misses = 4;
  stats.file_reads = 1;  // 3 of the 4 misses were write-mode and skipped
  stats.skipped_reads = 3;
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 0.4);
  EXPECT_DOUBLE_EQ(stats.read_rate(), 0.1);
}

TEST(Stats, CapacityMissRateExcludesColdMisses) {
  OocStats stats;
  stats.accesses = 20;
  stats.misses = 8;
  stats.cold_misses = 3;
  EXPECT_DOUBLE_EQ(stats.capacity_miss_rate(), 0.25);
}

TEST(Stats, CapacityMissRateClampsWhenColdMissesExceedMisses) {
  // A merge of partially reset counters can leave misses < cold_misses;
  // the unsigned subtraction must clamp to zero, not wrap to ~2^64.
  OocStats stats;
  stats.accesses = 10;
  stats.misses = 2;
  stats.cold_misses = 5;
  EXPECT_DOUBLE_EQ(stats.capacity_miss_rate(), 0.0);
}

TEST(Stats, PlusEqualsAccumulatesAllCounters) {
  // Consistent fixture: cold misses are a subset of misses, so the merge's
  // invariant restoration (cold_misses <= misses) leaves the sums alone.
  OocStats a;
  a.accesses = 1;
  a.hits = 2;
  a.misses = 3;
  a.cold_misses = 2;
  a.evictions = 5;
  a.file_reads = 6;
  a.file_writes = 7;
  a.skipped_reads = 8;
  a.bytes_read = 10;
  a.bytes_written = 11;
  a.faults_injected = 12;
  a.io_retries = 13;
  a.io_exhausted = 14;
  OocStats b = a;
  b += a;
  EXPECT_EQ(b.accesses, 2u);
  EXPECT_EQ(b.hits, 4u);
  EXPECT_EQ(b.misses, 6u);
  EXPECT_EQ(b.cold_misses, 4u);
  EXPECT_EQ(b.evictions, 10u);
  EXPECT_EQ(b.file_reads, 12u);
  EXPECT_EQ(b.file_writes, 14u);
  EXPECT_EQ(b.skipped_reads, 16u);
  EXPECT_EQ(b.bytes_read, 20u);
  EXPECT_EQ(b.bytes_written, 22u);
  EXPECT_EQ(b.faults_injected, 24u);
  EXPECT_EQ(b.io_retries, 26u);
  EXPECT_EQ(b.io_exhausted, 28u);
}

TEST(Stats, PlusEqualsThenCapacityMissRateStaysFinite) {
  // The underflow scenario from the field: one store reset between merges.
  OocStats total;
  OocStats fresh;  // reset after its cold phase: cold_misses kept, misses gone
  fresh.accesses = 4;
  fresh.cold_misses = 6;
  fresh.misses = 1;
  total += fresh;
  EXPECT_GE(total.capacity_miss_rate(), 0.0);
  EXPECT_LE(total.capacity_miss_rate(), 1.0);
}

TEST(Stats, SummaryMentionsKeyCounters) {
  OocStats stats;
  stats.accesses = 42;
  stats.misses = 21;
  stats.file_reads = 7;
  stats.file_writes = 3;
  stats.skipped_reads = 14;
  const std::string text = stats.summary();
  EXPECT_NE(text.find("accesses=42"), std::string::npos);
  EXPECT_NE(text.find("miss_rate=0.5000"), std::string::npos);
  EXPECT_NE(text.find("reads=7"), std::string::npos);
  EXPECT_NE(text.find("writes=3"), std::string::npos);
  EXPECT_NE(text.find("skipped=14"), std::string::npos);
  // Fault-free runs keep the robustness counters out of the summary line.
  EXPECT_EQ(text.find("faults="), std::string::npos);
}

TEST(Stats, SummaryShowsRobustnessCountersOnlyWhenActive) {
  OocStats stats;
  stats.accesses = 4;
  stats.hits = 4;
  stats.faults_injected = 9;
  stats.io_retries = 5;
  stats.io_exhausted = 1;
  const std::string text = stats.summary();
  EXPECT_NE(text.find("faults=9"), std::string::npos);
  EXPECT_NE(text.find("retried=5"), std::string::npos);
  EXPECT_NE(text.find("exhausted=1"), std::string::npos);
}

TEST(Stats, RecomputeCountersMergeAndShowOnlyWhenActive) {
  OocStats a;
  a.write_backs_avoided = 5;
  a.recomputes = 2;
  OocStats b = a;
  b += a;
  EXPECT_EQ(b.write_backs_avoided, 10u);
  EXPECT_EQ(b.recomputes, 4u);
  const std::string text = b.summary();
  EXPECT_NE(text.find("write_backs_avoided=10"), std::string::npos);
  EXPECT_NE(text.find("recomputes=4"), std::string::npos);
  EXPECT_EQ(OocStats{}.summary().find("recomputes="), std::string::npos);
}

}  // namespace
}  // namespace plfoc
