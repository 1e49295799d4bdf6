// Write-behind eviction in OutOfCoreStore (docs/storage-layer.md,
// "Write-behind"): a victim written back on a miss that reads nothing is
// checksummed and written by the store's writer thread while the engine goes
// on. These tests pin the contract:
//  * a read of a vector whose write-back is still queued returns its bits;
//  * kSingle rounding is the synchronous path's, bit for bit;
//  * a drop's retire lands behind a queued write of the same record;
//  * a failed write-behind is un-counted, thrown typed on the engine
//    thread, kept queued and retried; the store stays audit-clean and its
//    destructor does not hang;
//  * a cancel with writes queued unwinds, and the Session evaluates again;
//  * the writer runs beside engine traversals (the TSan target);
//  * the memory accounting counts the write-behind buffers.
// Runs as `ctest -L ooc`.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "likelihood/memory_model.hpp"
#include "ooc/audit.hpp"
#include "ooc/ooc_store.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"

namespace plfoc {
namespace {

constexpr std::size_t kWidth = 64;

/// Each syscall of the backing file stalls this long: enough to keep the
/// queue full while the test's engine thread moves on.
constexpr const char* kSlowDisk =
    "seed=1,rate=1,kinds=latency,latency-ns=30000000";

OocStoreOptions store_options(const char* tag, const char* faults = "",
                              unsigned max_retries = 4) {
  OocStoreOptions options;
  options.num_slots = 3;
  options.policy = ReplacementPolicy::kLru;
  options.file.base_path = temp_vector_file_path(tag);
  options.file.faults = FaultConfig::parse(faults);
  options.file.retry.max_retries = max_retries;
  options.file.retry.backoff_initial_us = 0;
  return options;
}

double value_of(std::uint32_t index, std::size_t i) {
  return 1.0 / (3.0 + index) + static_cast<double>(i) * 0.125;
}

void write_vector(OutOfCoreStore& store, std::uint32_t index) {
  VectorLease lease = store.acquire(index, AccessMode::kWrite);
  for (std::size_t i = 0; i < kWidth; ++i) lease.data()[i] = value_of(index, i);
}

void expect_identities(const OocStats& stats) {
  StoreAuditor auditor(1, 1);
  const auto violation = auditor.check_stats(stats);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(WriteBehind, ReadOfAQueuedVictimReturnsItsBits) {
  constexpr std::uint32_t kQueued = OutOfCoreStore::kWriteBehindBuffers;
  OutOfCoreStore store(8, kWidth, store_options("wb-queued", kSlowDisk));
  const FileBackend& file = store.file();  // live counters from here on
  for (std::uint32_t v = 0; v < 3 + kQueued; ++v) write_vector(store, v);
  // The first kQueued vectors were evicted by write-mode misses: their
  // write-backs are queued behind 30 ms syscalls, so none can have reached
  // the file yet.
  EXPECT_EQ(file.io_operations(), 0u);
  EXPECT_EQ(store.stats().file_writes, kQueued);  // counted when queued
  {
    // The last one queued: its write is still running behind the others
    // when the read's own victim write (as slow) is done.
    constexpr std::uint32_t kLast = kQueued - 1;
    VectorLease lease = store.acquire(kLast, AccessMode::kRead);
    for (std::size_t i = 0; i < kWidth; ++i)
      ASSERT_EQ(lease.data()[i], value_of(kLast, i)) << "at " << i;
  }
  // The read drained the queue, wrote its own victim and read the record.
  const OocStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.file_writes, kQueued + 1);
  EXPECT_EQ(stats.file_reads, 1u);
  EXPECT_EQ(file.io_operations(), kQueued + 2);
  expect_identities(stats);
}

TEST(WriteBehind, SingleDiskPrecisionRoundsAsTheSynchronousPath) {
  OocStoreOptions options = store_options("wb-single");
  options.disk_precision = DiskPrecision::kSingle;
  OutOfCoreStore store(8, kWidth, options);
  for (std::uint32_t v = 0; v < 8; ++v) write_vector(store, v);
  for (std::uint32_t v = 0; v < 5; ++v) {
    VectorLease lease = store.acquire(v, AccessMode::kRead);
    for (std::size_t i = 0; i < kWidth; ++i)
      ASSERT_EQ(lease.data()[i],
                static_cast<double>(static_cast<float>(value_of(v, i))));
  }

  // A Session without read skipping reads on every miss, so every victim
  // leaves synchronously; with it, write-mode misses write behind. The
  // same victims are re-read either way, so kSingle logL must agree.
  DatasetPlan plan;
  plan.num_taxa = 24;
  plan.num_sites = 150;
  plan.seed = 9;
  const PlannedDataset data = make_dna_dataset(plan);
  SessionOptions session_options;
  session_options.backend = Backend::kOutOfCore;
  session_options.ram_fraction = 0.2;
  session_options.policy = ReplacementPolicy::kLru;
  session_options.single_precision_disk = true;
  session_options.recompute_cherries = false;
  Session behind(data.alignment, data.tree, benchmark_gtr(), session_options);
  session_options.read_skipping = false;
  Session synchronous(data.alignment, data.tree, benchmark_gtr(),
                      session_options);
  for (int round = 0; round < 3; ++round)
    ASSERT_EQ(behind.engine().full_traversal_log_likelihood(),
              synchronous.engine().full_traversal_log_likelihood());
  EXPECT_GT(behind.stats().skipped_reads, 0u);
}

TEST(WriteBehind, DropRetiresBehindAQueuedWriteOfTheSameVector) {
  OocStoreOptions options = store_options("wb-retire", kSlowDisk);
  options.drop_rebuildable = true;
  OutOfCoreStore store(8, kWidth, options);
  store.set_recovery_hook([](std::uint32_t index, double* dst) {
    for (std::size_t i = 0; i < kWidth; ++i) dst[i] = value_of(index, i);
    return std::uint64_t{1};
  });
  for (std::uint32_t v = 0; v < 4; ++v) write_vector(store, v);  // queues 0
  {
    // Rewritten and marked while its old write-back is still queued.
    VectorLease lease = store.acquire(0, AccessMode::kWrite);  // queues 1
    for (std::size_t i = 0; i < kWidth; ++i) lease.data()[i] = value_of(0, i);
    store.mark_rebuildable(0);
  }
  for (std::uint32_t v : {2u, 3u}) {
    VectorLease hit = store.acquire(v, AccessMode::kRead);  // 0 is LRU now
  }
  write_vector(store, 4);  // drops 0 without waiting for a buffer
  store.flush();
  ASSERT_EQ(store.stats_snapshot().write_backs_avoided, 1u);
  // Had the retire overtaken the queued write, that write would have made
  // the record current again.
  std::vector<double> record(kWidth);
  EXPECT_EQ(store.file().read_vector_verified(0, record.data()).status,
            VerifyStatus::kStaleGeneration);
  {
    VectorLease lease = store.acquire(0, AccessMode::kRead);  // rebuilt
    EXPECT_EQ(lease.data()[1], value_of(0, 1));
  }
  EXPECT_EQ(store.stats_snapshot().recomputes, 1u);
}

TEST(WriteBehind, LethalEioThrowsTypedAndTheStoreStaysAuditClean) {
  OutOfCoreStore store(
      8, kWidth,
      store_options("wb-lethal", "seed=3,rate=1,kinds=eio,burst=1048576", 1));
  for (std::uint32_t v = 0; v < 4; ++v) write_vector(store, v);  // queues 0
  // The flush drains the queue; the write-behind of 0 has failed by then.
  try {
    store.flush();
    FAIL() << "a flush behind a failed write-behind returned";
  } catch (const IoError& error) {
    EXPECT_EQ(error.op(), "pwrite");
    EXPECT_TRUE(error.injected());
    EXPECT_EQ(error.attempts(), 2u);
  }
  OocStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.file_writes, 0u);  // un-counted: it never happened
  EXPECT_EQ(stats.bytes_written, 0u);
  EXPECT_GT(stats.io_exhausted, 0u);
  expect_identities(stats);
  // Still queued: the next drain retries it and fails again, typed.
  EXPECT_THROW(store.flush(), IoError);
  EXPECT_THROW((void)store.acquire(0, AccessMode::kRead), IoError);
  stats = store.stats_snapshot();
  EXPECT_EQ(stats.file_writes, 0u);
  expect_identities(stats);
  // Leaving scope joins the writer parked on the failure.
}

TEST(WriteBehind, TransientEioLosesNothing) {
  // Coin-flip EIO with no retry budget: write-behinds fail often. Each
  // failure surfaces once, typed, on the engine thread; the write stays
  // queued and a later drain lands it.
  OutOfCoreStore store(
      10, kWidth,
      store_options("wb-transient", "seed=7,rate=0.5,kinds=eio,burst=1000",
                    0));
  std::size_t failures = 0;
  const auto retry = [&](auto&& op) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      try {
        op();
        return;
      } catch (const IoError& error) {
        EXPECT_TRUE(error.injected());
        ++failures;
      }
    }
    FAIL() << "an operation kept failing on a coin-flip schedule";
  };
  for (std::uint32_t v = 0; v < 10; ++v) retry([&] { write_vector(store, v); });
  for (std::uint32_t pass = 0; pass < 2; ++pass) {
    for (std::uint32_t v = 0; v < 10; ++v) {
      retry([&] {
        VectorLease lease = store.acquire(v, AccessMode::kRead);
        for (std::size_t i = 0; i < kWidth; ++i)
          ASSERT_EQ(lease.data()[i], value_of(v, i)) << "vector " << v;
      });
    }
  }
  EXPECT_GT(failures, 0u);
  expect_identities(store.stats_snapshot());
}

TEST(WriteBehind, CancelWithWritesQueuedUnwindsAndReevaluates) {
  DatasetPlan plan;
  plan.num_taxa = 24;
  plan.num_sites = 120;
  plan.seed = 5;
  PlannedDataset data = make_dna_dataset(plan);
  Session in_ram(data.alignment, data.tree, benchmark_gtr(), SessionOptions{});
  const double reference = in_ram.evaluate().log_likelihood;

  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.2;
  options.policy = ReplacementPolicy::kLru;
  // 1 ms per syscall keeps every write-behind buffer in flight.
  options.faults = FaultConfig::parse(
      "seed=2,rate=1,kinds=latency,latency-ns=1000000");
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  for (const std::uint64_t trip : {6ull, 15ull, 30ull}) {
    SCOPED_TRACE("trip_at=" + std::to_string(trip));
    CancelToken token = CancelToken::make();
    session.set_cancel_token(token);
    token.set_trip_at(token.progress() + trip);
    EXPECT_THROW(session.engine().full_traversal_log_likelihood(),
                 CancelledError);
    expect_identities(session.store().stats_snapshot());
    session.set_cancel_token(CancelToken());
    EXPECT_EQ(session.evaluate().log_likelihood, reference);
  }
  EXPECT_GT(session.stats().skipped_reads, 0u);
}

TEST(Concurrency, WriteBehindBesideEngineTraversals) {
  // The engine thread's write-mode misses queue write-behinds while its
  // read-mode misses and rebuilds wait for them, with the writer thread
  // running the queue. Every evaluation stays bit-identical to the in-RAM
  // one.
  DatasetPlan plan;
  plan.num_taxa = 24;
  plan.num_sites = 120;
  plan.seed = 13;
  PlannedDataset data = make_dna_dataset(plan);
  Session reference(data.alignment, data.tree, benchmark_gtr(),
                    SessionOptions{});
  for (const bool drop : {false, true}) {
    SCOPED_TRACE(drop ? "dropping cherries" : "paper write-back");
    SessionOptions options;
    options.backend = Backend::kOutOfCore;
    options.ram_fraction = 0.25;
    options.policy = ReplacementPolicy::kLru;
    options.recompute_cherries = drop;
    Session session(data.alignment, data.tree, benchmark_gtr(), options);
    const auto edges = session.tree().edges();
    for (int round = 0; round < 6; ++round) {
      ASSERT_EQ(session.engine().full_traversal_log_likelihood(),
                reference.engine().full_traversal_log_likelihood());
      for (std::size_t e = static_cast<std::size_t>(round); e < edges.size();
           e += 5) {
        const auto [a, b] = edges[e];
        ASSERT_EQ(session.engine().log_likelihood(a, b),
                  reference.engine().log_likelihood(a, b));
      }
    }
    const OocStats stats = session.store().stats_snapshot();
    EXPECT_GT(stats.skipped_reads, 0u);
    EXPECT_GT(stats.file_writes, 0u);
    expect_identities(stats);
  }
}

TEST(WriteBehind, MemoryAccountingCountsTheBuffers) {
  constexpr std::size_t kBuffers = OutOfCoreStore::kWriteBehindBuffers;
  OutOfCoreStore store(8, kWidth, store_options("wb-memory"));
  EXPECT_EQ(store.slot_memory_bytes(), (3 + kBuffers) * kWidth * 8);
  const MemoryModel model = MemoryModel::dna(20, 100);
  EXPECT_EQ(model.write_behind_bytes(), kBuffers * model.vector_bytes());
  EXPECT_EQ(model.min_ooc_bytes(), (3 + kBuffers) * model.vector_bytes());
  // A store sized from a slot budget and its buffers fits the total.
  const std::uint64_t total = 10 * model.vector_bytes();
  const std::size_t slots = OocStoreOptions::slots_from_budget(
      total - model.write_behind_bytes(), model.vector_width());
  EXPECT_LE(OutOfCoreStore::memory_bytes(slots, model.vector_width()), total);
}

TEST(WriteBehind, AuditorForgetsExactlyTheUncountedWrite) {
  StoreAuditor auditor(4, 3);
  OocStats stats;
  stats.file_writes = 2;
  stats.bytes_written = 200;
  ASSERT_FALSE(auditor.check_stats(stats).has_value());
  auditor.forget_write(100);
  stats.file_writes = 1;
  stats.bytes_written = 100;
  EXPECT_FALSE(auditor.check_stats(stats).has_value());
  stats.file_writes = 0;  // a second, unreported decrement
  stats.bytes_written = 0;
  EXPECT_TRUE(auditor.check_stats(stats).has_value());
}

}  // namespace
}  // namespace plfoc
