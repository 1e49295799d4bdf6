// Deterministic multi-thread stress tests for the out-of-core layer. These
// are the TSan targets of the sanitizer CI matrix: they hammer the slot-table
// mutex from many threads (engine-style acquire/release against prefetch
// traffic) and the Prefetcher's submit/notify_progress/drain/shutdown
// protocol. They also run in plain builds as functional stress tests, and in
// PLFOC_AUDIT builds every mutation re-validates the slot-table invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "likelihood/kernel_pool.hpp"
#include "ooc/ooc_store.hpp"
#include "ooc/prefetch.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"

namespace plfoc {
namespace {

OocStoreOptions stress_options(std::size_t slots, const char* tag) {
  OocStoreOptions options;
  options.num_slots = slots;
  options.policy = ReplacementPolicy::kLru;
  options.file.base_path = temp_vector_file_path(tag);
  return options;
}

// N threads, each owning a disjoint range of vectors, write and re-verify
// their own data. Eviction constantly swaps vectors of *other* threads, so
// the slot table is mutated from every thread while each thread's leased
// pointers must stay stable and correct.
TEST(Concurrency, DisjointAcquireReleaseStress) {
  const std::size_t kThreads = 4;
  const std::uint32_t kPerThread = 8;
  const std::size_t kWidth = 24;
  const int kRounds = 60;
  OutOfCoreStore store(kThreads * kPerThread, kWidth,
                       stress_options(6, "stress-disjoint"));

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint32_t base = static_cast<std::uint32_t>(t) * kPerThread;
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint32_t k = 0; k < kPerThread; ++k) {
          const std::uint32_t index = base + k;
          const double tag = index * 1000.0 + round;
          {
            auto lease = store.acquire(index, AccessMode::kWrite);
            for (std::size_t i = 0; i < kWidth; ++i)
              lease.data()[i] = tag + static_cast<double>(i);
          }
          {
            auto lease = store.acquire(index, AccessMode::kRead);
            for (std::size_t i = 0; i < kWidth; ++i)
              if (lease.data()[i] != tag + static_cast<double>(i))
                failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(store.stats().evictions, 0u);
}

// Overlapping read-only traffic: every thread reads the same shared pool of
// vectors (read-mode leases on one vector may coexist), racing the swap-in /
// eviction machinery rather than the payload bytes.
TEST(Concurrency, OverlappingReadStress) {
  const std::uint32_t kCount = 24;
  const std::size_t kWidth = 16;
  OutOfCoreStore store(kCount, kWidth, stress_options(5, "stress-overlap"));
  for (std::uint32_t idx = 0; idx < kCount; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    for (std::size_t i = 0; i < kWidth; ++i)
      lease.data()[i] = idx * 7.0 + static_cast<double>(i);
  }
  store.flush();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::uint32_t state = static_cast<std::uint32_t>(t) * 2654435761u + 1u;
      for (int iter = 0; iter < 300; ++iter) {
        state = state * 1664525u + 1013904223u;  // per-thread LCG, no libc rand
        const std::uint32_t index = state % kCount;
        auto lease = store.acquire(index, AccessMode::kRead);
        for (std::size_t i = 0; i < kWidth; ++i)
          if (lease.data()[i] != index * 7.0 + static_cast<double>(i))
            failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// The Prefetcher destructor must join cleanly no matter how fresh the last
// submit was: the worker may be mid-prefetch, parked, or not yet woken.
TEST(Concurrency, PrefetcherShutdownRacesPendingSubmit) {
  const std::uint32_t kCount = 16;
  OutOfCoreStore store(kCount, 16, stress_options(5, "stress-shutdown"));
  for (std::uint32_t idx = 0; idx < kCount; ++idx)
    store.acquire(idx, AccessMode::kWrite);
  store.flush();

  for (int iter = 0; iter < 100; ++iter) {
    Prefetcher prefetcher(store, /*lookahead=*/4);
    prefetcher.submit({0, 3, 6, 9, 12, 15, 2, 5, 8, 11});
    if (iter % 3 == 0) prefetcher.notify_progress(iter % 5);
    // Destructor runs immediately, racing the worker's first wake-ups.
  }
  SUCCEED();
}

// Full-protocol hammer: an engine thread walks read sequences (acquire +
// notify_progress), a coordinator thread keeps replacing the plan and
// draining, while the worker prefetches — three threads contending on both
// the prefetcher state and the slot table.
TEST(Concurrency, PrefetcherSubmitNotifyDrainHammer) {
  const std::uint32_t kCount = 20;
  const std::size_t kWidth = 16;
  OutOfCoreStore store(kCount, kWidth, stress_options(6, "stress-hammer"));
  for (std::uint32_t idx = 0; idx < kCount; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    for (std::size_t i = 0; i < kWidth; ++i)
      lease.data()[i] = idx * 11.0 + static_cast<double>(i);
  }
  store.flush();

  Prefetcher prefetcher(store, /*lookahead=*/3);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread engine([&] {
    for (int round = 0; round < 40 && !stop.load(); ++round) {
      std::vector<std::uint32_t> plan;
      for (std::uint32_t k = 0; k < 10; ++k)
        plan.push_back((round * 3 + k * 7) % kCount);
      prefetcher.submit(plan);
      for (std::size_t pos = 0; pos < plan.size(); ++pos) {
        const std::uint32_t index = plan[pos];
        auto lease = store.acquire(index, AccessMode::kRead);
        for (std::size_t i = 0; i < kWidth; ++i)
          if (lease.data()[i] != index * 11.0 + static_cast<double>(i))
            failures.fetch_add(1, std::memory_order_relaxed);
        prefetcher.notify_progress(pos + 1);
      }
    }
  });
  std::thread coordinator([&] {
    for (int iter = 0; iter < 25 && !stop.load(); ++iter) {
      prefetcher.notify_progress(iter % 12);
      if (iter % 5 == 4) prefetcher.drain();
      std::this_thread::yield();
    }
  });
  engine.join();
  stop.store(true);
  coordinator.join();
  prefetcher.drain();
  EXPECT_EQ(failures.load(), 0);
}

// Engine-style traversal racing prefetch: the prefetcher is fed the exact
// upcoming read order while worker and engine contend for slots — the
// paper's intended deployment, with every content byte verified.
TEST(Concurrency, PrefetchAgainstEngineTraversals) {
  const std::uint32_t kCount = 18;
  const std::size_t kWidth = 32;
  OutOfCoreStore store(kCount, kWidth, stress_options(5, "stress-traverse"));
  for (std::uint32_t idx = 0; idx < kCount; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    for (std::size_t i = 0; i < kWidth; ++i)
      lease.data()[i] = idx * 13.0 + static_cast<double>(i);
  }
  store.flush();

  Prefetcher prefetcher(store, /*lookahead=*/4);
  for (int traversal = 0; traversal < 30; ++traversal) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t k = 0; k < kCount; ++k)
      order.push_back((k * 5 + traversal) % kCount);
    prefetcher.submit(order);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      auto lease = store.acquire(order[pos], AccessMode::kRead);
      for (std::size_t i = 0; i < kWidth; ++i)
        ASSERT_EQ(lease.data()[i], order[pos] * 13.0 + static_cast<double>(i));
      prefetcher.notify_progress(pos + 1);
    }
  }
  prefetcher.drain();
}

// Engine traversals that drop cherries, racing the prefetch worker: the
// engine thread sets rebuildable marks and rebuilds dropped vectors while
// the worker evicts (reading the marks) and skips the dropped records. Every
// evaluation must stay bit-identical to the in-RAM engine.
TEST(Concurrency, PrefetchAgainstCherryDroppingTraversals) {
  DatasetPlan plan;
  plan.num_taxa = 24;
  plan.num_sites = 120;
  plan.seed = 11;
  PlannedDataset data = make_dna_dataset(plan);
  Session reference(data.alignment, data.tree, benchmark_gtr(),
                    SessionOptions{});
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = 0.25;
  options.policy = ReplacementPolicy::kLru;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  Prefetcher prefetcher(*session.out_of_core(), /*lookahead=*/4);
  session.engine().attach_prefetcher(&prefetcher);
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
  session.engine().attach_prefetcher(nullptr);
  prefetcher.stop();
  const OocStats stats = session.store().stats_snapshot();
  EXPECT_GT(stats.write_backs_avoided, 0u);
  EXPECT_GT(stats.recomputes, 0u);
}

// Staged prefetch install racing demand traffic: a dedicated thread calls
// store.prefetch_batch() directly (the Prefetcher worker's code path, where
// the disk read happens OUTSIDE the slot-table mutex) while owner threads
// rewrite and re-verify their own vectors through demand leases. The tiny
// slot count keeps eviction constantly recycling slots underneath the staged
// reads, exercising the re-validation/stale-drop branch; every raced install
// must be dropped rather than clobbering a newer write.
TEST(Concurrency, PrefetchStagedInstallRacesDemandTraffic) {
  const std::size_t kThreads = 3;
  const std::uint32_t kPerThread = 6;
  const std::size_t kWidth = 24;
  const int kRounds = 50;
  const std::uint32_t kCount = kThreads * kPerThread;
  OutOfCoreStore store(kCount, kWidth, stress_options(4, "stress-prefetch"));
  for (std::uint32_t idx = 0; idx < kCount; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    for (std::size_t i = 0; i < kWidth; ++i) lease.data()[i] = -1.0;
  }
  store.flush();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  // Demand traffic runs at least kRounds rounds, then keeps going until the
  // hammer has installed something, so the race always happens however the
  // threads are scheduled. The cap turns a hammer that never installs into
  // a failed expectation below rather than a hang.
  const auto hammer_installed = [&] {
    const OocStats stats = store.stats_snapshot();
    return stats.prefetch_reads + stats.prefetch_stale > 0;
  };
  const int kMaxRounds = kRounds * 1000;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // the prefetch hammer
    std::uint32_t state = 12345u;
    while (!stop.load(std::memory_order_relaxed)) {
      state = state * 1664525u + 1013904223u;
      const std::uint32_t index = state % kCount;
      store.prefetch_batch(&index, 1);
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint32_t base = static_cast<std::uint32_t>(t) * kPerThread;
      for (int round = 0;
           round < kRounds || (round < kMaxRounds && !hammer_installed());
           ++round) {
        for (std::uint32_t k = 0; k < kPerThread; ++k) {
          const std::uint32_t index = base + k;
          const double tag = index * 1000.0 + round;
          {
            auto lease = store.acquire(index, AccessMode::kWrite);
            for (std::size_t i = 0; i < kWidth; ++i)
              lease.data()[i] = tag + static_cast<double>(i);
          }
          {
            auto lease = store.acquire(index, AccessMode::kRead);
            for (std::size_t i = 0; i < kWidth; ++i)
              if (lease.data()[i] != tag + static_cast<double>(i))
                failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::size_t t = 1; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();
  EXPECT_EQ(failures.load(), 0);
  const OocStats stats = store.stats_snapshot();
  // The hammer must have actually installed vectors; raced installs (if any)
  // are accounted as stale, never as prefetch_reads.
  EXPECT_GT(stats.prefetch_reads + stats.prefetch_stale, 0u);
}

// KernelPool block dispatch under TSan: many back-to-back jobs, each block
// recorded exactly once, with the caller thread participating. Also covers
// exception propagation out of a worker-executed block.
TEST(Concurrency, KernelPoolRunBlocksHammer) {
  KernelPool pool(4);
  const std::size_t kBlocks = 23;
  for (int job = 0; job < 200; ++job) {
    std::vector<int> hits(kBlocks, 0);
    pool.run_blocks(kBlocks, [&](std::size_t b) { ++hits[b]; });
    for (std::size_t b = 0; b < kBlocks; ++b)
      ASSERT_EQ(hits[b], 1) << "job " << job << " block " << b;
  }
  // A throwing block surfaces on the caller, and the pool stays usable.
  EXPECT_THROW(
      pool.run_blocks(kBlocks,
                      [&](std::size_t b) {
                        if (b == 7) throw std::runtime_error("block 7");
                      }),
      std::runtime_error);
  std::vector<int> hits(kBlocks, 0);
  pool.run_blocks(kBlocks, [&](std::size_t b) { ++hits[b]; });
  for (std::size_t b = 0; b < kBlocks; ++b) EXPECT_EQ(hits[b], 1);
}

}  // namespace
}  // namespace plfoc
