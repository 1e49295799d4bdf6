// Deterministic multi-thread stress tests for the out-of-core layer. These
// are TSan targets of the sanitizer CI matrix: they hammer the slot-table
// mutex from many threads with engine-style acquire/release traffic, and the
// KernelPool's block dispatch. They also run in plain builds as functional
// stress tests, and in PLFOC_AUDIT builds every mutation re-validates the
// slot-table invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "likelihood/kernel_pool.hpp"
#include "ooc/ooc_store.hpp"

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
