// Unit tests for the fault-injection and retry layer (ooc/faults.hpp,
// FileBackend::transfer_all): spec parsing round-trips, schedule determinism
// and replayability, data integrity under injected faults with retries,
// typed IoError on retry exhaustion, and unconditional EINTR / short-transfer
// handling with retries disabled. The differential equivalence fuzzer lives
// in test_fault_fuzz.cpp.
#include "ooc/faults.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <numeric>
#include <vector>

#include "ooc/ooc_store.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

TEST(FaultConfig, DefaultIsDisabled) {
  FaultConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_FALSE(FaultConfig::parse("").enabled());
}

TEST(FaultConfig, ParsesFullSpec) {
  const FaultConfig config = FaultConfig::parse(
      "seed=7,rate=0.25,burst=3,kinds=eio|short,latency-ns=1000,nonce=2");
  EXPECT_TRUE(config.enabled());
  EXPECT_EQ(config.seed, 7u);
  EXPECT_DOUBLE_EQ(config.rate, 0.25);
  EXPECT_EQ(config.burst, 3u);
  EXPECT_EQ(config.kinds, kFaultEio | kFaultShort);
  EXPECT_EQ(config.latency_ns, 1000u);
  EXPECT_EQ(config.nonce, 2u);
}

TEST(FaultConfig, SpecRoundTrips) {
  const char* specs[] = {
      "seed=7,rate=0.25",
      "seed=1,rate=1,burst=64,kinds=eio",
      "seed=99,rate=0.05,burst=2,kinds=short|eintr,latency-ns=500,nonce=3",
  };
  for (const char* spec : specs) {
    const FaultConfig first = FaultConfig::parse(spec);
    const FaultConfig second = FaultConfig::parse(first.spec());
    EXPECT_EQ(second.seed, first.seed) << spec;
    EXPECT_DOUBLE_EQ(second.rate, first.rate) << spec;
    EXPECT_EQ(second.burst, first.burst) << spec;
    EXPECT_EQ(second.kinds, first.kinds) << spec;
    EXPECT_EQ(second.latency_ns, first.latency_ns) << spec;
    EXPECT_EQ(second.nonce, first.nonce) << spec;
  }
}

TEST(FaultConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultConfig::parse("seed=7"), Error);          // no rate
  EXPECT_THROW(FaultConfig::parse("rate=2"), Error);          // out of range
  EXPECT_THROW(FaultConfig::parse("rate=0.1,zap=1"), Error);  // unknown key
  EXPECT_THROW(FaultConfig::parse("rate=0.1,kinds=bogus"), Error);
  EXPECT_THROW(FaultConfig::parse("garbage"), Error);
  EXPECT_THROW(FaultConfig::parse("rate=x"), Error);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultConfig config = FaultConfig::parse("seed=11,rate=0.3,burst=1000");
  FaultInjector a(config);
  FaultInjector b(config);
  for (int k = 0; k < 500; ++k) {
    const FaultDecision da = a.next(k % 2 == 0, 0);
    const FaultDecision db = b.next(k % 2 == 0, 0);
    EXPECT_EQ(da.kind, db.kind) << "decision " << k;
    EXPECT_DOUBLE_EQ(da.fraction, db.fraction) << "decision " << k;
  }
  EXPECT_EQ(a.decisions(), 500u);
}

TEST(FaultInjector, DifferentSeedOrNonceChangesSchedule) {
  auto fire_pattern = [](const char* spec) {
    FaultInjector injector(FaultConfig::parse(spec));
    std::uint64_t pattern = 0;
    for (int k = 0; k < 64; ++k)
      if (injector.next(false, 0).kind != FaultKind::kNone)
        pattern |= std::uint64_t{1} << k;
    return pattern;
  };
  const std::uint64_t base = fire_pattern("seed=11,rate=0.3,burst=1000");
  EXPECT_NE(base, fire_pattern("seed=12,rate=0.3,burst=1000"));
  EXPECT_NE(base, fire_pattern("seed=11,rate=0.3,burst=1000,nonce=1"));
}

TEST(FaultInjector, BurstCapSuppressesButAdvances) {
  FaultConfig config = FaultConfig::parse("seed=3,rate=1,burst=2");
  FaultInjector injector(config);
  EXPECT_NE(injector.next(false, 0).kind, FaultKind::kNone);
  EXPECT_NE(injector.next(false, 1).kind, FaultKind::kNone);
  // At the cap the decision is suppressed, but the stream still advances.
  EXPECT_EQ(injector.next(false, 2).kind, FaultKind::kNone);
  EXPECT_EQ(injector.decisions(), 3u);
}

TEST(FaultInjector, RespectsKindMask) {
  FaultInjector injector(FaultConfig::parse("seed=5,rate=1,kinds=eio"));
  for (int k = 0; k < 32; ++k)
    EXPECT_EQ(injector.next(false, 0).kind, FaultKind::kEio);
}

TEST(FaultInjector, EnospcOnlyOnWrites) {
  FaultInjector injector(FaultConfig::parse("seed=5,rate=1,kinds=enospc"));
  // Reads have no enabled kind left, so nothing fires.
  EXPECT_EQ(injector.next(false, 0).kind, FaultKind::kNone);
  EXPECT_EQ(injector.next(true, 0).kind, FaultKind::kEnospc);
}

FileBackendOptions faulty_options(const std::string& tag, const char* spec,
                                  unsigned max_retries) {
  FileBackendOptions options;
  options.base_path = temp_vector_file_path(tag);
  options.faults = FaultConfig::parse(spec);
  options.retry.max_retries = max_retries;
  options.retry.backoff_initial_us = 0;  // keep the tests fast
  return options;
}

TEST(FaultyFileBackend, DataSurvivesInjectedFaultsWithRetries) {
  constexpr std::size_t kVectors = 24;
  constexpr std::size_t kDoubles = 96;
  FileBackend backend(kVectors, kDoubles * sizeof(double),
                      faulty_options("fault_rt", "seed=21,rate=0.1", 4));
  std::vector<double> scratch(kDoubles);
  for (std::size_t v = 0; v < kVectors; ++v) {
    std::iota(scratch.begin(), scratch.end(), static_cast<double>(v) * 1000.0);
    backend.write_vector(static_cast<std::uint32_t>(v), scratch.data());
  }
  std::vector<double> readback(kDoubles);
  for (std::size_t v = 0; v < kVectors; ++v) {
    std::iota(scratch.begin(), scratch.end(), static_cast<double>(v) * 1000.0);
    backend.read_vector(static_cast<std::uint32_t>(v), readback.data());
    EXPECT_EQ(readback, scratch) << "vector " << v;
  }
  // rate=0.1 over 48 transfers fires with overwhelming probability for any
  // seed that does fire; this particular seed is known to.
  EXPECT_GT(backend.faults_injected(), 0u);
  EXPECT_GT(backend.io_retries(), 0u);
  EXPECT_EQ(backend.io_exhausted(), 0u);
}

TEST(FaultyFileBackend, ExhaustedRetriesThrowTypedIoError) {
  // rate=1 with a burst far above the retry budget: the very first transfer
  // must exhaust its 1 retry and throw.
  FileBackend backend(4, 32 * sizeof(double),
                      faulty_options("fault_ex", "seed=9,rate=1,kinds=eio,burst=1000", 1));
  std::vector<double> data(32, 1.5);
  try {
    backend.write_vector(0, data.data());
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_EQ(error.op(), "pwrite");
    EXPECT_EQ(error.errno_value(), EIO);
    EXPECT_EQ(error.attempts(), 2u);  // initial attempt + 1 retry
    EXPECT_TRUE(error.injected());
    EXPECT_NE(std::string(error.what()).find("[injected]"), std::string::npos);
  }
  EXPECT_EQ(backend.io_exhausted(), 1u);
  EXPECT_GE(backend.faults_injected(), 2u);
}

TEST(FaultyFileBackend, ZeroRetriesFailsOnFirstTransientError) {
  FileBackend backend(4, 32 * sizeof(double),
                      faulty_options("fault_z", "seed=9,rate=1,kinds=eio,burst=1000", 0));
  std::vector<double> data(32, 2.5);
  try {
    backend.write_vector(0, data.data());
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_EQ(error.attempts(), 1u);
  }
  EXPECT_EQ(backend.io_retries(), 0u);
  EXPECT_EQ(backend.io_exhausted(), 1u);
}

TEST(FaultyFileBackend, EintrIsRetriedEvenWithRetriesDisabled) {
  // EINTR handling is mandatory POSIX behaviour, not part of the retry
  // budget: an EINTR-only schedule completes even with max_retries = 0.
  FileBackend backend(
      4, 64 * sizeof(double),
      faulty_options("fault_eintr", "seed=13,rate=0.5,kinds=eintr,burst=3", 0));
  std::vector<double> out(64);
  std::iota(out.begin(), out.end(), 0.0);
  for (std::uint32_t v = 0; v < 4; ++v) backend.write_vector(v, out.data());
  std::vector<double> in(64);
  for (std::uint32_t v = 0; v < 4; ++v) {
    backend.read_vector(v, in.data());
    EXPECT_EQ(in, out);
  }
  EXPECT_GT(backend.faults_injected(), 0u);
  EXPECT_GT(backend.io_retries(), 0u);
  EXPECT_EQ(backend.io_exhausted(), 0u);
}

TEST(FaultyFileBackend, ShortTransfersResumeWithRetriesDisabled) {
  // Same for short transfers: resumption is unconditional.
  FileBackend backend(
      4, 128 * sizeof(double),
      faulty_options("fault_short", "seed=17,rate=0.5,kinds=short,burst=3", 0));
  std::vector<double> out(128);
  std::iota(out.begin(), out.end(), 5.0);
  for (std::uint32_t v = 0; v < 4; ++v) backend.write_vector(v, out.data());
  std::vector<double> in(128);
  for (std::uint32_t v = 0; v < 4; ++v) {
    backend.read_vector(v, in.data());
    EXPECT_EQ(in, out);
  }
  EXPECT_GT(backend.faults_injected(), 0u);
  EXPECT_EQ(backend.io_exhausted(), 0u);
}

TEST(FaultyFileBackend, ResetFaultCountersClears) {
  FileBackend backend(4, 32 * sizeof(double),
                      faulty_options("fault_rst", "seed=21,rate=0.5", 8));
  std::vector<double> data(32, 3.0);
  for (std::uint32_t v = 0; v < 4; ++v) backend.write_vector(v, data.data());
  ASSERT_GT(backend.faults_injected(), 0u);
  backend.reset_fault_counters();
  EXPECT_EQ(backend.faults_injected(), 0u);
  EXPECT_EQ(backend.io_retries(), 0u);
  EXPECT_EQ(backend.io_exhausted(), 0u);
}

TEST(FaultyFileBackend, CountersOffWhenInjectionDisabled) {
  FileBackendOptions options;
  options.base_path = temp_vector_file_path("fault_off");
  FileBackend backend(4, 32 * sizeof(double), options);
  EXPECT_EQ(backend.injector(), nullptr);
  std::vector<double> data(32, 4.0);
  backend.write_vector(0, data.data());
  backend.read_vector(0, data.data());
  EXPECT_EQ(backend.faults_injected(), 0u);
  EXPECT_EQ(backend.io_exhausted(), 0u);
}

OocStoreOptions faulty_store_options(const std::string& tag, const char* spec,
                                     unsigned max_retries) {
  OocStoreOptions options;
  options.num_slots = 3;
  options.file.base_path = temp_vector_file_path(tag);
  options.file.faults = FaultConfig::parse(spec);
  options.file.retry.max_retries = max_retries;
  options.file.retry.backoff_initial_us = 0;
  return options;
}

TEST(FaultyOocStore, StatsMirrorBackendCounters) {
  OutOfCoreStore store(10, 64,
                       faulty_store_options("fault_stats", "seed=33,rate=0.2", 6));
  for (std::uint32_t pass = 0; pass < 3; ++pass)
    for (std::uint32_t v = 0; v < 10; ++v)
      (void)store.acquire(v, pass == 0 ? AccessMode::kWrite : AccessMode::kRead);
  const OocStats snapshot = store.stats_snapshot();
  EXPECT_EQ(snapshot.faults_injected, store.file().faults_injected());
  EXPECT_EQ(snapshot.io_retries, store.file().io_retries());
  EXPECT_EQ(snapshot.io_exhausted, 0u);
  EXPECT_GT(snapshot.faults_injected, 0u);
  // The summary line surfaces the robustness counters once they are nonzero.
  EXPECT_NE(snapshot.summary().find("faults="), std::string::npos);

  store.reset_stats();
  const OocStats cleared = store.stats_snapshot();
  EXPECT_EQ(cleared.faults_injected, 0u);
  EXPECT_EQ(cleared.io_retries, 0u);
  EXPECT_EQ(cleared.accesses, 0u);
  EXPECT_EQ(cleared.summary().find("faults="), std::string::npos);
}

TEST(FaultyOocStore, DemandAcquireSurfacesIoError) {
  // Coin-flip EIO schedule with retries disabled: demand accesses are
  // allowed to throw the typed IoError (the engine/service catch it), and
  // the store stays usable after each one.
  OutOfCoreStore store(
      8, 32,
      faulty_store_options("fault_pf", "seed=5,rate=0.5,kinds=eio,burst=1000",
                           0));
  std::size_t demand_failures = 0;
  for (std::uint32_t pass = 0; pass < 4; ++pass) {
    for (std::uint32_t v = 0; v < 8; ++v) {
      try {
        (void)store.acquire(v, pass == 0 ? AccessMode::kWrite
                                         : AccessMode::kRead);
      } catch (const IoError&) {
        ++demand_failures;  // typed, catchable — the store stays usable
      }
    }
  }
  EXPECT_GT(demand_failures, 0u);
  EXPECT_GT(store.stats_snapshot().io_exhausted, 0u);

  // The store remained consistent throughout: a fault-free pass still works.
  for (std::uint32_t v = 0; v < 8; ++v) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      try {
        (void)store.acquire(v, AccessMode::kWrite);
        break;
      } catch (const IoError&) {
        // rate=0.5: retry the demand access until the coin lands heads.
      }
    }
  }
}

}  // namespace
}  // namespace plfoc
