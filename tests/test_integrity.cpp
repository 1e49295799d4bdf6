// End-to-end vector-file integrity (docs/robustness.md, "corruption and
// self-healing"): the checksum primitive, the corruption grammar and
// injector streams, FileBackend's verified reads and offline fsck, the
// stores' recovery-or-typed-failure contracts, the auditor's counter
// identities, and the service-level IntegrityError job boundary.
//
// Complements the differential fuzzer in test_fault_fuzz.cpp: that file
// proves statistical properties over random workloads; this one pins every
// deterministic path — including the unrecoverable ones the fuzzer only
// reaches by chance.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "ooc/audit.hpp"
#include "ooc/file_backend.hpp"
#include "ooc/mmap_store.hpp"
#include "ooc/ooc_store.hpp"
#include "ooc/paged_store.hpp"
#include "ooc/record_checksum.hpp"
#include "service/service.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/phylo2vec.hpp"
#include "util/cpu_features.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

// ---------------------------------------------------------------------------
// The checksum primitive.

TEST(IntegrityUnit, Checksum64IsDeterministicAndSensitive) {
  std::vector<double> data(37);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 0.25 * static_cast<double>(i) - 3.0;
  const std::size_t bytes = data.size() * sizeof(double);

  const std::uint64_t h = checksum64(42, data.data(), bytes);
  EXPECT_EQ(h, checksum64(42, data.data(), bytes));  // deterministic
  // Seeded: the same content under another file's seed must not verify.
  EXPECT_NE(h, checksum64(43, data.data(), bytes));
  // Content-sensitive down to one bit.
  std::vector<double> flipped = data;
  reinterpret_cast<unsigned char*>(flipped.data())[5] ^= 0x10;
  EXPECT_NE(h, checksum64(42, flipped.data(), bytes));
  // Length-salted: a prefix does not collide with the full record, even when
  // the dropped tail is all zeroes (exactly what a torn write produces).
  std::vector<double> padded = data;
  padded.push_back(0.0);
  EXPECT_NE(h, checksum64(42, padded.data(), padded.size() * sizeof(double)));
  // Tail bytes (non-multiple-of-8 spans) are covered too.
  const std::uint64_t tail_a = checksum64(7, data.data(), 13);
  std::vector<double> tail_mut = data;
  reinterpret_cast<unsigned char*>(tail_mut.data())[12] ^= 0x01;
  EXPECT_NE(tail_a, checksum64(7, tail_mut.data(), 13));
}

// The digest hash keys the result cache and forms the wire-visible taxa
// digest: its values are frozen (golden values from format-v1 days).
TEST(IntegrityUnit, DigestHashGoldenValuesAreFrozen) {
  std::vector<unsigned char> bytes(256);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  EXPECT_EQ(checksum64(42, bytes.data(), 256), 0x93af36c0c25e4a3cull);
  EXPECT_EQ(checksum64(7, bytes.data(), 13), 0x27a2211e5c14a031ull);
  EXPECT_EQ(checksum64(0, bytes.data(), 0), 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(phylo2vec_taxa_digest({"a", "b", "c", "d"}),
            0x85fcd5767a7f7f35ull);
  EXPECT_EQ(phylo2vec_taxa_digest(
                {"human", "chimp", "gorilla", "orangutan", "gibbon"}),
            0xe53b1fba3478bd5dull);
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& byte : out) byte = static_cast<unsigned char>(rng.next());
  return out;
}

TEST(IntegrityUnit, RecordChecksumBodiesAgree) {
  const std::vector<unsigned char> data = random_bytes(300'000 + 64, 5);
  Rng rng(11);
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 63, 64, 65, 127, 128,
                                      4096, 26'214, 262'144, 300'000};
  for (int i = 0; i < 200; ++i) lengths.push_back(rng.below(300'001));
  for (const std::size_t bytes : lengths) {
    const std::size_t start = rng.below(64);  // unaligned starts too
    const std::uint64_t seed = rng.next();
    const unsigned char* p = data.data() + start;
    const std::uint64_t scalar =
        detail::record_checksum_scalar(seed, p, bytes);
    EXPECT_EQ(record_checksum(seed, p, bytes), scalar) << bytes;
    if (cpu_has_avx2()) {
      EXPECT_EQ(detail::record_checksum_avx2(seed, p, bytes), scalar)
          << "bytes=" << bytes << " start=" << start;
    }
  }
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
}

TEST(IntegrityUnit, RecordChecksumKnownAnswersPinFormatV2) {
  std::vector<unsigned char> bytes(4096);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  struct Case {
    std::uint64_t seed;
    std::size_t bytes;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {0x0ull, 0, 0xf6a53d67f027c905ull},
      {0x7ull, 13, 0xe3e0b6b3eb899605ull},
      {0x2aull, 64, 0x771fc83337306cfeull},
      {0x2aull, 256, 0xc239385111aac98eull},
      {0x504c4656ull, 1000, 0x8272961324175772ull},
      {0x63ull, 4096, 0xfe7ae9a0352b2f1dull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.bytes);
    EXPECT_EQ(detail::record_checksum_scalar(c.seed, bytes.data(), c.bytes),
              c.expected);
    EXPECT_EQ(record_checksum(c.seed, bytes.data(), c.bytes), c.expected);
  }
}

TEST(IntegrityUnit, RecordChecksumDetectsStripePageAndTornDamage) {
  constexpr std::size_t kRecord = 256 * 1024;  // a Fig. 5 vector
  constexpr std::size_t kStripe = 64;
  constexpr std::size_t kPage = 4096;
  const std::vector<unsigned char> data = random_bytes(kRecord, 23);
  const std::uint64_t seed = 0x504c4656ull;
  const std::uint64_t h = record_checksum(seed, data.data(), kRecord);
  EXPECT_NE(h, record_checksum(seed + 1, data.data(), kRecord));

  // A single bit flip at every offset of a stripe, in the first stripe, one
  // in the middle and the last.
  for (const std::size_t stripe : {std::size_t{0}, kRecord / kStripe / 2,
                                   kRecord / kStripe - 1}) {
    std::vector<unsigned char> flipped = data;
    for (std::size_t bit = 0; bit < kStripe * 8; ++bit) {
      unsigned char& byte = flipped[stripe * kStripe + bit / 8];
      byte ^= static_cast<unsigned char>(1u << (bit % 8));
      EXPECT_NE(h, record_checksum(seed, flipped.data(), kRecord))
          << "stripe " << stripe << " bit " << bit;
      byte ^= static_cast<unsigned char>(1u << (bit % 8));
    }
  }

  // Order matters: two swapped adjacent stripes, two swapped pages.
  std::vector<unsigned char> swapped = data;
  std::swap_ranges(swapped.begin() + 10 * kStripe,
                   swapped.begin() + 11 * kStripe,
                   swapped.begin() + 11 * kStripe);
  EXPECT_NE(h, record_checksum(seed, swapped.data(), kRecord));
  swapped = data;
  std::swap_ranges(swapped.begin() + 3 * kPage, swapped.begin() + 4 * kPage,
                   swapped.begin() + 7 * kPage);
  EXPECT_NE(h, record_checksum(seed, swapped.data(), kRecord));

  // A zeroed page, as a dropped sector delivers it.
  std::vector<unsigned char> zeroed = data;
  std::fill(zeroed.begin() + 5 * kPage, zeroed.begin() + 6 * kPage, 0);
  EXPECT_NE(h, record_checksum(seed, zeroed.data(), kRecord));

  // A torn write: only a prefix reached the medium, the rest reads as
  // zeros — and the prefix alone never matches the full record either.
  for (const std::size_t prefix :
       {std::size_t{1}, kStripe - 1, kPage, kRecord / 2 + 13, kRecord - 8}) {
    std::vector<unsigned char> torn(kRecord, 0);
    std::copy(data.begin(), data.begin() + prefix, torn.begin());
    EXPECT_NE(h, record_checksum(seed, torn.data(), kRecord)) << prefix;
    EXPECT_NE(h, record_checksum(seed, data.data(), prefix)) << prefix;
  }
}

// ---------------------------------------------------------------------------
// Corruption grammar + injector streams.

TEST(IntegrityUnit, FaultSpecCorruptionKeysRoundTrip) {
  const FaultConfig parsed = FaultConfig::parse(
      "seed=7,rate=0,flip=0.02,torn=0.01,zero=0.005,stale=0.25");
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_EQ(parsed.rate, 0.0);
  EXPECT_EQ(parsed.flip_rate, 0.02);
  EXPECT_EQ(parsed.torn_rate, 0.01);
  EXPECT_EQ(parsed.zero_rate, 0.005);
  EXPECT_EQ(parsed.stale_rate, 0.25);
  EXPECT_TRUE(parsed.corruption_enabled());
  EXPECT_TRUE(parsed.enabled());  // corruption alone arms the schedule

  // spec() must round-trip through parse() field for field — the reproduction
  // contract of every fault report.
  const FaultConfig reparsed = FaultConfig::parse(parsed.spec());
  EXPECT_EQ(reparsed.flip_rate, parsed.flip_rate);
  EXPECT_EQ(reparsed.torn_rate, parsed.torn_rate);
  EXPECT_EQ(reparsed.zero_rate, parsed.zero_rate);
  EXPECT_EQ(reparsed.stale_rate, parsed.stale_rate);
  EXPECT_EQ(reparsed.seed, parsed.seed);
}

TEST(IntegrityUnit, UnknownSpecKeyNamesTheGrammar) {
  try {
    FaultConfig::parse("seed=5,bogus=1");
    FAIL() << "parse accepted an unknown key";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    // The one authoritative grammar string is embedded in the error.
    EXPECT_NE(what.find(FaultConfig::grammar()), std::string::npos) << what;
  }
  // The grammar documents every corruption key in its one place.
  const std::string grammar = FaultConfig::grammar();
  for (const char* key : {"flip=", "torn=", "zero=", "stale="})
    EXPECT_NE(grammar.find(key), std::string::npos) << key;
}

TEST(IntegrityUnit, CorruptionStreamIsIndependentOfSyscallStream) {
  FaultConfig config;
  config.seed = 99;
  config.rate = 0.5;
  config.flip_rate = 0.3;
  config.torn_rate = 0.3;
  config.zero_rate = 0.2;
  config.stale_rate = 0.2;

  // Injector A interleaves syscall-fault draws between its corruption draws;
  // injector B draws corruption only. The corruption streams must match:
  // arming syscall faults may not perturb which transfers get corrupted
  // (and vice versa), or the differential fuzzer's oracles fall apart.
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 24; ++i) {
    (void)a.next(i % 2 == 0, 0);  // consume the syscall stream on A only
    const bool is_write = (i % 3) == 0;
    const CorruptionDecision da = a.next_corruption(is_write);
    const CorruptionDecision db = b.next_corruption(is_write);
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind)) << i;
    EXPECT_EQ(da.a, db.a) << i;
    EXPECT_EQ(da.b, db.b) << i;
    // Side discipline: reads draw from {flip, zero}, writes from {torn, stale}.
    if (da.kind != CorruptionKind::kNone) {
      if (is_write)
        EXPECT_TRUE(da.kind == CorruptionKind::kTorn ||
                    da.kind == CorruptionKind::kStale);
      else
        EXPECT_TRUE(da.kind == CorruptionKind::kFlip ||
                    da.kind == CorruptionKind::kZero);
    }
  }
}

// ---------------------------------------------------------------------------
// FileBackend: verified reads, out-of-band damage, injected corruption.

constexpr std::size_t kWidth = 32;  // doubles per vector in backend tests

std::vector<double> pattern_vector(std::uint32_t index) {
  std::vector<double> v(kWidth);
  for (std::size_t i = 0; i < kWidth; ++i)
    v[i] = static_cast<double>(index) + 0.001 * static_cast<double>(i);
  return v;
}

/// Payload byte offset of vector `index` inside a single-stripe integrity
/// file of `count` records (the docs/file-formats.md v1 layout).
std::uint64_t payload_offset(std::size_t count, std::uint32_t index) {
  const std::uint64_t table_end = 4096 + 16ull * count;
  const std::uint64_t payload = (table_end + 4095) / 4096 * 4096;
  return payload + static_cast<std::uint64_t>(index) * kWidth * sizeof(double);
}

TEST(FileBackendIntegrity, VerifiedReadsPassOnCleanRecords) {
  FileBackendOptions options;
  options.base_path = temp_vector_file_path("integrity-clean");
  FileBackend backend(4, kWidth * sizeof(double), options);

  const std::vector<double> v = pattern_vector(1);
  backend.write_vector(1, v.data());

  std::vector<double> out(kWidth);
  const VerifyResult written = backend.read_vector_verified(1, out.data());
  EXPECT_TRUE(written.ok()) << written.status_name();
  EXPECT_EQ(out, v);

  // Generation 0 = never written: preallocated zeros verify trivially.
  const VerifyResult unwritten = backend.read_vector_verified(3, out.data());
  EXPECT_TRUE(unwritten.ok()) << unwritten.status_name();
  for (const double value : out) EXPECT_EQ(value, 0.0);
  EXPECT_EQ(backend.corruptions_injected(), 0u);
}

TEST(FileBackendIntegrity, DetectsOutOfBandPayloadCorruption) {
  FileBackendOptions options;
  options.base_path = temp_vector_file_path("integrity-oob");
  FileBackend backend(4, kWidth * sizeof(double), options);
  const std::vector<double> v = pattern_vector(2);
  backend.write_vector(2, v.data());

  // Damage the record behind the backend's back — "media" corruption, no
  // injector involved.
  const int fd = ::open(options.base_path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const unsigned char garbage = 0xA5;
  ASSERT_EQ(::pwrite(fd, &garbage, 1,
                     static_cast<off_t>(payload_offset(4, 2) + 17)),
            1);
  ::close(fd);

  std::vector<double> out(kWidth);
  const VerifyResult verify = backend.read_vector_verified(2, out.data());
  EXPECT_EQ(static_cast<int>(verify.status),
            static_cast<int>(VerifyStatus::kChecksumMismatch));
  EXPECT_FALSE(verify.injected);  // nothing was injected: blame the media
  // The on-disk table matches the mirror — only the payload is damaged.
  EXPECT_EQ(verify.found_generation, verify.expected_generation);
  EXPECT_GT(verify.expected_generation, 0u);
}

TEST(FileBackendIntegrity, InjectedFlipIsDetectedAsChecksumMismatch) {
  FileBackendOptions options;
  options.base_path = temp_vector_file_path("integrity-flip");
  options.faults.flip_rate = 1.0;  // every delivered read payload is damaged
  FileBackend backend(4, kWidth * sizeof(double), options);
  const std::vector<double> v = pattern_vector(0);
  backend.write_vector(0, v.data());  // write side draws torn/stale: both 0

  std::vector<double> out(kWidth);
  const VerifyResult verify = backend.read_vector_verified(0, out.data());
  EXPECT_EQ(static_cast<int>(verify.status),
            static_cast<int>(VerifyStatus::kChecksumMismatch));
  EXPECT_TRUE(verify.injected);
  EXPECT_GE(backend.corruptions_injected(), 1u);
  // Exactly one bit of the delivered payload differs from what was written.
  int differing_bits = 0;
  const unsigned char* got = reinterpret_cast<const unsigned char*>(out.data());
  const unsigned char* want = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < kWidth * sizeof(double); ++i) {
    unsigned char diff = static_cast<unsigned char>(got[i] ^ want[i]);
    while (diff != 0) {
      differing_bits += diff & 1;
      diff = static_cast<unsigned char>(diff >> 1);
    }
  }
  EXPECT_EQ(differing_bits, 1);
}

TEST(FileBackendIntegrity, InjectedStaleWriteIsDetectedAsStaleGeneration) {
  FileBackendOptions options;
  options.base_path = temp_vector_file_path("integrity-stale");
  options.faults.stale_rate = 1.0;  // every payload write is silently dropped
  FileBackend backend(4, kWidth * sizeof(double), options);
  const std::vector<double> v = pattern_vector(1);
  backend.write_vector(1, v.data());

  std::vector<double> out(kWidth);
  const VerifyResult verify = backend.read_vector_verified(1, out.data());
  EXPECT_EQ(static_cast<int>(verify.status),
            static_cast<int>(VerifyStatus::kStaleGeneration));
  EXPECT_TRUE(verify.injected);
  // The mirror advanced past the on-disk table: a stale-sector replay.
  EXPECT_EQ(verify.expected_generation, 1u);
  EXPECT_EQ(verify.found_generation, 0u);
  // The dropped write left the preallocated zeros in place.
  for (const double value : out) EXPECT_EQ(value, 0.0);
}

// ---------------------------------------------------------------------------
// Offline fsck: the file-format walk and the CLI wrapper around it.

TEST(Fsck, CleanDamagedAndInvalidHeader) {
  const std::string path = temp_vector_file_path("integrity-fsck");
  {
    FileBackendOptions options;
    options.base_path = path;
    options.remove_on_close = false;  // the scan outlives the backend
    FileBackend backend(3, kWidth * sizeof(double), options);
    const std::vector<double> v0 = pattern_vector(0);
    const std::vector<double> v2 = pattern_vector(2);
    backend.write_vector(0, v0.data());
    backend.write_vector(2, v2.data());
  }

  const FsckReport clean = FileBackend::fsck(path);
  EXPECT_TRUE(clean.header_ok) << clean.header_error;
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.block_count, 3u);
  EXPECT_EQ(clean.checked, 2u);
  EXPECT_EQ(clean.skipped_unwritten, 1u);

  FsckConfig cli;
  cli.vector_file = path;
  std::ostringstream clean_out;
  EXPECT_EQ(run_fsck_cli(cli, clean_out), 0);
  EXPECT_NE(clean_out.str().find("clean"), std::string::npos)
      << clean_out.str();

  // Damage one written record's payload.
  int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const unsigned char garbage = 0x5A;
  ASSERT_EQ(::pwrite(fd, &garbage, 1,
                     static_cast<off_t>(payload_offset(3, 0) + 3)),
            1);
  ::close(fd);

  const FsckReport damaged = FileBackend::fsck(path);
  EXPECT_TRUE(damaged.header_ok);
  EXPECT_FALSE(damaged.clean());
  ASSERT_EQ(damaged.issues.size(), 1u);
  EXPECT_EQ(damaged.issues[0].block, 0u);
  std::ostringstream damaged_out;
  EXPECT_EQ(run_fsck_cli(cli, damaged_out), 1);
  EXPECT_NE(damaged_out.str().find("DAMAGED: 1 record"), std::string::npos)
      << damaged_out.str();

  // Clobber the header magic: the scan must refuse the whole file.
  fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const char zeros[8] = {};
  ASSERT_EQ(::pwrite(fd, zeros, sizeof(zeros), 0),
            static_cast<ssize_t>(sizeof(zeros)));
  ::close(fd);
  const FsckReport headerless = FileBackend::fsck(path);
  EXPECT_FALSE(headerless.header_ok);
  EXPECT_FALSE(headerless.clean());
  std::ostringstream invalid_out;
  EXPECT_EQ(run_fsck_cli(cli, invalid_out), 1);
  EXPECT_NE(invalid_out.str().find("header: INVALID"), std::string::npos)
      << invalid_out.str();

  std::remove(path.c_str());
}

TEST(Fsck, FormatV1FileFailsTypedWithUnsupportedVersion) {
  // Format v2 changed the record checksum; a v1 file's table would read as
  // every record damaged, so the scan refuses the file at the header.
  const std::string path = temp_vector_file_path("integrity-fsck-v1");
  {
    FileBackendOptions options;
    options.base_path = path;
    options.remove_on_close = false;
    FileBackend backend(2, kWidth * sizeof(double), options);
    const std::vector<double> v0 = pattern_vector(0);
    backend.write_vector(0, v0.data());
  }
  ASSERT_TRUE(FileBackend::fsck(path).clean());

  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const std::uint32_t v1 = 1;
  ASSERT_EQ(::pwrite(fd, &v1, sizeof v1, 4),  // header version field
            static_cast<ssize_t>(sizeof v1));
  ::close(fd);

  const FsckReport report = FileBackend::fsck(path);
  EXPECT_FALSE(report.header_ok);
  EXPECT_EQ(report.header_error, "unsupported format version 1");
  FsckConfig cli;
  cli.vector_file = path;
  std::ostringstream out;
  EXPECT_EQ(run_fsck_cli(cli, out), 1);
  EXPECT_NE(out.str().find("unsupported format version 1"), std::string::npos)
      << out.str();
  std::remove(path.c_str());
}

TEST(Fsck, CliParsing) {
  const char* positional[] = {"vectors.bin", "--verbose"};
  const FsckConfig parsed = parse_fsck_cli(2, positional);
  EXPECT_EQ(parsed.vector_file, "vectors.bin");
  EXPECT_TRUE(parsed.verbose);

  const char* flagged[] = {"--file", "other.bin"};
  EXPECT_EQ(parse_fsck_cli(2, flagged).vector_file, "other.bin");

  EXPECT_THROW(parse_fsck_cli(0, nullptr), Error);
}

// ---------------------------------------------------------------------------
// OutOfCoreStore: recovery-or-typed-failure at the swap-in boundary.

OocStoreOptions small_ooc(const char* tag, double flip_rate) {
  OocStoreOptions options;
  options.num_slots = 3;
  options.policy = ReplacementPolicy::kLru;
  options.file.base_path = temp_vector_file_path(tag);
  options.file.faults.flip_rate = flip_rate;
  return options;
}

void fill_and_cycle(OutOfCoreStore& store, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    VectorLease lease = store.acquire(i, AccessMode::kWrite);
    const std::vector<double> v = pattern_vector(i);
    std::memcpy(lease.data(), v.data(), kWidth * sizeof(double));
  }
}

TEST(OocRecovery, NoHookThrowsTypedAndUndoesTheInstall) {
  OutOfCoreStore store(6, kWidth, small_ooc("ooc-nohook", 1.0));
  // Cycle six vectors through three slots: vector 0 is certainly evicted
  // (and written back — write-side corruption rates are 0, so the record on
  // disk is good; only delivered *reads* get flipped).
  fill_and_cycle(store, 6);

  try {
    VectorLease lease = store.acquire(0, AccessMode::kRead);
    FAIL() << "verified swap-in of a flipped record returned normally";
  } catch (const IntegrityError& error) {
    EXPECT_EQ(error.op(), "out-of-core swap-in");
    EXPECT_EQ(error.index(), 0u);
    EXPECT_TRUE(error.injected());
    EXPECT_NE(std::string(error.what()).find("no recovery hook"),
              std::string::npos)
        << error.what();
  }

  const OocStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.integrity_failures, 1u);
  EXPECT_EQ(stats.integrity_unrecovered, 1u);
  EXPECT_EQ(stats.integrity_recoveries, 0u);
  EXPECT_GE(stats.corruptions_injected, 1u);

  // The failed install was undone: the store remains fully usable — a
  // write-mode access skips the read (nothing to verify) and succeeds.
  EXPECT_FALSE(store.is_resident(0));
  VectorLease rewrite = store.acquire(0, AccessMode::kWrite);
  const std::vector<double> v = pattern_vector(0);
  std::memcpy(rewrite.data(), v.data(), kWidth * sizeof(double));
}

TEST(OocRecovery, HookHealsTheRecordInPlace) {
  OutOfCoreStore store(6, kWidth, small_ooc("ooc-heal", 1.0));
  std::uint32_t hook_calls = 0;
  store.set_recovery_hook([&](std::uint32_t index, double* dst) {
    ++hook_calls;
    const std::vector<double> healed = pattern_vector(index);
    std::memcpy(dst, healed.data(), kWidth * sizeof(double));
    return std::uint64_t{1};
  });
  fill_and_cycle(store, 6);

  {
    VectorLease lease = store.acquire(0, AccessMode::kRead);
    // The lease surfaces the *healed* content, not the flipped record.
    const std::vector<double> expected = pattern_vector(0);
    EXPECT_EQ(std::memcmp(lease.data(), expected.data(),
                          kWidth * sizeof(double)),
              0);
  }
  EXPECT_EQ(hook_calls, 1u);

  const OocStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.integrity_failures, 1u);
  EXPECT_EQ(stats.integrity_recoveries, 1u);
  EXPECT_EQ(stats.integrity_unrecovered, 0u);
  EXPECT_EQ(stats.recovery_recomputes, 1u);
}

TEST(OocRecovery, HookFailureIsTypedNotSilent) {
  OutOfCoreStore store(6, kWidth, small_ooc("ooc-hookfail", 1.0));
  store.set_recovery_hook(
      [](std::uint32_t, double*) { return std::uint64_t{0}; });
  fill_and_cycle(store, 6);
  EXPECT_THROW(
      { VectorLease lease = store.acquire(0, AccessMode::kRead); },
      IntegrityError);
  const OocStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.integrity_failures, 1u);
  EXPECT_EQ(stats.integrity_unrecovered, 1u);
  EXPECT_EQ(stats.recovery_recomputes, 0u);
}

// ---------------------------------------------------------------------------
// Session-level self-healing: the Felsenstein recomputation hook end to end.

TEST(OocRecovery, SessionSelfHealsBitIdentical) {
  DatasetPlan dataset;
  dataset.num_taxa = 12;
  dataset.num_sites = 240;
  dataset.seed = 20260805;
  const int extra_traversals = 2;

  auto run_series = [&](SessionOptions options) {
    PlannedDataset data = make_dna_dataset(dataset);
    options.io_retry.backoff_initial_us = 0;
    Session session(std::move(data.alignment), std::move(data.tree),
                    benchmark_gtr(), std::move(options));
    std::vector<double> series;
    series.push_back(session.engine().log_likelihood());
    for (int t = 0; t < extra_traversals; ++t)
      series.push_back(session.engine().full_traversal_log_likelihood());
    return series;
  };

  SessionOptions reference_options;
  reference_options.backend = Backend::kInRam;
  const std::vector<double> reference = run_series(reference_options);

  // Deterministic per seed, scanned so the suite does not depend on one
  // seed's draw sequence: every seed must either heal back to bit-identity
  // or fail typed, and the scan in aggregate must exercise real recoveries.
  std::uint64_t recoveries = 0;
  std::uint64_t recomputes = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SessionOptions options;
    options.backend = Backend::kOutOfCore;
    options.ram_fraction = 0.5;
    options.policy = ReplacementPolicy::kLru;
    options.seed = dataset.seed;
    options.faults.seed = seed;
    options.faults.flip_rate = 0.1;
    options.faults.zero_rate = 0.02;
    options.io_retry.backoff_initial_us = 0;

    PlannedDataset data = make_dna_dataset(dataset);
    options.categories = 4;
    Session session(std::move(data.alignment), std::move(data.tree),
                    benchmark_gtr(), options);
    std::vector<double> series;
    try {
      series.push_back(session.engine().log_likelihood());
      for (int t = 0; t < extra_traversals; ++t)
        series.push_back(session.engine().full_traversal_log_likelihood());
    } catch (const IntegrityError&) {
      continue;  // unrecoverable under this seed: the typed outcome is legal
    }
    ASSERT_EQ(series.size(), reference.size());
    for (std::size_t i = 0; i < series.size(); ++i)
      EXPECT_EQ(series[i], reference[i])
          << "corruption seed " << seed << " diverged at evaluation " << i;
    const OocStats stats = session.store().stats_snapshot();
    EXPECT_EQ(stats.integrity_unrecovered, 0u) << "seed " << seed;
    recoveries += stats.integrity_recoveries;
    recomputes += stats.recovery_recomputes;
  }
  EXPECT_GT(recoveries, 0u)
      << "no corruption seed in 1..30 ever exercised a recovery";
  EXPECT_GE(recomputes, recoveries);
}

// ---------------------------------------------------------------------------
// MmapStore: residency-gated verification on the re-fault path.

TEST(MmapIntegrity, RecoversCorruptedSpanThroughHook) {
  constexpr std::size_t kMmapWidth = 512;  // 4096 B: one aligned page
  MmapStoreOptions options;
  options.file_path = temp_vector_file_path("mmap-heal");
  MmapStore store(4, kMmapWidth, options);
  std::uint32_t hook_calls = 0;
  store.set_recovery_hook([&](std::uint32_t, double* dst) {
    ++hook_calls;
    for (std::size_t i = 0; i < kMmapWidth; ++i)
      dst[i] = 7.0 + static_cast<double>(i);
    return std::uint64_t{1};
  });

  {
    VectorLease lease = store.acquire(0, AccessMode::kWrite);
    for (std::size_t i = 0; i < kMmapWidth; ++i)
      lease.data()[i] = static_cast<double>(i);
  }  // release records the checksum and bumps the generation

  // Corrupt the record on the device, then push the span out of the page
  // cache so the next read acquire re-faults and re-verifies.
  const int fd = ::open(options.file_path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const double wrong = -1.0;
  ASSERT_EQ(::pwrite(fd, &wrong, sizeof(wrong), 0),
            static_cast<ssize_t>(sizeof(wrong)));
  ::fsync(fd);  // a dirty page-cache page would survive DONTNEED
  ::close(fd);
  for (int i = 0; i < 3 && store.span_resident(0); ++i) store.drop_residency(0);
  if (store.span_resident(0))
    GTEST_SKIP() << "kernel kept the span resident; eviction is best-effort";

  {
    VectorLease lease = store.acquire(0, AccessMode::kRead);
    EXPECT_EQ(lease.data()[0], 7.0);  // the healed content, not -1.0
    EXPECT_EQ(lease.data()[1], 8.0);
  }
  EXPECT_EQ(hook_calls, 1u);
  const OocStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.integrity_failures, 1u);
  EXPECT_EQ(stats.integrity_recoveries, 1u);
  EXPECT_EQ(stats.integrity_unrecovered, 0u);
}

TEST(MmapIntegrity, NoHookFailsTyped) {
  constexpr std::size_t kMmapWidth = 512;
  MmapStoreOptions options;
  options.file_path = temp_vector_file_path("mmap-typed");
  MmapStore store(4, kMmapWidth, options);
  {
    VectorLease lease = store.acquire(1, AccessMode::kWrite);
    for (std::size_t i = 0; i < kMmapWidth; ++i)
      lease.data()[i] = static_cast<double>(i);
  }
  const int fd = ::open(options.file_path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const double wrong = -2.0;
  ASSERT_EQ(::pwrite(fd, &wrong, sizeof(wrong),
                     static_cast<off_t>(kMmapWidth * sizeof(double))),
            static_cast<ssize_t>(sizeof(wrong)));
  ::fsync(fd);  // a dirty page-cache page would survive DONTNEED
  ::close(fd);
  for (int i = 0; i < 3 && store.span_resident(1); ++i) store.drop_residency(1);
  if (store.span_resident(1))
    GTEST_SKIP() << "kernel kept the span resident; eviction is best-effort";

  try {
    VectorLease lease = store.acquire(1, AccessMode::kRead);
    FAIL() << "re-faulted corrupt span returned normally";
  } catch (const IntegrityError& error) {
    EXPECT_EQ(error.op(), "mmap fault-in");
    EXPECT_EQ(error.index(), 1u);
    EXPECT_FALSE(error.injected());  // media damage, not an injector decision
  }
  const OocStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.integrity_failures, 1u);
  EXPECT_EQ(stats.integrity_unrecovered, 1u);
  // Other vectors remain serviceable after the typed failure.
  VectorLease other = store.acquire(2, AccessMode::kWrite);
  other.data()[0] = 1.0;
}

// ---------------------------------------------------------------------------
// PagedStore: the generic-paging baseline detects but cannot self-heal.

TEST(PagedIntegrity, CorruptionFailsTypedDetectionOnly) {
  PagedStoreOptions options;
  // 12 frames: enough for the pinned 3-vector working set (the store's
  // floor), well short of the 16 pages of vector data — swapping guaranteed.
  options.budget_bytes = 12 * 4096;
  options.file.base_path = temp_vector_file_path("paged-typed");
  options.file.faults.flip_rate = 1.0;
  PagedStore store(8, 1024, options);  // 8 KiB per vector = 2 pages
  // A hook is registered (as the Session would) — the paged baseline must
  // fail typed WITHOUT consulting it: generic paging has no vector-granular
  // recomputation seam.
  std::uint32_t hook_calls = 0;
  store.set_recovery_hook([&](std::uint32_t, double*) {
    ++hook_calls;
    return std::uint64_t{1};
  });

  bool threw = false;
  try {
    for (std::uint32_t i = 0; i < 8; ++i) {
      VectorLease lease = store.acquire(i, AccessMode::kWrite);
      for (std::size_t k = 0; k < 1024; ++k)
        lease.data()[k] = static_cast<double>(i);
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
      VectorLease lease = store.acquire(i, AccessMode::kRead);
      (void)lease;
    }
  } catch (const IntegrityError& error) {
    threw = true;
    EXPECT_EQ(error.op(), "paged swap-in");
    EXPECT_TRUE(error.injected());
  }
  EXPECT_TRUE(threw) << "flip=1.0 over a 4-frame cache never detected damage";
  EXPECT_EQ(hook_calls, 0u);
  const OocStats stats = store.stats_snapshot();
  EXPECT_GE(stats.integrity_failures, 1u);
  EXPECT_EQ(stats.integrity_failures, stats.integrity_unrecovered);
  EXPECT_EQ(stats.integrity_recoveries, 0u);
  EXPECT_GE(stats.corruptions_injected, 1u);
}

// ---------------------------------------------------------------------------
// Stats plumbing and the auditor's counter identities.

TEST(StatsIntegrity, MergeAndSummaryCoverIntegrityCounters) {
  OocStats a;
  a.integrity_failures = 2;
  a.integrity_recoveries = 1;
  a.integrity_unrecovered = 1;
  a.recovery_recomputes = 3;
  a.corruptions_injected = 5;
  OocStats b;
  b.integrity_failures = 1;
  b.integrity_recoveries = 1;
  b.recovery_recomputes = 1;
  b.corruptions_injected = 2;
  a += b;
  EXPECT_EQ(a.integrity_failures, 3u);
  EXPECT_EQ(a.integrity_recoveries, 2u);
  EXPECT_EQ(a.integrity_unrecovered, 1u);
  EXPECT_EQ(a.recovery_recomputes, 4u);
  EXPECT_EQ(a.corruptions_injected, 7u);

  const std::string summary = a.summary();
  for (const char* token :
       {"corrupt=7", "detected=3", "recovered=2", "unrecovered=1",
        "recomputed=4"})
    EXPECT_NE(summary.find(token), std::string::npos)
        << token << " missing from: " << summary;
  // Clean runs stay clean: no integrity noise in the default summary.
  const OocStats quiet;
  EXPECT_EQ(quiet.summary().find("corrupt="), std::string::npos);
}

TEST(AuditIntegrity, CheckStatsEnforcesTheRecoveryIdentity) {
  StoreAuditor auditor(8, 3);
  OocStats stats;
  stats.accesses = 4;
  stats.hits = 2;
  stats.misses = 2;
  stats.cold_misses = 2;
  stats.integrity_failures = 2;
  stats.integrity_recoveries = 1;
  stats.integrity_unrecovered = 1;
  stats.recovery_recomputes = 2;
  stats.corruptions_injected = 3;
  EXPECT_EQ(auditor.check_stats(stats), std::nullopt);

  OocStats broken = stats;
  broken.integrity_unrecovered = 0;  // recoveries + unrecovered != failures
  const auto identity = StoreAuditor(8, 3).check_stats(broken);
  ASSERT_TRUE(identity.has_value());
  EXPECT_NE(identity->find("integrity_failures"), std::string::npos)
      << *identity;

  OocStats starved = stats;
  starved.recovery_recomputes = 0;  // below integrity_recoveries
  const auto recompute = StoreAuditor(8, 3).check_stats(starved);
  ASSERT_TRUE(recompute.has_value());
  EXPECT_NE(recompute->find("recovery_recomputes"), std::string::npos)
      << *recompute;

  // Monotonicity: a later snapshot may never run an integrity counter
  // backwards (the same auditor instance holds the baseline).
  OocStats regressed = stats;
  regressed.corruptions_injected = 1;
  const auto backwards = auditor.check_stats(regressed);
  ASSERT_TRUE(backwards.has_value());
  EXPECT_NE(backwards->find("corruptions_injected"), std::string::npos)
      << *backwards;
}

TEST(AuditIntegrity, RecoveryOfUnwrittenVectorIsAViolation) {
  StoreAuditor auditor(8, 3);
  EXPECT_EQ(auditor.record_file_write(2), std::nullopt);
  // A vector that has been on disk can legitimately fail and recover...
  EXPECT_EQ(auditor.record_recovery(2, true), std::nullopt);
  // ...but an integrity failure on a vector never written to the file means
  // the store verified (or corrupted) the wrong record.
  const auto violation = auditor.record_recovery(5, false);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("never written"), std::string::npos) << *violation;
}

// ---------------------------------------------------------------------------
// Service boundary: an unrecoverable job fails typed; the worker survives.

TEST(ServiceIntegrity, UnrecoverableJobFailsTypedAndIsReadmitted) {
  DatasetPlan dataset;
  dataset.num_taxa = 10;
  dataset.num_sites = 400;
  dataset.seed = 777;

  ServiceOptions service_options;
  service_options.workers = 1;
  service_options.readmit_io_failures = true;  // covers integrity failures too
  Service service(service_options);

  // Job 1: the paged baseline under flip=1.0 — detection without recovery,
  // deterministically unrecoverable on the first swapped-in read.
  PlannedDataset doomed = make_dna_dataset(dataset);
  JobSpec doomed_spec{"doomed", std::move(doomed.alignment),
                      std::move(doomed.tree), benchmark_gtr(), {}, {}};
  doomed_spec.session.backend = Backend::kPaged;
  // Uncompressed 400-site DNA vectors are 13 pages each (×8 inner nodes);
  // 48 frames clear the store's 3-vector floor yet force swapping.
  doomed_spec.session.compress_patterns = false;
  doomed_spec.session.ram_budget_bytes = 48 * 4096;
  doomed_spec.session.faults.flip_rate = 1.0;
  doomed_spec.session.io_retry.backoff_initial_us = 0;
  const JobId doomed_id = service.submit(std::move(doomed_spec));

  // Job 2: a healthy sibling on the same worker.
  PlannedDataset healthy = make_dna_dataset(dataset);
  JobSpec healthy_spec{"healthy", std::move(healthy.alignment),
                       std::move(healthy.tree), benchmark_gtr(), {}, {}};
  const JobId healthy_id = service.submit(std::move(healthy_spec));

  const JobResult failed = service.wait(doomed_id);
  EXPECT_EQ(static_cast<int>(failed.status),
            static_cast<int>(JobStatus::kFailed));
  EXPECT_TRUE(failed.integrity_failure);
  EXPECT_FALSE(failed.io_failure);  // disjoint typed failure classes
  EXPECT_EQ(failed.attempts, 2u);  // the re-admission ran (and failed again)
  EXPECT_NE(failed.fault_report.find("paged swap-in"), std::string::npos)
      << failed.fault_report;
  EXPECT_NE(failed.fault_report.find("injected"), std::string::npos)
      << failed.fault_report;
  EXPECT_NE(failed.fault_report.find("attempt 2"), std::string::npos)
      << failed.fault_report;

  const JobResult done = service.wait(healthy_id);
  EXPECT_EQ(static_cast<int>(done.status),
            static_cast<int>(JobStatus::kDone));
  EXPECT_TRUE(std::isfinite(done.log_likelihood));
}

}  // namespace
}  // namespace plfoc
