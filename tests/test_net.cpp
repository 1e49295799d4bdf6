// The serving tier's wire protocol and socket front-end (src/net/):
// encode/decode round trips, framing fuzz (truncated / oversized / garbage
// bytes must yield typed ProtocolError, never crashes), and loopback
// end-to-end runs where jobs submitted through BlockingClient /
// run_client_cli produce log likelihoods bit-identical to the in-process
// service on the same jobfile. Built as its own binary with the `net`
// ctest label so CI runs it under every sanitizer flavour.
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/driver.hpp"
#include "msa/fasta.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/jobfile.hpp"
#include "service/service.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/newick.hpp"
#include "tree/phylo2vec.hpp"
#include "util/checks.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

// ------------------------------------------------------ protocol encoding

SubmitRequest sample_submit() {
  SubmitRequest msg;
  msg.request_id = 41;
  msg.tenant = "acme";
  msg.name = "job-a";
  msg.msa_path = "/data/msa.fasta";
  msg.format = "phylip";
  msg.data_type = "protein";
  msg.model = "hky";
  msg.kappa = 3.5;
  msg.categories = 8;
  msg.alpha = 0.7;
  msg.backend = "ooc";
  msg.ram_fraction = 0.25;
  msg.budget_bytes = 1 << 20;
  msg.strategy = "topological";
  msg.seed = 1234;
  msg.threads = 3;
  msg.tree_kind = WireTreeKind::kPhylo2Vec;
  msg.tree_v = {0, 0, 1, 4};
  msg.tree_lengths = {0.1, 0.2, 0.3, 0.4, 0.5};
  msg.taxa_digest = 0xdeadbeefcafef00dull;
  return msg;
}

/// Decode one complete frame from raw bytes (helper for round trips).
Frame frame_of(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.append(bytes.data(), bytes.size());
  std::optional<Frame> frame = decoder.next();
  PLFOC_REQUIRE(frame.has_value(), "expected a complete frame");
  PLFOC_REQUIRE(decoder.buffered_bytes() == 0, "frame left trailing bytes");
  return *frame;
}

TEST(Protocol, SubmitRequestRoundTripsExactly) {
  const SubmitRequest msg = sample_submit();
  const SubmitRequest back = decode_submit_request(
      frame_of(encode_submit_request(msg)));
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.tenant, msg.tenant);
  EXPECT_EQ(back.name, msg.name);
  EXPECT_EQ(back.msa_path, msg.msa_path);
  EXPECT_EQ(back.format, msg.format);
  EXPECT_EQ(back.data_type, msg.data_type);
  EXPECT_EQ(back.model, msg.model);
  EXPECT_EQ(back.kappa, msg.kappa);
  EXPECT_EQ(back.categories, msg.categories);
  EXPECT_EQ(back.alpha, msg.alpha);
  EXPECT_EQ(back.backend, msg.backend);
  EXPECT_EQ(back.ram_fraction, msg.ram_fraction);
  EXPECT_EQ(back.budget_bytes, msg.budget_bytes);
  EXPECT_EQ(back.strategy, msg.strategy);
  EXPECT_EQ(back.seed, msg.seed);
  EXPECT_EQ(back.threads, msg.threads);
  EXPECT_EQ(back.tree_kind, msg.tree_kind);
  EXPECT_EQ(back.tree_v, msg.tree_v);
  EXPECT_EQ(back.tree_lengths, msg.tree_lengths);
  EXPECT_EQ(back.taxa_digest, msg.taxa_digest);
}

TEST(Protocol, ResultResponseTransportsLogLBitExactly) {
  ResultResponse msg;
  msg.request_id = 9;
  msg.job_id = 77;
  msg.status = 2;
  // A value with a busy mantissa: text round trips would lose bits.
  msg.logl_bits = std::bit_cast<std::uint64_t>(-12345.678901234567);
  msg.flags = kResultDegraded | kResultCacheHit;
  msg.error = "";
  msg.wall_seconds = 0.25;
  msg.queue_seconds = 0.125;
  msg.backend = "paged";
  msg.attempts = 2;
  const ResultResponse back = decode_result_response(
      frame_of(encode_result_response(msg)));
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.job_id, msg.job_id);
  EXPECT_EQ(back.status, msg.status);
  EXPECT_EQ(back.logl_bits, msg.logl_bits);
  EXPECT_EQ(std::bit_cast<double>(back.logl_bits), -12345.678901234567);
  EXPECT_EQ(back.flags, msg.flags);
  EXPECT_EQ(back.backend, msg.backend);
  EXPECT_EQ(back.attempts, msg.attempts);
}

TEST(Protocol, StatsAndErrorAndPingRoundTrip) {
  StatsResponse stats;
  stats.request_id = 5;
  stats.cache_lookups = 100;
  stats.cache_hits = 60;
  stats.cache_misses = 40;
  stats.cache_coalesced = 7;
  stats.queued_jobs = 3;
  stats.tenants.push_back({"a", 10, 8, 1, 1, 4});
  stats.tenants.push_back({"b", 20, 20, 0, 0, 15});
  const StatsResponse stats_back = decode_stats_response(
      frame_of(encode_stats_response(stats)));
  EXPECT_EQ(stats_back.cache_hits, 60u);
  ASSERT_EQ(stats_back.tenants.size(), 2u);
  EXPECT_EQ(stats_back.tenants[1].tenant, "b");
  EXPECT_EQ(stats_back.tenants[1].cache_hits, 15u);

  ErrorResponse error;
  error.request_id = 6;
  error.code = WireErrorCode::kBusy;
  error.message = "queue full";
  const ErrorResponse error_back = decode_error_response(
      frame_of(encode_error_response(error)));
  EXPECT_EQ(error_back.code, WireErrorCode::kBusy);
  EXPECT_EQ(error_back.message, "queue full");

  EXPECT_EQ(frame_of(encode_ping()).type, MessageType::kPing);
  EXPECT_EQ(frame_of(encode_pong()).type, MessageType::kPong);

  const StatsRequest request{11};
  EXPECT_EQ(decode_stats_request(frame_of(encode_stats_request(request)))
                .request_id,
            11u);
}

// -------------------------------------------------- version compatibility

TEST(Protocol, V2SubmitCarriesTheDeadline) {
  SubmitRequest msg = sample_submit();
  msg.deadline_ms = 2500;
  const std::vector<std::uint8_t> bytes = encode_submit_request(msg);
  const Frame frame = frame_of(bytes);
  EXPECT_EQ(frame.version, kProtocolVersion);
  EXPECT_EQ(decode_submit_request(frame).deadline_ms, 2500u);
}

TEST(Protocol, DeadlineSecondsRoundUpToWholeMilliseconds) {
  // A positive sub-millisecond deadline must survive the wire's ms
  // granularity as 1 ms, not truncate to 0 = "no deadline".
  EXPECT_EQ(deadline_ms_from_seconds(0.0), 0u);
  EXPECT_EQ(deadline_ms_from_seconds(-1.0), 0u);
  EXPECT_EQ(deadline_ms_from_seconds(1e-6), 1u);
  EXPECT_EQ(deadline_ms_from_seconds(0.001), 1u);
  EXPECT_EQ(deadline_ms_from_seconds(0.0011), 2u);
  EXPECT_EQ(deadline_ms_from_seconds(2.5), 2500u);
}

TEST(Protocol, V1PeersInteroperateWithoutDeadlines) {
  // An old client encodes at v1: the frame carries no deadline field, and
  // a current decoder reads it as "no deadline" — every other field
  // survives unchanged. This is the backward-compatibility contract the
  // version bump promised.
  SubmitRequest msg = sample_submit();
  msg.deadline_ms = 2500;  // the v1 encoder must NOT serialise this
  const std::vector<std::uint8_t> bytes = encode_submit_request(msg, 1);
  const Frame frame = frame_of(bytes);
  EXPECT_EQ(frame.version, 1u);
  const SubmitRequest back = decode_submit_request(frame);
  EXPECT_EQ(back.deadline_ms, 0u);
  EXPECT_EQ(back.tenant, msg.tenant);
  EXPECT_EQ(back.tree_v, msg.tree_v);
  EXPECT_EQ(back.taxa_digest, msg.taxa_digest);

  // v1 control frames stay accepted too.
  const Frame ping = frame_of(encode_frame(MessageType::kPing, {}, 1));
  EXPECT_EQ(ping.type, MessageType::kPing);
  EXPECT_EQ(ping.version, 1u);
}

TEST(Protocol, StatsRowsCarryExpiredAndShedCounts) {
  StatsResponse stats;
  stats.request_id = 8;
  StatsResponse::TenantRow row;
  row.tenant = "t";
  row.submitted = 10;
  row.completed = 6;
  row.expired = 3;
  row.shed = 1;
  stats.tenants.push_back(row);
  const StatsResponse back = decode_stats_response(
      frame_of(encode_stats_response(stats)));
  ASSERT_EQ(back.tenants.size(), 1u);
  EXPECT_EQ(back.tenants[0].expired, 3u);
  EXPECT_EQ(back.tenants[0].shed, 1u);
}

// --------------------------------------------------------- framing errors

ProtocolError::Kind decode_kind(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  try {
    decoder.append(bytes.data(), bytes.size());
    while (decoder.next()) {
    }
  } catch (const ProtocolError& error) {
    return error.kind();
  }
  PLFOC_REQUIRE(false, "expected a ProtocolError");
  return ProtocolError::Kind::kTruncated;  // unreachable
}

TEST(Framing, BadMagicBadVersionBadTypeOversized) {
  std::vector<std::uint8_t> good = encode_ping();

  std::vector<std::uint8_t> bad = good;
  bad[0] = 'X';
  EXPECT_EQ(decode_kind(bad), ProtocolError::Kind::kBadMagic);

  bad = good;
  bad[4] = 0xff;  // version 0xff
  EXPECT_EQ(decode_kind(bad), ProtocolError::Kind::kBadVersion);

  bad = good;
  bad[6] = 0x7f;  // type 0x7f: unknown
  EXPECT_EQ(decode_kind(bad), ProtocolError::Kind::kBadType);

  // The very next version after the current one is rejected typed — the
  // forward edge of the [kMinProtocolVersion, kProtocolVersion] window.
  bad = good;
  const std::uint16_t future = kProtocolVersion + 1;
  std::memcpy(&bad[4], &future, sizeof(future));
  EXPECT_EQ(decode_kind(bad), ProtocolError::Kind::kBadVersion);

  bad = good;
  bad[8] = 0xff;  // payload length 0xffffffff
  bad[9] = 0xff;
  bad[10] = 0xff;
  bad[11] = 0xff;
  EXPECT_EQ(decode_kind(bad), ProtocolError::Kind::kOversized);
}

TEST(Framing, TruncatedFramesWaitInsteadOfThrowing) {
  // An incomplete frame is not an error — bytes may still be in flight.
  const std::vector<std::uint8_t> bytes = encode_submit_request(
      sample_submit());
  for (const std::size_t cut : {std::size_t{1}, std::size_t{11},
                                bytes.size() - 1}) {
    FrameDecoder decoder;
    decoder.append(bytes.data(), cut);
    EXPECT_EQ(decoder.next(), std::nullopt) << "cut at " << cut;
  }
  // Byte-at-a-time delivery still produces exactly one frame.
  FrameDecoder decoder;
  std::optional<Frame> frame;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    decoder.append(&bytes[i], 1);
    if (std::optional<Frame> got = decoder.next()) frame = std::move(got);
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MessageType::kSubmitRequest);
}

TEST(Framing, TruncatedPayloadFieldsThrowTyped) {
  // Chop the *payload* (header claims the shorter length honestly): the
  // message decoder must hit the wall mid-field and throw kTruncated.
  const SubmitRequest msg = sample_submit();
  const std::vector<std::uint8_t> whole = encode_submit_request(msg);
  const std::size_t payload = whole.size() - kFrameHeaderBytes;
  for (std::size_t keep = 0; keep < payload; keep += 3) {
    std::vector<std::uint8_t> body(whole.begin() + kFrameHeaderBytes,
                                   whole.begin() + kFrameHeaderBytes + keep);
    Frame frame;
    frame.type = MessageType::kSubmitRequest;
    frame.payload = std::move(body);
    try {
      decode_submit_request(frame);
      // Some prefixes happen to parse fully only when keep == payload;
      // shorter ones that "succeed" would mean unchecked reads.
      ADD_FAILURE() << "decode accepted a " << keep << "-byte prefix of a "
                    << payload << "-byte message";
    } catch (const ProtocolError& error) {
      EXPECT_TRUE(error.kind() == ProtocolError::Kind::kTruncated ||
                  error.kind() == ProtocolError::Kind::kBadField ||
                  error.kind() == ProtocolError::Kind::kTrailingBytes)
          << "keep=" << keep;
    }
  }
}

TEST(Framing, TrailingBytesThrowTyped) {
  std::vector<std::uint8_t> whole = encode_stats_request({3});
  whole.push_back(0xAB);  // one extra payload byte
  // Patch the header's payload length to cover the extra byte.
  const std::uint32_t claimed =
      static_cast<std::uint32_t>(whole.size() - kFrameHeaderBytes);
  std::memcpy(&whole[8], &claimed, sizeof(claimed));
  try {
    decode_stats_request(frame_of(whole));
    ADD_FAILURE() << "trailing byte accepted";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.kind(), ProtocolError::Kind::kTrailingBytes);
  }
}

TEST(Framing, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(0xf00d);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t size = 1 + rng.below(256);
    std::vector<std::uint8_t> bytes(size);
    for (std::uint8_t& byte : bytes)
      byte = static_cast<std::uint8_t>(rng.below(256));
    FrameDecoder decoder;
    try {
      decoder.append(bytes.data(), bytes.size());
      while (std::optional<Frame> frame = decoder.next()) {
        // A random frame that passes header checks still must decode or
        // throw typed — try the strictest decoder for its claimed type.
        try {
          switch (frame->type) {
            case MessageType::kSubmitRequest:
              decode_submit_request(*frame);
              break;
            case MessageType::kResultResponse:
              decode_result_response(*frame);
              break;
            default:
              break;
          }
        } catch (const ProtocolError&) {
        }
      }
    } catch (const ProtocolError&) {
      // typed rejection — the only acceptable failure mode
    }
  }
}

TEST(Framing, CorruptedRealFramesFailTypedNeverCrash) {
  Rng rng(0xbeef);
  const std::vector<std::uint8_t> clean = encode_submit_request(
      sample_submit());
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes = clean;
    // 1-4 random byte corruptions anywhere in the frame.
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f)
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    FrameDecoder decoder;
    try {
      decoder.append(bytes.data(), bytes.size());
      while (std::optional<Frame> frame = decoder.next()) {
        if (frame->type == MessageType::kSubmitRequest) {
          try {
            decode_submit_request(*frame);  // may legitimately succeed
          } catch (const ProtocolError&) {
          }
        }
      }
    } catch (const ProtocolError&) {
    }
  }
}

// ------------------------------------------------------------- CLI shapes

TEST(ServeCli, ParseHostPortAndTenants) {
  const HostPort hp = parse_host_port("0.0.0.0:7070");
  EXPECT_EQ(hp.host, "0.0.0.0");
  EXPECT_EQ(hp.port, 7070);
  EXPECT_EQ(parse_host_port("localhost:0").port, 0);
  EXPECT_THROW(parse_host_port("no-port"), Error);
  EXPECT_THROW(parse_host_port("host:99999"), Error);
  EXPECT_THROW(parse_host_port("host:12x"), Error);

  const auto policies =
      parse_tenant_policies("alice:3,bob:1:2,carol:5:0:1073741824");
  ASSERT_EQ(policies.size(), 3u);
  EXPECT_EQ(policies.at("alice").weight, 3u);
  EXPECT_EQ(policies.at("alice").max_in_flight, 0u);
  EXPECT_EQ(policies.at("bob").max_in_flight, 2u);
  EXPECT_EQ(policies.at("carol").ram_share_bytes, 1073741824u);
  EXPECT_TRUE(parse_tenant_policies("").empty());
  EXPECT_THROW(parse_tenant_policies("nocolon"), Error);
  EXPECT_THROW(parse_tenant_policies("a:1,a:2"), Error);
  EXPECT_THROW(parse_tenant_policies("a:x"), Error);
}

TEST(ServeCli, ParseServeAndClientFlags) {
  const char* serve_args[] = {"--listen",     "127.0.0.1:9000", "--workers",
                              "4",            "--cache",        "256",
                              "--tenants",    "a:3,b:1",        "--readmit",
                              "--ram-budget", "1048576"};
  const ServeConfig serve = parse_serve_cli(11, serve_args);
  EXPECT_EQ(serve.listen, "127.0.0.1:9000");
  EXPECT_EQ(serve.workers, 4u);
  EXPECT_EQ(serve.cache, 256u);
  EXPECT_EQ(serve.tenants, "a:3,b:1");
  EXPECT_TRUE(serve.readmit);
  EXPECT_EQ(serve.ram_budget, 1048576u);
  const char* bad_listen[] = {"--listen", "nocolon"};
  EXPECT_THROW(parse_serve_cli(2, bad_listen), Error);

  const char* client_args[] = {"jobs.txt", "--connect", "127.0.0.1:9000",
                               "--tenant", "acme", "--stats"};
  const ClientConfig client = parse_client_cli(6, client_args);
  EXPECT_EQ(client.jobfile_path, "jobs.txt");
  EXPECT_EQ(client.connect, "127.0.0.1:9000");
  EXPECT_EQ(client.tenant, "acme");
  EXPECT_TRUE(client.print_stats);
  const char* no_connect[] = {"jobs.txt"};
  EXPECT_THROW(parse_client_cli(1, no_connect), Error);
}

// ---------------------------------------------------------- loopback e2e

std::string tmp_path(const std::string& name) {
  return "/tmp/plfoc_net_" + std::to_string(::getpid()) + "_" + name;
}

/// Shared on-disk dataset: FASTA + two Newick rotations of one topology +
/// a jobfile referencing them, written once per process.
class LoopbackFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetPlan plan;
    plan.num_taxa = 10;
    plan.num_sites = 60;
    plan.seed = 23;
    data_ = new PlannedDataset(make_dna_dataset(plan));
    msa_path_ = tmp_path("msa.fasta");
    tree_path_ = tmp_path("tree.nwk");
    rotated_path_ = tmp_path("rotated.nwk");
    jobfile_path_ = tmp_path("jobs.txt");
    write_fasta_file(msa_path_, data_->alignment);
    write_newick_file(tree_path_, data_->tree);
    // A topologically equivalent rotation: re-serialise the canonical
    // decode, whose node numbering (hence Newick text) differs from the
    // original's.
    write_newick_file(rotated_path_, phylo2vec_canonical(data_->tree));
    std::ofstream jobs(jobfile_path_);
    jobs << "# loopback jobfile\n";
    jobs << msa_path_ << " " << tree_path_ << " gtr inram - name=tree\n";
    jobs << msa_path_ << " - jc ooc 0.5 name=stepwise seed=7\n";
    jobs << msa_path_ << " " << rotated_path_
         << " gtr paged - budget=262144 name=rotated\n";
  }
  static void TearDownTestSuite() {
    std::remove(msa_path_.c_str());
    std::remove(tree_path_.c_str());
    std::remove(rotated_path_.c_str());
    std::remove(jobfile_path_.c_str());
    delete data_;
    data_ = nullptr;
  }

  /// In-process reference: the same jobfile through a cache-enabled
  /// Service (the canonicalization contract the server also runs under).
  static std::vector<std::uint64_t> reference_bits() {
    ServiceOptions options;
    options.workers = 2;
    options.result_cache_entries = 64;
    Service service(options);
    std::vector<JobId> ids;
    for (const JobFileEntry& entry : read_job_file(jobfile_path_))
      ids.push_back(service.submit(load_job(entry)));
    std::vector<std::uint64_t> bits;
    for (const JobId id : ids) {
      const JobResult result = service.wait(id);
      PLFOC_REQUIRE(result.status == JobStatus::kDone,
                    "reference job failed: " + result.error);
      bits.push_back(std::bit_cast<std::uint64_t>(result.log_likelihood));
    }
    return bits;
  }

  static PlannedDataset* data_;
  static std::string msa_path_;
  static std::string tree_path_;
  static std::string rotated_path_;
  static std::string jobfile_path_;
};

PlannedDataset* LoopbackFixture::data_ = nullptr;
std::string LoopbackFixture::msa_path_;
std::string LoopbackFixture::tree_path_;
std::string LoopbackFixture::rotated_path_;
std::string LoopbackFixture::jobfile_path_;

ServerOptions loopback_options(std::size_t cache_entries = 64) {
  // Shared ephemeral-port helper (src/net/server.hpp): the kernel picks the
  // port, so repeated test runs can never flake on EADDRINUSE.
  ServerOptions options = loopback_server_options();
  options.service.result_cache_entries = cache_entries;
  return options;
}

TEST_F(LoopbackFixture, SocketBatchBitIdenticalToInProcessService) {
  const std::vector<std::uint64_t> expected = reference_bits();

  Server server(loopback_options());
  server.start();
  BlockingClient client("127.0.0.1", server.port());
  client.ping();  // liveness

  const std::vector<JobFileEntry> entries = read_job_file(jobfile_path_);
  ASSERT_EQ(entries.size(), expected.size());
  for (std::size_t i = 0; i < entries.size(); ++i)
    client.submit(submit_request_from_entry(entries[i], "t1", 100 + i));

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ClientResponse response = client.wait(100 + i);
    ASSERT_TRUE(response.result.has_value())
        << (response.error ? response.error->message : "no response");
    EXPECT_EQ(response.result->status,
              static_cast<std::uint8_t>(JobStatus::kDone))
        << response.result->error;
    EXPECT_EQ(response.result->logl_bits, expected[i])
        << "job " << i << " (" << entries[i].name
        << ") differs across the wire";
  }
  const DrainReport report = server.stop();
  EXPECT_EQ(report.per_tenant.at("t1").completed, entries.size());
}

TEST_F(LoopbackFixture, EquivalentRotationsHitTheSameCacheEntry) {
  Server server(loopback_options());
  server.start();
  BlockingClient client("127.0.0.1", server.port());

  // tree and rotated are the same unrooted topology in different Newick
  // text; under Phylo2Vec keys the second submission must be served from
  // the cache (a hit or a coalesced hit), bit-identical to the first.
  JobFileEntry entry;
  entry.msa_path = msa_path_;
  entry.tree_path = tree_path_;
  entry.model = "gtr";
  entry.backend = "inram";
  client.submit(submit_request_from_entry(entry, "t1", 1));
  const ClientResponse first = client.wait(1);
  ASSERT_TRUE(first.result && first.result->status ==
                                  static_cast<std::uint8_t>(JobStatus::kDone));

  entry.tree_path = rotated_path_;
  client.submit(submit_request_from_entry(entry, "t2", 2));
  const ClientResponse second = client.wait(2);
  ASSERT_TRUE(second.result && second.result->status ==
                                   static_cast<std::uint8_t>(JobStatus::kDone));

  EXPECT_EQ(second.result->logl_bits, first.result->logl_bits);
  EXPECT_TRUE(second.result->flags & kResultCacheHit)
      << "rotation did not dedupe onto the first submission's entry";

  const StatsResponse stats = client.stats(9);
  EXPECT_EQ(stats.cache_lookups, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  // The auditor-style identity, observed over the wire.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.cache_lookups);
  server.stop();
}

/// One jobfile entry through a cache-enabled in-process Service.
std::uint64_t in_process_bits(const JobFileEntry& entry) {
  ServiceOptions options;
  options.result_cache_entries = 8;
  Service service(options);
  const JobResult result = service.wait(service.submit(load_job(entry)));
  PLFOC_REQUIRE(result.status == JobStatus::kDone,
                "reference job failed: " + result.error);
  return std::bit_cast<std::uint64_t>(result.log_likelihood);
}

TEST_F(LoopbackFixture, EditedAlignmentIsReboundNotServedStale) {
  const std::string path = tmp_path("edited.fasta");
  write_fasta_file(path, data_->alignment);
  Server server(loopback_options());
  server.start();
  BlockingClient client("127.0.0.1", server.port());

  JobFileEntry entry;
  entry.msa_path = path;
  entry.tree_path = tree_path_;
  entry.model = "gtr";
  entry.backend = "inram";
  client.submit(submit_request_from_entry(entry, "t", 1));
  const ClientResponse before = client.wait(1);
  ASSERT_TRUE(before.result.has_value());
  EXPECT_EQ(before.result->logl_bits, in_process_bits(entry));

  // Rewrite the file in place: same length, one base of one row changed.
  Alignment edited(DataType::kDna, data_->alignment.num_sites());
  for (std::size_t t = 0; t < data_->alignment.num_taxa(); ++t) {
    std::string row = data_->alignment.text(t);
    if (t == 0) row[0] = row[0] == 'A' ? 'C' : 'A';
    edited.add_sequence(data_->alignment.name(t), row);
  }
  write_fasta_file(path, edited);

  client.submit(submit_request_from_entry(entry, "t", 2));
  const ClientResponse after = client.wait(2);
  ASSERT_TRUE(after.result.has_value());
  EXPECT_EQ(after.result->status, static_cast<std::uint8_t>(JobStatus::kDone));
  EXPECT_FALSE(after.result->flags & kResultCacheHit)
      << "the edited file was answered from the old file's entry";
  EXPECT_EQ(after.result->logl_bits, in_process_bits(entry));
  EXPECT_NE(after.result->logl_bits, before.result->logl_bits);
  server.stop();
  std::remove(path.c_str());
}

TEST_F(LoopbackFixture, DeletedAlignmentGetsTheSameBadRequest) {
  const std::string path = tmp_path("deleted.fasta");
  write_fasta_file(path, data_->alignment);
  Server server(loopback_options());
  server.start();
  BlockingClient client("127.0.0.1", server.port());

  JobFileEntry entry;
  entry.msa_path = path;
  entry.tree_path = tree_path_;
  entry.model = "gtr";
  entry.backend = "inram";
  client.submit(submit_request_from_entry(entry, "t", 1));
  ASSERT_TRUE(client.wait(1).result.has_value());

  // Bound once, then deleted: the memo must not answer for a missing file.
  std::remove(path.c_str());
  client.submit(submit_request_from_entry(entry, "t", 2));
  const ClientResponse gone = client.wait(2);
  ASSERT_TRUE(gone.error.has_value());
  EXPECT_EQ(gone.error->code, WireErrorCode::kBadRequest);
  EXPECT_EQ(gone.error->message, "cannot open FASTA file '" + path + "'");
  server.stop();
}

TEST_F(LoopbackFixture, BadSubmissionsGetTypedErrorsNotCrashes) {
  Server server(loopback_options(0));
  server.start();
  BlockingClient client("127.0.0.1", server.port());

  // Unknown model: kBadRequest with a useful message.
  JobFileEntry entry;
  entry.msa_path = msa_path_;
  entry.tree_path = "-";
  entry.model = "not-a-model";
  client.submit(submit_request_from_entry(entry, "t", 1));
  const ClientResponse bad_model = client.wait(1);
  ASSERT_TRUE(bad_model.error.has_value());
  EXPECT_EQ(bad_model.error->code, WireErrorCode::kBadRequest);

  // Missing MSA file.
  entry.model = "jc";
  entry.msa_path = "/nonexistent/nope.fasta";
  client.submit(submit_request_from_entry(entry, "t", 2));
  ASSERT_TRUE(client.wait(2).error.has_value());

  // Taxa-digest mismatch: a tree over the wrong taxon set must be rejected
  // before it can mis-bind leaf ranks.
  entry.msa_path = msa_path_;
  entry.tree_path = tree_path_;
  SubmitRequest request = submit_request_from_entry(entry, "t", 3);
  ASSERT_EQ(request.tree_kind, WireTreeKind::kPhylo2Vec);
  request.taxa_digest ^= 0x1;  // claims a different taxon set
  client.submit(request);
  const ClientResponse mismatch = client.wait(3);
  ASSERT_TRUE(mismatch.error.has_value());
  EXPECT_NE(mismatch.error->message.find("digest"), std::string::npos);

  // A backend name outside the table.
  SubmitRequest bad_backend = submit_request_from_entry(entry, "t", 5);
  bad_backend.backend = "warp";
  client.submit(bad_backend);
  const ClientResponse unknown = client.wait(5);
  ASSERT_TRUE(unknown.error.has_value());
  EXPECT_EQ(unknown.error->code, WireErrorCode::kBadRequest);
  EXPECT_NE(unknown.error->message.find(
                "unknown backend 'warp' (inram | ooc | paged | mmap)"),
            std::string::npos)
      << unknown.error->message;

  // The connection survived all four rejections.
  client.ping();
  // And the server still evaluates good jobs.
  entry.model = "jc";
  entry.msa_path = msa_path_;
  client.submit(submit_request_from_entry(entry, "t", 4));
  const ClientResponse good = client.wait(4);
  ASSERT_TRUE(good.result.has_value());
  EXPECT_EQ(good.result->status, static_cast<std::uint8_t>(JobStatus::kDone));
  server.stop();
}

TEST_F(LoopbackFixture, DeadlineOverTheWireGetsTheTypedFlagAndStatsRow) {
  // A heavy job (hundreds of traversal steps, several ms) submitted with a
  // 1 ms deadline: whether it expires queued or mid-evaluation, the wire
  // must report JobStatus::kDeadlineExceeded plus the v2 result flag, and
  // the tenant's stats row must count it as expired. The same connection
  // then evaluates a deadline-free job fine — the drop cost nothing.
  DatasetPlan plan;
  plan.num_taxa = 48;
  plan.num_sites = 600;
  plan.seed = 31;
  PlannedDataset heavy = make_dna_dataset(plan);
  const std::string heavy_msa = tmp_path("heavy.fasta");
  const std::string heavy_tree = tmp_path("heavy.nwk");
  write_fasta_file(heavy_msa, heavy.alignment);
  write_newick_file(heavy_tree, heavy.tree);

  Server server(loopback_options(0));
  server.start();
  BlockingClient client("127.0.0.1", server.port());

  JobFileEntry entry;
  entry.msa_path = heavy_msa;
  entry.tree_path = heavy_tree;
  entry.model = "gtr";
  entry.backend = "ooc";
  entry.ram_fraction = 0.1;
  entry.deadline_seconds = 0.001;
  SubmitRequest request = submit_request_from_entry(entry, "dl", 1);
  EXPECT_EQ(request.deadline_ms, 1u);  // jobfile seconds -> wire ms
  client.submit(request);
  const ClientResponse doomed = client.wait(1);
  ASSERT_TRUE(doomed.result.has_value())
      << (doomed.error ? doomed.error->message : "no response");
  EXPECT_EQ(doomed.result->status,
            static_cast<std::uint8_t>(JobStatus::kDeadlineExceeded))
      << doomed.result->error;
  EXPECT_TRUE(doomed.result->flags & kResultDeadlineExceeded);
  EXPECT_NE(doomed.result->error.find("deadline"), std::string::npos);

  entry.deadline_seconds = 0;
  client.submit(submit_request_from_entry(entry, "dl", 2));
  const ClientResponse fine = client.wait(2);
  ASSERT_TRUE(fine.result.has_value());
  EXPECT_EQ(fine.result->status, static_cast<std::uint8_t>(JobStatus::kDone))
      << fine.result->error;

  const StatsResponse stats = client.stats(3);
  bool found = false;
  for (const StatsResponse::TenantRow& row : stats.tenants) {
    if (row.tenant != "dl") continue;
    found = true;
    EXPECT_EQ(row.expired, 1u);
    EXPECT_EQ(row.completed, 1u);
  }
  EXPECT_TRUE(found) << "tenant dl missing from the stats response";

  const DrainReport report = server.stop();
  EXPECT_EQ(report.per_tenant.at("dl").expired, 1u);
  std::remove(heavy_msa.c_str());
  std::remove(heavy_tree.c_str());
}

TEST_F(LoopbackFixture, GarbageBytesCostOnlyThatConnection) {
  Server server(loopback_options(0));
  server.start();

  {
    // A raw client that speaks garbage: its connection dies, the server
    // does not.
    Socket raw = Socket::connect_to("127.0.0.1", server.port());
    const std::uint8_t garbage[] = {'G', 'A', 'R', 'B', 'A', 'G', 'E', '!',
                                    0xff, 0xff, 0xff, 0xff, 0x00, 0x01};
    raw.send_all(garbage, sizeof(garbage));
    std::uint8_t scratch[64];
    // Server drops us: recv returns 0 (orderly) once the close lands.
    while (raw.recv_some(scratch, sizeof(scratch)) > 0) {
    }
  }

  // A well-behaved client on a fresh connection still gets service.
  BlockingClient client("127.0.0.1", server.port());
  client.ping();
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.protocol_errors, 1u);
  server.stop();
}

TEST_F(LoopbackFixture, ClientCliRunsTheJobfileAgainstTheServer) {
  const std::vector<std::uint64_t> expected = reference_bits();
  (void)expected;

  Server server(loopback_options());
  server.start();

  ClientConfig config;
  config.connect = "127.0.0.1:" + std::to_string(server.port());
  config.jobfile_path = jobfile_path_;
  config.tenant = "cli-tenant";
  config.print_stats = true;
  std::ostringstream out;
  const int exit_code = run_client_cli(config, out);
  EXPECT_EQ(exit_code, 0) << out.str();
  const std::string report = out.str();
  EXPECT_NE(report.find("tree: logL = "), std::string::npos) << report;
  EXPECT_NE(report.find("stepwise: logL = "), std::string::npos) << report;
  EXPECT_NE(report.find("rotated: logL = "), std::string::npos) << report;
  EXPECT_NE(report.find("3/3 jobs ok"), std::string::npos) << report;
  EXPECT_NE(report.find("tenant cli-tenant"), std::string::npos) << report;

  const DrainReport drain = server.stop();
  EXPECT_EQ(drain.per_tenant.at("cli-tenant").completed, 3u);
}

TEST_F(LoopbackFixture, ServeCliSmokeStartsAndDrainsCleanly) {
  ServeConfig config;
  config.listen = "127.0.0.1:0";
  config.workers = 1;
  config.cache = 8;
  config.tenants = "a:3,b:1";
  std::istringstream stdin_stream("stop\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve_cli(config, stdin_stream, out), 0);
  EXPECT_NE(out.str().find("serving on 127.0.0.1:"), std::string::npos);
  EXPECT_NE(out.str().find("drained 0 jobs"), std::string::npos);
}

TEST_F(LoopbackFixture, IdleConnectionsAreSweptAndCountedAndLimited) {
  ServerOptions options = loopback_options(0);
  options.idle_timeout_seconds = 0.3;
  options.max_connections = 2;
  Server server(std::move(options));
  server.start();

  Socket idle_a = Socket::connect_to("127.0.0.1", server.port());
  Socket idle_b = Socket::connect_to("127.0.0.1", server.port());
  // Third connection: over the limit. The server closes it on accept; we
  // observe either an immediate EOF or a send failure soon after.
  bool third_refused = false;
  try {
    Socket over = Socket::connect_to("127.0.0.1", server.port());
    std::uint8_t scratch[16];
    third_refused = over.recv_some(scratch, sizeof(scratch)) == 0;
  } catch (const Error&) {
    third_refused = true;
  }
  EXPECT_TRUE(third_refused);

  // The two idle connections outlive the sweep interval -> closed.
  std::uint8_t scratch[16];
  EXPECT_EQ(idle_a.recv_some(scratch, sizeof(scratch)), 0u);
  EXPECT_EQ(idle_b.recv_some(scratch, sizeof(scratch)), 0u);

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.idle_closed, 2u);
  EXPECT_GE(stats.over_limit, 1u);
  server.stop();
}

}  // namespace
}  // namespace plfoc
