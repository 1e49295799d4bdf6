// Socket-layer chaos harness (docs/robustness.md "Deadlines, cancellation,
// and overload"): seeded ChaosSocket clients — mid-frame disconnects,
// trickle I/O, slow-loris connects — hammer one live server while a healthy
// BlockingClient keeps submitting real jobs. The assertions are the serving
// tier's survival contract:
//   * the server never crashes or wedges, whatever a connection does;
//   * damage is contained to the offending connection — the healthy
//     client's results stay bit-identical throughout;
//   * the server drains cleanly afterwards.
// Scale is tunable: PLFOC_CHAOS_TRIALS (default 150 = 50 seeds per mode)
// and PLFOC_CHAOS_MASTER (master seed). Every trial runs under a
// SCOPED_TRACE carrying `seed=<n> mode=<name>`, so a failing run prints its
// exact repro; replay with
//   PLFOC_CHAOS_TRIALS=1 PLFOC_CHAOS_MASTER=<n> ./plfoc_chaos_tests
// (a single trial derives its seed from the master unchanged).
#include "chaos_socket.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "msa/fasta.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/jobfile.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/newick.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value ? std::strtoull(value, nullptr, 0) : fallback;
}

/// Per-trial seed: splitmix-style spread of the master so neighbouring
/// trials share no low-bit structure. With PLFOC_CHAOS_TRIALS=1 the single
/// trial's seed IS the master — the replay recipe in the header comment.
std::uint64_t trial_seed(std::uint64_t master, std::uint64_t trial) {
  if (trial == 0) return master;
  std::uint64_t z = master + trial * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string tmp_path(const std::string& name) {
  return "/tmp/plfoc_chaos_" + std::to_string(::getpid()) + "_" + name;
}

/// One small on-disk dataset shared by every healthy submission.
class ChaosFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetPlan plan;
    plan.num_taxa = 10;
    plan.num_sites = 60;
    plan.seed = 29;
    PlannedDataset data = make_dna_dataset(plan);
    msa_path_ = tmp_path("msa.fasta");
    tree_path_ = tmp_path("tree.nwk");
    write_fasta_file(msa_path_, data.alignment);
    write_newick_file(tree_path_, data.tree);
  }
  static void TearDownTestSuite() {
    std::remove(msa_path_.c_str());
    std::remove(tree_path_.c_str());
  }

  /// A real, evaluable submission for the healthy client.
  static SubmitRequest healthy_submit(std::uint64_t request_id) {
    JobFileEntry entry;
    entry.msa_path = msa_path_;
    entry.tree_path = tree_path_;
    entry.model = "gtr";
    entry.backend = "inram";
    return submit_request_from_entry(entry, "healthy", request_id);
  }

  /// The frame every chaos client plays with: a syntactically valid submit
  /// whose MSA path does not exist. A fully delivered copy (trickle) earns
  /// a quick typed error response — comfortably more than the 16 bytes the
  /// trickle script waits for — so no chaos trial ever blocks on a real
  /// evaluation; the interrupted copies exercise the decoder's partial-
  /// frame handling.
  static std::vector<std::uint8_t> chaos_frame(std::uint64_t request_id) {
    JobFileEntry entry;
    entry.msa_path = "/nonexistent/plfoc_chaos.fasta";
    entry.tree_path = "-";
    entry.model = "jc";
    entry.backend = "inram";
    return encode_submit_request(
        submit_request_from_entry(entry, "chaos", request_id));
  }

  static std::string msa_path_;
  static std::string tree_path_;
};

std::string ChaosFixture::msa_path_;
std::string ChaosFixture::tree_path_;

TEST_F(ChaosFixture, SeededSweepSurvivesContainsAndDrainsClean) {
  const std::uint64_t trials = env_u64("PLFOC_CHAOS_TRIALS", 150);
  const std::uint64_t master = env_u64("PLFOC_CHAOS_MASTER", 0xc4a05u);

  ServerOptions options = loopback_server_options();
  options.service.workers = 2;
  Server server(std::move(options));
  server.start();
  BlockingClient healthy("127.0.0.1", server.port());
  healthy.ping();

  // The containment anchor: the first healthy result's exact bits. Every
  // later healthy submission — issued between and during chaos trials —
  // must reproduce them, or a chaos connection leaked damage across the
  // connection boundary.
  std::uint64_t healthy_id = 1;
  healthy.submit(healthy_submit(healthy_id));
  const ClientResponse anchor = healthy.wait(healthy_id);
  ASSERT_TRUE(anchor.result.has_value())
      << (anchor.error ? anchor.error->message : "no response");
  ASSERT_EQ(anchor.result->status, static_cast<std::uint8_t>(JobStatus::kDone))
      << anchor.result->error;
  const std::uint64_t anchor_bits = anchor.result->logl_bits;
  std::uint64_t healthy_runs = 1;

  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = trial_seed(master, trial);
    const ChaosMode mode =
        kAllChaosModes[trial % std::size(kAllChaosModes)];
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " mode=" + chaos_mode_name(mode) +
                 " trial=" + std::to_string(trial));

    const std::vector<std::uint8_t> frame = chaos_frame(1000 + trial);
    ChaosSocket chaos("127.0.0.1", server.port(), seed, mode);
    const ChaosReport report = chaos.run(frame.data(), frame.size());
    // The scripts themselves assert nothing about the server — but a
    // trickle client that delivered its whole frame must have been
    // answered (the typed-error response), which proves the server is
    // still reading and writing mid-chaos.
    if (mode == ChaosMode::kTrickle && report.bytes_sent == frame.size() &&
        !report.peer_closed) {
      EXPECT_GE(report.bytes_received, 16u);
    }

    // Interleave real work: every 8th trial the healthy connection —
    // which has been open the whole time — evaluates again.
    if (trial % 8 == 7) {
      healthy.submit(healthy_submit(++healthy_id));
      const ClientResponse response = healthy.wait(healthy_id);
      ASSERT_TRUE(response.result.has_value())
          << (response.error ? response.error->message : "no response");
      ASSERT_EQ(response.result->status,
                static_cast<std::uint8_t>(JobStatus::kDone))
          << response.result->error;
      EXPECT_EQ(response.result->logl_bits, anchor_bits)
          << "healthy result changed under chaos";
      ++healthy_runs;
    }
  }

  // Survival: the server still answers on the long-lived connection and on
  // a fresh one after the full sweep.
  healthy.ping();
  BlockingClient fresh("127.0.0.1", server.port());
  fresh.submit(healthy_submit(900000));
  const ClientResponse last = fresh.wait(900000);
  ASSERT_TRUE(last.result.has_value());
  EXPECT_EQ(last.result->logl_bits, anchor_bits);
  ++healthy_runs;

  const ServerStats stats = server.stats();
  // Every chaos trial opened (and by now closed or abandoned) its own
  // connection; the server must have noticed at least the fully-delivered
  // trickle submissions' worth of traffic without dying. Keep the counter
  // assertions loose — exact bookkeeping is test_net.cpp's job.
  EXPECT_GE(stats.accepted, trials + 2);

  const DrainReport drain = server.stop();
  EXPECT_EQ(drain.per_tenant.at("healthy").completed, healthy_runs);
  for (const JobResult& result : drain.results)
    EXPECT_NE(result.status, JobStatus::kQueued);
}

TEST_F(ChaosFixture, ConcurrentChaosBurstsDoNotStarveTheHealthyClient) {
  // All three modes at once, several connections each, while the healthy
  // client evaluates in the foreground: containment under real
  // concurrency, not just sequential trials.
  const std::uint64_t master = env_u64("PLFOC_CHAOS_MASTER", 0xc4a05u);
  ServerOptions options = loopback_server_options();
  options.service.workers = 2;
  Server server(std::move(options));
  server.start();
  BlockingClient healthy("127.0.0.1", server.port());

  healthy.submit(healthy_submit(1));
  const ClientResponse anchor = healthy.wait(1);
  ASSERT_TRUE(anchor.result.has_value());
  const std::uint64_t anchor_bits = anchor.result->logl_bits;

  std::vector<std::thread> storm;
  for (std::uint64_t lane = 0; lane < 6; ++lane) {
    storm.emplace_back([&, lane] {
      const std::uint64_t seed = trial_seed(master ^ 0xb065u, lane + 1);
      const ChaosMode mode = kAllChaosModes[lane % std::size(kAllChaosModes)];
      const std::vector<std::uint8_t> frame = chaos_frame(2000 + lane);
      for (int round = 0; round < 3; ++round) {
        ChaosSocket chaos("127.0.0.1", server.port(), seed + round, mode);
        chaos.run(frame.data(), frame.size());
      }
    });
  }
  for (std::uint64_t id = 10; id < 16; ++id) {
    healthy.submit(healthy_submit(id));
    const ClientResponse response = healthy.wait(id);
    ASSERT_TRUE(response.result.has_value())
        << (response.error ? response.error->message : "no response");
    EXPECT_EQ(response.result->logl_bits, anchor_bits);
  }
  for (std::thread& lane : storm) lane.join();

  healthy.ping();
  const DrainReport drain = server.stop();
  EXPECT_EQ(drain.per_tenant.at("healthy").completed, 7u);
}

}  // namespace
}  // namespace plfoc
