// Differential equivalence fuzzer (the ISSUE's tentpole test): randomized
// trees, models, and traversal workloads evaluated on every backend x
// replacement strategy x read-skip setting, with seeded fault schedules on
// the file-backed candidates, asserting BIT-identical log likelihoods
// against the InRamStore reference (Sec. 4.1). Default scale: 20 trials x 13
// candidates = 260 randomized cases (the roster carries a kernel-thread axis
// and an io-engine axis — sync / thread-pool / deterministic-permuted
// completions; every fourth trial draws a multi-block alignment so the
// parallel reduction itself is exercised). Out-of-core candidates drop and
// rebuild cherries by default; those labelled /paper-io keep the paper's
// write-back path, one per policy, both under faults and on every engine.
// Every candidate label carries its
// engine choice, and every assertion message carries the label plus the
// master seed and trial description needed to reproduce the exact failure:
//   PLFOC_FUZZ_MASTER=<seed> PLFOC_FUZZ_TRIALS=<n> ./plfoc_fault_tests
// The end of the file drives the same fault machinery through `plfoc batch`
// (the CLI acceptance path).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/driver.hpp"
#include "fuzz_harness.hpp"
#include "likelihood/kernels.hpp"
#include "msa/fasta.hpp"
#include "tree/newick.hpp"

namespace plfoc {
namespace {

TEST(FaultFuzz, AllBackendsBitIdenticalUnderFaults) {
  const std::uint64_t master = fuzz::env_u64("PLFOC_FUZZ_MASTER", 20260805);
  const std::uint64_t trials = fuzz::env_u64("PLFOC_FUZZ_TRIALS", 20);
  std::uint64_t cases = 0;
  std::uint64_t faults_seen = 0;
  std::uint64_t retries_seen = 0;

  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const fuzz::TrialPlan plan = fuzz::make_trial_plan(master, trial);
    const std::string repro = "master=" + std::to_string(master) +
                              " trial=" + std::to_string(trial) + " [" +
                              plan.describe() + "]";
    SCOPED_TRACE(repro);

    SessionOptions reference_options;
    reference_options.backend = Backend::kInRam;
    const std::vector<double> reference =
        fuzz::run_candidate(plan, reference_options);
    for (const double value : reference) ASSERT_TRUE(std::isfinite(value));

    for (const fuzz::Candidate& candidate : fuzz::make_candidates(plan)) {
      ++cases;
      std::vector<double> series;
      OocStats stats;
      try {
        series = fuzz::run_candidate(plan, candidate.options, &stats);
      } catch (const std::exception& error) {
        FAIL() << "candidate " << candidate.label << " threw: " << error.what()
               << " | reproduce with " << repro;
      }
      ASSERT_EQ(series.size(), reference.size()) << candidate.label;
      for (std::size_t i = 0; i < series.size(); ++i) {
        // EXPECT_EQ on doubles: bitwise identity, the paper's criterion.
        EXPECT_EQ(series[i], reference[i])
            << "candidate " << candidate.label << " diverged at evaluation "
            << i << " | reproduce with " << repro;
      }
      // Aggregate schedule activity so the suite can prove the faulty
      // candidates were actually exercised (not every small case must fire).
      faults_seen += stats.faults_injected;
      retries_seen += stats.io_retries;
      EXPECT_EQ(stats.io_exhausted, 0u)
          << "candidate " << candidate.label
          << " exhausted a retry budget yet returned | " << repro;
    }
  }
  // The ISSUE's acceptance floor: at least 200 randomized cases per CI run.
  EXPECT_GE(cases, 200u) << "fuzzer coverage shrank below the CI floor";
  EXPECT_GT(faults_seen, 0u) << "no fault schedule ever fired (master="
                             << master << ")";
  EXPECT_GT(retries_seen, 0u);
}

TEST(FaultFuzz, CorruptionSelfHealsBitIdenticalOrFailsTyped) {
  // The integrity tentpole's differential oracle: every third trial layers
  // seeded checksum corruption (flip / torn / zero / stale) on top of the
  // syscall fault schedule. A corrupted swap-in must either self-heal — the
  // store recomputes the vector from its children via the Felsenstein
  // recurrence and the logL series stays BIT-identical to the in-RAM
  // reference — or fail with a typed IntegrityError. A divergent number, a
  // crash, or any other exception type is a bug. The paged (OS-style)
  // baseline has no recomputation seam, so for it only the typed-failure
  // outcome is acceptable when corruption fires.
  const std::uint64_t master = fuzz::env_u64("PLFOC_FUZZ_MASTER", 20260805);
  const std::uint64_t trials = fuzz::env_u64("PLFOC_FUZZ_TRIALS", 20);
  std::uint64_t corrupted = 0;
  std::uint64_t detected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t healed_runs = 0;
  std::uint64_t typed_failures = 0;

  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    if (trial % 3 != 0) continue;  // the corruption-armed subset
    const fuzz::TrialPlan plan = fuzz::make_trial_plan(master, trial);
    ASSERT_TRUE(plan.corrupting());
    const std::string repro = "master=" + std::to_string(master) +
                              " trial=" + std::to_string(trial) + " [" +
                              plan.describe() + "]";
    SCOPED_TRACE(repro);

    SessionOptions reference_options;
    reference_options.backend = Backend::kInRam;
    const std::vector<double> reference =
        fuzz::run_candidate(plan, reference_options);

    std::vector<fuzz::Candidate> candidates;
    const ReplacementPolicy policies[] = {ReplacementPolicy::kLru,
                                          ReplacementPolicy::kTopological,
                                          ReplacementPolicy::kRandom};
    const char* policy_names[] = {"lru", "topological", "random"};
    const unsigned thread_axis[] = {1, 4, 2};
    for (int p = 0; p < 3; ++p) {
      fuzz::Candidate candidate;
      candidate.options.backend = Backend::kOutOfCore;
      // More slot headroom than the main fuzzer: the recovery recursion
      // pins child vectors on top of the interrupted traversal's own pins.
      candidate.options.ram_fraction = 0.45;
      candidate.options.policy = policies[p];
      candidate.options.seed = plan.dataset.seed;
      candidate.options.threads = thread_axis[p];
      candidate.options.faults = fuzz::trial_corrupting_faults(plan);
      candidate.label = std::string("ooc/") + policy_names[p] + "/corrupt/t" +
                        std::to_string(thread_axis[p]);
      candidates.push_back(std::move(candidate));
    }
    {
      fuzz::Candidate candidate;
      candidate.options.backend = Backend::kPaged;
      candidate.options.ram_budget_bytes = 1u << 18;
      candidate.options.faults = fuzz::trial_corrupting_faults(plan);
      candidate.label = "paged/corrupt";
      candidates.push_back(std::move(candidate));
    }

    for (const fuzz::Candidate& candidate : candidates) {
      OocStats stats;
      std::vector<double> series;
      try {
        series = fuzz::run_candidate(plan, candidate.options, &stats);
      } catch (const IntegrityError& error) {
        // Unrecoverable corruption is an acceptable outcome — but only as
        // this exact type, and only for corruption this test injected.
        ++typed_failures;
        EXPECT_TRUE(error.injected())
            << candidate.label << " blamed the media for an injected "
            << "corruption | reproduce with " << repro;
        continue;
      } catch (const std::exception& error) {
        FAIL() << "candidate " << candidate.label
               << " threw an untyped error: " << error.what()
               << " | reproduce with " << repro;
      }
      ASSERT_EQ(series.size(), reference.size()) << candidate.label;
      for (std::size_t i = 0; i < series.size(); ++i) {
        EXPECT_EQ(series[i], reference[i])
            << "candidate " << candidate.label << " diverged at evaluation "
            << i << " after " << stats.integrity_recoveries
            << " recoveries | reproduce with " << repro;
      }
      // A run that returned healed everything it detected: the unrecovered
      // path always throws, so the counters must balance exactly.
      EXPECT_EQ(stats.integrity_unrecovered, 0u) << candidate.label;
      EXPECT_EQ(stats.integrity_failures, stats.integrity_recoveries)
          << candidate.label;
      EXPECT_GE(stats.recovery_recomputes, stats.integrity_recoveries)
          << candidate.label;
      if (stats.integrity_recoveries > 0) ++healed_runs;
      corrupted += stats.corruptions_injected;
      detected += stats.integrity_failures;
      recovered += stats.integrity_recoveries;
    }
  }
  // Aggregate proof the axis was exercised: corruption fired, detection
  // fired, and at least one run healed itself back to bit-identity.
  EXPECT_GT(corrupted, 0u) << "no corruption ever injected (master=" << master
                           << ")";
  EXPECT_GT(detected, 0u) << "injected corruption was never detected";
  EXPECT_GT(recovered, 0u) << "no corrupted record was ever self-healed";
  EXPECT_GT(healed_runs, 0u);
  (void)typed_failures;  // typed failures are legal but not required to occur
}

TEST(FaultFuzz, ThreadCountBitIdenticalAcrossPoliciesAndPrecisions) {
  // The block-partition determinism contract (docs/parallelism.md): for a
  // fixed configuration the logL series must be bitwise invariant under the
  // kernel-thread count. Single-precision disk storage legitimately diverges
  // from the in-RAM double reference, so it cannot ride the main fuzzer's
  // oracle — instead every policy x precision pair is compared against its
  // own single-threaded run. Trial 4 is a multi-block draw (sites > 256), so
  // the parallel reduction runs for real rather than hitting the one-block
  // serial fast path.
  const std::uint64_t master = fuzz::env_u64("PLFOC_FUZZ_MASTER", 20260805);
  const fuzz::TrialPlan plan = fuzz::make_trial_plan(master, 4);
  ASSERT_GT(plan.dataset.num_sites, 2 * kPatternBlock)
      << "trial 4 must be a multi-block draw for this test to bite";

  const ReplacementPolicy policies[] = {
      ReplacementPolicy::kRandom, ReplacementPolicy::kLru,
      ReplacementPolicy::kLfu, ReplacementPolicy::kTopological};
  for (const ReplacementPolicy policy : policies) {
    for (const bool single : {false, true}) {
      SessionOptions base;
      base.backend = Backend::kOutOfCore;
      base.ram_fraction = 0.35;
      base.policy = policy;
      base.seed = plan.dataset.seed;
      base.single_precision_disk = single;
      base.faults = fuzz::trial_faults(plan);

      SessionOptions serial = base;
      serial.threads = 1;
      const std::vector<double> expected =
          fuzz::run_candidate(plan, std::move(serial));
      for (const double value : expected) ASSERT_TRUE(std::isfinite(value));

      for (const unsigned threads : {2u, 4u}) {
        SessionOptions parallel = base;
        parallel.threads = threads;
        const std::vector<double> series =
            fuzz::run_candidate(plan, std::move(parallel));
        ASSERT_EQ(series.size(), expected.size());
        for (std::size_t i = 0; i < series.size(); ++i) {
          EXPECT_EQ(series[i], expected[i])
              << "policy " << static_cast<int>(policy)
              << (single ? " single" : " double") << "-precision diverged at "
              << "evaluation " << i << " with threads=" << threads
              << " | master=" << master << " [" << plan.describe() << "]";
        }
      }
    }
  }
}

TEST(FaultFuzz, ExhaustionIsTypedAcrossBackends) {
  // A schedule that deterministically defeats the retry budget must surface
  // as IoError (never a crash, hang, or silent wrong answer) on every
  // file-backed backend.
  const std::uint64_t master = fuzz::env_u64("PLFOC_FUZZ_MASTER", 20260805);
  const fuzz::TrialPlan plan = fuzz::make_trial_plan(master, 0);
  FaultConfig lethal;
  lethal.seed = plan.fault_seed;
  lethal.rate = 1.0;
  lethal.kinds = kFaultEio;
  lethal.burst = 1u << 20;

  for (const Backend backend : {Backend::kOutOfCore, Backend::kPaged}) {
    SessionOptions options;
    options.backend = backend;
    if (backend == Backend::kOutOfCore) options.ram_fraction = 0.35;
    if (backend == Backend::kPaged) options.ram_budget_bytes = 1u << 18;
    options.faults = lethal;
    options.io_retry.max_retries = 1;
    options.io_retry.backoff_initial_us = 0;
    try {
      (void)fuzz::run_candidate(plan, std::move(options));
      // A run that needed no file I/O at all legitimately succeeds; anything
      // that touched the file cannot.
    } catch (const IoError& error) {
      EXPECT_TRUE(error.injected());
      EXPECT_GE(error.attempts(), 2u);
    } catch (const std::exception& error) {
      FAIL() << "backend " << static_cast<int>(backend)
             << " threw an untyped error: " << error.what();
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end through `plfoc batch`: the ISSUE's CLI acceptance criteria.

std::string tmp_path(const std::string& name) {
  return "/tmp/plfoc_fuzz_" + std::to_string(::getpid()) + "_" + name;
}

class BatchFaultCli : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetPlan plan;
    plan.num_taxa = 10;
    plan.num_sites = 60;
    plan.seed = 4242;
    const PlannedDataset data = make_dna_dataset(plan);
    msa_path_ = tmp_path("msa.fasta");
    tree_path_ = tmp_path("tree.nwk");
    write_fasta_file(msa_path_, data.alignment);
    write_newick_file(tree_path_, data.tree);
  }
  static void TearDownTestSuite() {
    std::remove(msa_path_.c_str());
    std::remove(tree_path_.c_str());
  }

  static std::string write_jobfile(const std::string& name,
                                   const std::string& extra_keys) {
    const std::string path = tmp_path(name);
    std::ofstream jobs(path);
    jobs << msa_path_ << " " << tree_path_ << " gtr ooc 0.4 name=alpha "
         << extra_keys << "\n";
    jobs << msa_path_ << " " << tree_path_ << " jc inram - name=beta\n";
    return path;
  }

  /// Per-job result lines with the trailing wall-clock time stripped (the
  /// timing varies run to run; the logL and backend tag must not).
  static std::vector<std::string> job_lines(const std::string& report) {
    std::vector<std::string> lines;
    std::istringstream in(report);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("alpha:", 0) != 0 && line.rfind("beta:", 0) != 0)
        continue;
      const std::size_t bracket = line.find(']');
      if (bracket != std::string::npos) line.resize(bracket + 1);
      lines.push_back(line);
    }
    return lines;
  }

  static std::string msa_path_;
  static std::string tree_path_;
};

std::string BatchFaultCli::msa_path_;
std::string BatchFaultCli::tree_path_;

TEST_F(BatchFaultCli, FaultyBatchMatchesFaultFreeBatchBitwise) {
  const std::string jobfile = write_jobfile("jobs_ok.txt", "");

  BatchConfig clean;
  clean.jobfile_path = jobfile;
  std::ostringstream clean_out;
  ASSERT_EQ(run_batch_cli(clean, clean_out), 0);
  const std::vector<std::string> expected = job_lines(clean_out.str());
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_NE(expected[0].find("logL = "), std::string::npos);

  // At rate=0.1 (the ISSUE's ceiling) a small job's short op sequence may
  // draw zero faults for a given seed, so scan seeds: bit-identity must hold
  // for EVERY seed, and some seed in the range must actually fire faults and
  // retries (shown by the counters in the merged stats report). Schedules
  // are deterministic per seed, so the scan is replayable, not flaky.
  bool fired = false;
  for (std::uint64_t seed = 1; seed <= 50 && !fired; ++seed) {
    BatchConfig faulty = clean;
    faulty.inject_faults = "seed=" + std::to_string(seed) + ",rate=0.1";
    faulty.print_stats = true;
    std::ostringstream faulty_out;
    ASSERT_EQ(run_batch_cli(faulty, faulty_out), 0) << faulty_out.str();
    EXPECT_EQ(job_lines(faulty_out.str()), expected) << "seed " << seed;
    if (faulty_out.str().find("faults=") != std::string::npos) {
      fired = true;
      EXPECT_NE(faulty_out.str().find("retried="), std::string::npos)
          << faulty_out.str();
    }
  }
  EXPECT_TRUE(fired) << "no seed in 1..50 fired a fault at rate=0.1";
  std::remove(jobfile.c_str());
}

TEST_F(BatchFaultCli, RetriesDisabledFailsTypedWithoutKillingTheBatch) {
  const std::string jobfile =
      write_jobfile("jobs_fail.txt", "faults=seed=9,rate=1,kinds=eio,burst=4096");

  BatchConfig config;
  config.jobfile_path = jobfile;
  config.io_retries = 0;
  std::ostringstream out;
  EXPECT_EQ(run_batch_cli(config, out), 1);
  const std::string report = out.str();
  // The deterministic-exhaustion job fails with the typed report...
  EXPECT_NE(report.find("alpha: FAILED"), std::string::npos) << report;
  EXPECT_NE(report.find("io failure"), std::string::npos) << report;
  EXPECT_NE(report.find("fault report:"), std::string::npos) << report;
  EXPECT_NE(report.find("[injected]"), std::string::npos) << report;
  // ...and the sibling job on the same worker still completes.
  EXPECT_NE(report.find("beta: logL = "), std::string::npos) << report;
  EXPECT_NE(report.find("1/2 jobs"), std::string::npos) << report;
  std::remove(jobfile.c_str());
}

TEST_F(BatchFaultCli, ReadmitEndsInExactlyTwoStates) {
  // rate=0.7 eio bursts against a 4-deep retry budget: each transfer
  // exhausts with probability ~0.7^5, so whether a given seed's job survives
  // is a (deterministic, replayable) coin toss. Under --readmit the batch
  // must end in exactly one of two states per seed: the job produced the
  // reference logL bit for bit, or it failed typed after 2 attempts (proof
  // the re-admission path ran). Everything is deterministic given the seed —
  // one worker — so the branch coverage observed when this
  // test was written is stable, not flaky.
  const std::string jobfile_ref = write_jobfile("jobs_ref.txt", "");
  BatchConfig reference;
  reference.jobfile_path = jobfile_ref;
  std::ostringstream reference_out;
  ASSERT_EQ(run_batch_cli(reference, reference_out), 0);
  const std::string expected_alpha = job_lines(reference_out.str())[0];
  std::remove(jobfile_ref.c_str());

  bool saw_success = false;
  bool saw_double_failure = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string jobfile = write_jobfile(
        "jobs_readmit.txt", "faults=seed=" + std::to_string(seed) +
                                ",rate=0.7,kinds=eio,burst=4096");
    BatchConfig config;
    config.jobfile_path = jobfile;
    config.readmit = true;
    std::ostringstream out;
    const int exit_code = run_batch_cli(config, out);
    const std::string report = out.str();
    const auto lines = job_lines(report);
    ASSERT_EQ(lines.size(), 2u) << report;
    if (exit_code == 0) {
      saw_success = true;
      EXPECT_EQ(lines[0], expected_alpha) << "seed " << seed;
    } else {
      saw_double_failure = true;
      EXPECT_NE(report.find("alpha: FAILED"), std::string::npos) << report;
      EXPECT_NE(report.find("after 2 attempts"), std::string::npos) << report;
      EXPECT_NE(report.find("fault report:"), std::string::npos) << report;
    }
    std::remove(jobfile.c_str());
    if (saw_success && saw_double_failure) break;
  }
  EXPECT_TRUE(saw_success);
  EXPECT_TRUE(saw_double_failure);
}

}  // namespace
}  // namespace plfoc
