// The batch-evaluation service (src/service/): queue semantics, admission
// math, and the service determinism contract — results bit-identical to
// sequential Session runs regardless of worker count, admission order, or
// the degradation the scheduler applied. Built as its own binary with the
// `service` ctest label so CI runs it under every sanitizer flavour
// (TSan being the one that matters here).
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "msa/patterns.hpp"
#include "service/jobfile.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "sim/dataset_planner.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

PlannedDataset small_dataset(std::uint64_t seed = 3, std::size_t taxa = 16,
                             std::size_t sites = 80) {
  DatasetPlan plan;
  plan.num_taxa = taxa;
  plan.num_sites = sites;
  plan.seed = seed;
  return make_dna_dataset(plan);
}

/// A fresh spec per call: the service consumes specs by move.
JobSpec make_job(std::uint64_t seed, Backend backend, double fraction = 0.0,
                 std::uint64_t budget = 0) {
  PlannedDataset data = small_dataset(seed);
  JobSpec spec{"", std::move(data.alignment), std::move(data.tree),
               benchmark_gtr(), SessionOptions{}, ""};
  spec.session.backend = backend;
  spec.session.ram_fraction = fraction;
  spec.session.ram_budget_bytes = budget;
  spec.session.seed = seed;
  return spec;
}

/// A spec whose evaluation takes long enough (tens of ms) that queue-state
/// assertions made microseconds after submit cannot race its completion.
JobSpec make_slow_job(std::uint64_t seed) {
  PlannedDataset data = small_dataset(seed, 48, 600);
  JobSpec spec{"", std::move(data.alignment), std::move(data.tree),
               benchmark_gtr(), SessionOptions{}, ""};
  spec.session.backend = Backend::kOutOfCore;
  spec.session.ram_fraction = 0.1;
  spec.session.seed = seed;
  return spec;
}

/// The cheapest valid spec, for queue-only tests that never evaluate.
FairJobQueue::Pending pending(JobId id) {
  Alignment alignment(DataType::kDna, 4);
  alignment.add_sequence("a", "ACGT");
  alignment.add_sequence("b", "ACGT");
  alignment.add_sequence("c", "ACGT");
  Tree tree(std::vector<std::string>{"a", "b", "c"});
  return {id,
          JobSpec{"", std::move(alignment), std::move(tree), jc69(),
                  SessionOptions{}, ""},
          {},
          std::nullopt};
}

double sequential_log_likelihood(JobSpec spec) {
  Session session(std::move(spec.alignment), std::move(spec.tree),
                  std::move(spec.model), std::move(spec.session));
  return session.evaluate().log_likelihood;
}

// --------------------------------------------------------------- Scheduler

JobDemand demand_for(Backend backend, double fraction = 0.0,
                     std::uint64_t budget = 0) {
  return JobDemand::from_spec(make_job(11, backend, fraction, budget));
}

TEST(Scheduler, UnlimitedBudgetAdmitsAsRequested) {
  Scheduler scheduler(0);
  const JobDemand demand = demand_for(Backend::kOutOfCore, 0.5);
  const Admission verdict = scheduler.decide(demand);
  EXPECT_TRUE(verdict.admit);
  EXPECT_FALSE(verdict.degraded);
  EXPECT_EQ(verdict.backend, Backend::kOutOfCore);
  EXPECT_EQ(verdict.ram_fraction, 0.5);
  EXPECT_EQ(verdict.charged_bytes, demand.desired_bytes());
}

TEST(Scheduler, FittingDemandAdmittedAsRequested) {
  const JobDemand demand = demand_for(Backend::kInRam);
  Scheduler scheduler(2 * demand.desired_bytes());
  const Admission verdict = scheduler.decide(demand);
  EXPECT_TRUE(verdict.admit);
  EXPECT_FALSE(verdict.degraded);
  EXPECT_EQ(verdict.backend, Backend::kInRam);
}

TEST(Scheduler, OversizedDemandDegradesToAvailableBytes) {
  const JobDemand demand = demand_for(Backend::kInRam);
  // Room for more than the floor but less than the full in-RAM store.
  const std::uint64_t budget = demand.minimum_bytes() +
                               (demand.desired_bytes() -
                                demand.minimum_bytes()) / 2;
  Scheduler scheduler(budget);
  const Admission verdict = scheduler.decide(demand);
  EXPECT_TRUE(verdict.admit);
  EXPECT_TRUE(verdict.degraded);
  EXPECT_EQ(verdict.backend, Backend::kOutOfCore);  // inram cannot shrink
  EXPECT_EQ(verdict.ram_fraction, 0.0);
  // The slot budget: the store's write-behind buffers take the rest.
  EXPECT_EQ(verdict.ram_budget_bytes,
            budget - demand.memory.write_behind_bytes());
  EXPECT_LE(verdict.charged_bytes, budget);
}

TEST(Scheduler, WaitsWhileOthersRunThenFloorsWhenAlone) {
  const JobDemand demand = demand_for(Backend::kOutOfCore, 0.9);
  Scheduler scheduler(demand.minimum_bytes());
  scheduler.reserve(demand.minimum_bytes());  // a running peer uses it all
  EXPECT_FALSE(scheduler.decide(demand).admit);

  scheduler.release(demand.minimum_bytes());
  // Alone, waiting would deadlock: admit at the floor and report the charge.
  const Admission verdict = scheduler.decide(demand);
  EXPECT_TRUE(verdict.admit);
  EXPECT_TRUE(verdict.degraded);
  EXPECT_EQ(verdict.charged_bytes, demand.minimum_bytes());
}

TEST(Scheduler, LedgerTracksPeak) {
  Scheduler scheduler(1000);
  scheduler.reserve(400);
  scheduler.reserve(500);
  EXPECT_EQ(scheduler.in_use(), 900u);
  EXPECT_EQ(scheduler.running(), 2u);
  scheduler.release(400);
  scheduler.reserve(100);
  EXPECT_EQ(scheduler.peak_bytes(), 900u);
}

// ----------------------------------------------------------------- Service

TEST(Service, DeterministicAcrossWorkerCounts) {
  // A mixed batch: in-RAM, out-of-core, paged — each job its own seed.
  struct Case {
    std::uint64_t seed;
    Backend backend;
    double fraction;
    std::uint64_t budget;
  };
  const Case cases[] = {
      {21, Backend::kInRam, 0.0, 0},
      {22, Backend::kOutOfCore, 0.3, 0},
      {23, Backend::kOutOfCore, 0.7, 0},
      {24, Backend::kPaged, 0.0, 1 << 20},
      {25, Backend::kInRam, 0.0, 0},
      {26, Backend::kOutOfCore, 0.25, 0},
  };
  std::vector<double> reference;
  for (const Case& c : cases)
    reference.push_back(sequential_log_likelihood(
        make_job(c.seed, c.backend, c.fraction, c.budget)));

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ServiceOptions options;
    options.workers = workers;
    Service service(options);
    std::vector<JobId> ids;
    for (const Case& c : cases)
      ids.push_back(service.submit(
          make_job(c.seed, c.backend, c.fraction, c.budget)));
    const std::vector<JobResult> results = service.drain();
    ASSERT_EQ(results.size(), std::size(cases)) << workers << " workers";
    for (std::size_t j = 0; j < results.size(); ++j) {
      EXPECT_EQ(results[j].id, ids[j]);  // submission order
      EXPECT_EQ(results[j].status, JobStatus::kDone);
      // Bit-identical to the sequential run: the determinism contract.
      EXPECT_EQ(results[j].log_likelihood, reference[j])
          << workers << " workers, job " << j;
    }
  }
}

TEST(Service, TinyBudgetDegradesInsteadOfRejecting) {
  const JobDemand demand = demand_for(Backend::kOutOfCore, 0.9);
  ASSERT_GT(demand.desired_bytes(), demand.minimum_bytes());
  const double reference =
      sequential_log_likelihood(make_job(31, Backend::kOutOfCore, 0.9));

  ServiceOptions options;
  options.workers = 4;
  // Enough for one floor-sized job only: concurrent peers must wait, every
  // admitted job is degraded, and the ledger peak must respect the budget.
  options.ram_budget_bytes = demand.minimum_bytes();
  Service service(options);
  for (int j = 0; j < 6; ++j)
    service.submit(make_job(31, Backend::kOutOfCore, 0.9));
  const std::vector<JobResult> results = service.drain();
  for (const JobResult& result : results) {
    EXPECT_EQ(result.status, JobStatus::kDone);
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.admitted_backend, Backend::kOutOfCore);
    // Degradation changed the slot count, never the likelihood.
    EXPECT_EQ(result.log_likelihood, reference);
  }
  EXPECT_LE(service.peak_charged_bytes(), options.ram_budget_bytes);
}

TEST(Service, CancelRemovesQueuedJobOnly) {
  ServiceOptions options;
  options.workers = 1;
  Service service(options);
  const JobId running = service.submit(make_slow_job(41));
  const JobId queued_a = service.submit(make_job(42, Backend::kInRam));
  const JobId queued_b = service.submit(make_job(43, Backend::kInRam));
  EXPECT_TRUE(service.cancel(queued_b));
  EXPECT_FALSE(service.cancel(queued_b));  // already cancelled
  EXPECT_FALSE(service.cancel(9999));      // never existed in the queue
  const JobResult cancelled = service.wait(queued_b);
  EXPECT_EQ(cancelled.status, JobStatus::kCancelled);
  const std::vector<JobResult> results = service.drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(service.wait(running).status, JobStatus::kDone);
  EXPECT_EQ(service.wait(queued_a).status, JobStatus::kDone);
}

TEST(Service, TrySubmitReportsBackpressure) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Service service(options);
  // The slow job occupies the single queue slot until the worker pops it;
  // retry until that happens (each kFull rejection must leave no trace).
  service.submit(make_slow_job(51));
  std::optional<JobId> queued;
  while (!(queued = service.try_submit(make_job(52, Backend::kInRam))))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The worker is now busy evaluating the slow job; 52 fills the queue.
  const auto rejected = service.try_submit(make_job(53, Backend::kInRam));
  EXPECT_FALSE(rejected.has_value());
  // The rejected submission left no trace: exactly two results.
  EXPECT_EQ(service.drain().size(), 2u);
}

TEST(Service, DrainIsIdempotentAndClosesIntake) {
  ServiceOptions options;
  options.workers = 2;
  Service service(options);
  for (std::uint64_t j = 0; j < 4; ++j)
    service.submit(make_job(60 + j, Backend::kInRam));
  const std::vector<JobResult> first = service.drain();
  ASSERT_EQ(first.size(), 4u);
  for (const JobResult& result : first)
    EXPECT_EQ(result.status, JobStatus::kDone);
  const std::vector<JobResult> second = service.drain();
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t j = 0; j < first.size(); ++j)
    EXPECT_EQ(second[j].id, first[j].id);
  EXPECT_THROW(service.submit(make_job(99, Backend::kInRam)), Error);
}

TEST(Service, InvalidSpecFailsThatJobOnly) {
  ServiceOptions options;
  options.workers = 2;
  Service service(options);
  const JobId good = service.submit(make_job(71, Backend::kInRam));
  // Out-of-core with neither f nor a budget: rejected by validate() inside
  // the worker, surfaced on the job, and the rest of the batch is untouched.
  const JobId bad = service.submit(make_job(72, Backend::kOutOfCore));
  const JobId both = service.submit(
      make_job(73, Backend::kOutOfCore, 0.5, 1 << 20));
  service.drain();
  EXPECT_EQ(service.wait(good).status, JobStatus::kDone);
  const JobResult neither_result = service.wait(bad);
  EXPECT_EQ(neither_result.status, JobStatus::kFailed);
  EXPECT_NE(neither_result.error.find("neither"), std::string::npos);
  const JobResult both_result = service.wait(both);
  EXPECT_EQ(both_result.status, JobStatus::kFailed);
  EXPECT_NE(both_result.error.find("both"), std::string::npos);
}

TEST(Service, MergedStatsSumPerJobCounters) {
  ServiceOptions options;
  options.workers = 2;
  Service service(options);
  for (std::uint64_t j = 0; j < 4; ++j)
    service.submit(make_job(80 + j, Backend::kOutOfCore, 0.3));
  const std::vector<JobResult> results = service.drain();
  OocStats expected;
  for (const JobResult& result : results) expected += result.stats;
  const OocStats merged = service.merged_stats();
  EXPECT_EQ(merged.accesses, expected.accesses);
  EXPECT_EQ(merged.misses, expected.misses);
  EXPECT_GT(merged.accesses, 0u);
  EXPECT_GE(merged.misses, merged.cold_misses);  // the merge invariant
}

TEST(Service, SharedAioEngineAcrossWorkersIsBitIdentical) {
  // The service builds ONE async engine and every worker session adopts it
  // (FileBackendOptions::shared_engine): results must stay bit-identical to
  // the sequential sync-engine runs, whatever worker interleaving the shared
  // submission queue sees.
  const std::uint64_t seeds[] = {131, 132, 133, 134, 135, 136};
  std::vector<double> reference;
  for (const std::uint64_t seed : seeds)
    reference.push_back(sequential_log_likelihood(
        make_job(seed, Backend::kOutOfCore, 0.3)));

  for (const std::size_t workers : {1u, 4u}) {
    ServiceOptions options;
    options.workers = workers;
    options.io_engine = AioEngineKind::kThreads;
    options.io_depth = 8;
    Service service(options);
    std::vector<JobId> ids;
    for (const std::uint64_t seed : seeds)
      ids.push_back(service.submit(make_job(seed, Backend::kOutOfCore, 0.3)));
    const std::vector<JobResult> results = service.drain();
    ASSERT_EQ(results.size(), std::size(seeds)) << workers << " workers";
    for (std::size_t j = 0; j < results.size(); ++j) {
      EXPECT_EQ(results[j].status, JobStatus::kDone);
      EXPECT_EQ(results[j].log_likelihood, reference[j])
          << workers << " workers, job " << j;
    }
  }
}

TEST(Service, RecycledVectorFilesKeepResultsAndStayBounded) {
  // Each ooc job's Session takes a vector file a finished job left idle
  // (docs/storage-layer.md "File lifecycle"): results stay bit-identical to
  // in RAM, and the directory never holds more files than jobs ran at once.
  constexpr int kJobs = 20;
  std::vector<double> reference;
  for (int j = 0; j < kJobs; ++j)
    reference.push_back(
        sequential_log_likelihood(make_job(200 + j, Backend::kInRam)));

  const char* outer = std::getenv("TMPDIR");
  const std::string saved = outer != nullptr ? outer : "";
  std::string pattern = (outer != nullptr && *outer != '\0') ? outer : "/tmp";
  pattern += "/service_XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  ASSERT_NE(::mkdtemp(buffer.data()), nullptr);
  const std::string dir = buffer.data();
  ::setenv("TMPDIR", dir.c_str(), 1);
  std::vector<JobResult> results;
  {
    ServiceOptions options;
    options.workers = 2;
    Service service(options);
    for (int j = 0; j < kJobs; ++j)
      service.submit(make_job(200 + j, Backend::kOutOfCore, 0.25));
    results = service.drain();
  }
  if (outer != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }

  std::vector<std::string> files;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") files.push_back(dir + "/" + name);
    }
    ::closedir(handle);
  }
  EXPECT_LE(files.size(), 2u);
  EXPECT_GE(files.size(), 1u);  // the idle files are recycled, not unlinked
  for (const std::string& file : files) ::unlink(file.c_str());
  ::rmdir(dir.c_str());

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kJobs));
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(results[j].status, JobStatus::kDone) << results[j].error;
    EXPECT_EQ(results[j].log_likelihood, reference[j]) << "job " << j;
  }
}

// ---------------------------------------------------- Fault-injected jobs

/// A job whose fault schedule deterministically defeats the retry budget.
JobSpec make_lethal_job(std::uint64_t seed) {
  JobSpec spec = make_job(seed, Backend::kOutOfCore, 0.3);
  spec.session.faults.seed = seed;
  spec.session.faults.rate = 1.0;
  spec.session.faults.kinds = kFaultEio;
  spec.session.faults.burst = 1u << 20;
  spec.session.io_retry.max_retries = 0;
  spec.session.io_retry.backoff_initial_us = 0;
  return spec;
}

TEST(Service, IoFailureIsTypedAndTheWorkerSurvives) {
  ServiceOptions options;
  options.workers = 1;  // both jobs land on the same worker thread
  Service service(options);
  const JobId doomed = service.submit(make_lethal_job(201));
  const JobId healthy = service.submit(make_job(202, Backend::kInRam));
  service.drain();

  const JobResult failed = service.wait(doomed);
  EXPECT_EQ(failed.status, JobStatus::kFailed);
  EXPECT_TRUE(failed.io_failure);
  EXPECT_EQ(failed.attempts, 1u);
  EXPECT_NE(failed.error.find("[injected]"), std::string::npos)
      << failed.error;
  EXPECT_NE(failed.fault_report.find("injected"), std::string::npos)
      << failed.fault_report;
  EXPECT_GT(failed.stats.io_exhausted, 0u)
      << "the per-job snapshot must survive the unwinding IoError";

  // The worker that just unwound an IoError completes the next job.
  EXPECT_EQ(service.wait(healthy).status, JobStatus::kDone);
}

TEST(Service, ReadmissionRetriesOnceAndReportsBothAttempts) {
  ServiceOptions options;
  options.workers = 1;
  options.readmit_io_failures = true;
  Service service(options);
  const JobId doomed = service.submit(make_lethal_job(211));
  service.drain();

  // rate=1 defeats attempt 2's re-keyed schedule as well: the job must fail
  // typed after exactly two attempts, with both reports preserved.
  const JobResult result = service.wait(doomed);
  EXPECT_EQ(result.status, JobStatus::kFailed);
  EXPECT_TRUE(result.io_failure);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_NE(result.fault_report.find("attempt 1:"), std::string::npos)
      << result.fault_report;
  EXPECT_NE(result.fault_report.find("attempt 2:"), std::string::npos);
}

TEST(Service, ReadmissionEndsInExactlyTwoStates) {
  // A stochastic schedule (eio bursts vs a 4-deep retry budget) makes each
  // attempt a deterministic-per-seed coin toss. With re-admission on, every
  // job must end either kDone with the bit-exact reference likelihood or
  // kFailed+typed after two attempts — nothing else, and never a dead worker.
  const double reference =
      sequential_log_likelihood(make_job(1, Backend::kOutOfCore, 0.3));
  ServiceOptions options;
  options.workers = 2;
  options.readmit_io_failures = true;
  Service service(options);
  std::vector<JobId> ids;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    JobSpec spec = make_job(1, Backend::kOutOfCore, 0.3);
    spec.session.faults.seed = seed * 7919;
    spec.session.faults.rate = 0.7;
    spec.session.faults.kinds = kFaultEio;
    spec.session.faults.burst = 1u << 12;
    spec.session.io_retry.backoff_initial_us = 0;
    ids.push_back(service.submit(std::move(spec)));
  }
  service.drain();

  for (const JobId id : ids) {
    const JobResult result = service.wait(id);
    if (result.status == JobStatus::kDone) {
      EXPECT_EQ(result.log_likelihood, reference);
      EXPECT_FALSE(result.io_failure);
    } else {
      EXPECT_EQ(result.status, JobStatus::kFailed);
      EXPECT_TRUE(result.io_failure);
      EXPECT_EQ(result.attempts, 2u);
      EXPECT_FALSE(result.fault_report.empty());
    }
  }
  // The schedules fired: injected faults are visible in the merged counters.
  EXPECT_GT(service.merged_stats().faults_injected, 0u);
  EXPECT_GT(service.merged_stats().io_retries, 0u);
}

// ----------------------------------------------------------------- Jobfile

TEST(Jobfile, ParsesFieldsAndOptions) {
  std::istringstream in(
      "# comment line\n"
      "\n"
      "a.fasta t.nwk gtr ooc 0.25 seed=7 name=alpha budget=0\n"
      "b.phy - jc paged - format=phylip budget=1048576 categories=2\n");
  const std::vector<JobFileEntry> entries = parse_job_lines(in);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].line, 3u);
  EXPECT_EQ(entries[0].msa_path, "a.fasta");
  EXPECT_EQ(entries[0].backend, "ooc");
  EXPECT_EQ(entries[0].ram_fraction, 0.25);
  EXPECT_EQ(entries[0].seed, 7u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[1].tree_path, "-");
  EXPECT_EQ(entries[1].format, "phylip");
  EXPECT_EQ(entries[1].ram_fraction, 0.0);
  EXPECT_EQ(entries[1].budget_bytes, 1048576u);
  EXPECT_EQ(entries[1].categories, 2u);
}

TEST(Jobfile, RejectsMalformedLinesWithLineNumbers) {
  const auto expect_error = [](const char* text, const char* needle) {
    std::istringstream in(text);
    try {
      parse_job_lines(in);
      FAIL() << "expected Error for: " << text;
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };
  expect_error("a.fasta t.nwk gtr\n", "expected");
  expect_error("a.fasta t.nwk gtr ooc 1.5\n", "(0, 1]");
  expect_error("a.fasta t.nwk gtr warp 0.5\n", "unknown backend");
  expect_error("a.fasta t.nwk gtr tiered 0.5\n",
               "unknown backend 'tiered' (inram | ooc | paged | mmap)");
  expect_error("a.fasta t.nwk gtr ooc 0.5 bogus=1\n", "unknown option");
  expect_error("a.fasta t.nwk gtr ooc 0.5 seed=xyz\n", "bad integer");
  // A policy typo is line-tagged AND spells out the accepted vocabulary.
  expect_error("a.fasta t.nwk gtr ooc 0.5 strategy=mru\n",
               "expected one of: random, lru, lfu, topological");
}

// Counts are parsed without a sign and range-checked before they narrow:
// threads=-1 used to become 2^64 - 1 and then wrap. Parsing only, so no
// kernel thread starts.
TEST(Jobfile, CountsRefuseSignsAndValuesPastTheirRange) {
  for (const char* key : {"threads", "categories", "io-depth", "io-retries"}) {
    for (const char* value : {"-1", "4294967296", "+2", "0x10"}) {
      std::istringstream in(std::string("a.fasta t.nwk gtr ooc 0.5 ") + key +
                            "=" + value + "\n");
      try {
        parse_job_lines(in);
        ADD_FAILURE() << key << "=" << value << " was accepted";
      } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("bad integer value"),
                  std::string::npos)
            << error.what();
      }
    }
  }
  for (const char* key : {"seed", "budget"}) {
    std::istringstream in(std::string("a.fasta t.nwk gtr ooc 0.5 ") + key +
                          "=-1\n");
    EXPECT_THROW(parse_job_lines(in), Error) << key;
  }
  std::istringstream in(
      "a.fasta t.nwk gtr ooc 0.5 threads=4294967295 categories=4294967295 "
      "io-depth=4294967295 io-retries=4294967295 seed=18446744073709551615\n");
  const std::vector<JobFileEntry> entries = parse_job_lines(in);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].threads, 4294967295u);
  EXPECT_EQ(entries[0].categories, 4294967295u);
  EXPECT_EQ(entries[0].io_depth, 4294967295);
  EXPECT_EQ(entries[0].io_retries, 4294967295);
  EXPECT_EQ(entries[0].seed, 18446744073709551615u);
}

TEST(Jobfile, DeadlineKeyParsesAndRejectsNegative) {
  std::istringstream in(
      "a.fasta t.nwk gtr ooc 0.25 deadline=1.5\n"
      "b.fasta t.nwk gtr inram -\n");
  const std::vector<JobFileEntry> entries = parse_job_lines(in);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].deadline_seconds, 1.5);
  EXPECT_EQ(entries[1].deadline_seconds, 0.0);  // default: no deadline

  std::istringstream bad("a.fasta t.nwk gtr ooc 0.25 deadline=-1\n");
  try {
    parse_job_lines(bad);
    FAIL() << "negative deadline accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find(">= 0"), std::string::npos)
        << error.what();
  }
}

TEST(Jobfile, PolicyNamesAreCaseInsensitive) {
  std::istringstream in("a.fasta t.nwk gtr ooc 0.25 strategy=LRU\n");
  const std::vector<JobFileEntry> entries = parse_job_lines(in);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(parse_policy(entries[0].strategy), ReplacementPolicy::kLru);
}

// ------------------------------------------------------------ FairJobQueue

FairJobQueue::Pending tenant_pending(JobId id, const std::string& tenant) {
  FairJobQueue::Pending job = pending(id);
  job.spec.tenant = tenant;
  return job;
}

TEST(FairJobQueue, DeficitRoundRobinFollowsWeights) {
  TenantRegistry registry;
  registry.set_policy("heavy", {.weight = 2});
  registry.set_policy("light", {.weight = 1});
  FairJobQueue queue(16, registry);
  // heavy: ids 1-4, light: ids 11-12, arrival interleaved.
  queue.try_push(tenant_pending(1, "heavy"));
  queue.try_push(tenant_pending(11, "light"));
  queue.try_push(tenant_pending(2, "heavy"));
  queue.try_push(tenant_pending(12, "light"));
  queue.try_push(tenant_pending(3, "heavy"));
  queue.try_push(tenant_pending(4, "heavy"));
  // heavy entered the round first and spends a 2-credit deficit before the
  // round rotates; light gets 1; then heavy again.
  std::vector<JobId> order;
  while (queue.size() > 0) order.push_back(queue.pop()->id);
  EXPECT_EQ(order, (std::vector<JobId>{1, 2, 11, 3, 4, 12}));
}

TEST(FairJobQueue, NonEmptyTenantNamesScheduleImmediately) {
  // Regression: enqueue once held a reference to the job's tenant string
  // across the move into the per-tenant FIFO, so named tenants joined the
  // round under the moved-from (empty) name and were never dequeued.
  TenantRegistry registry;
  FairJobQueue queue(4, registry);
  ASSERT_EQ(queue.try_push(tenant_pending(7, "acme")), PushResult::kAccepted);
  const auto job = queue.pop();  // deadlocked before the fix
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, 7u);
  EXPECT_EQ(job->spec.tenant, "acme");
}

TEST(FairJobQueue, InFlightQuotaBlocksUntilJobFinished) {
  TenantRegistry registry;
  registry.set_policy("a", {.weight = 1, .max_in_flight = 1});
  FairJobQueue queue(8, registry);
  queue.try_push(tenant_pending(1, "a"));
  queue.try_push(tenant_pending(2, "a"));
  ASSERT_EQ(queue.pop()->id, 1u);  // "a" now at its quota
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    const auto job = queue.pop();  // blocks until job 1 finishes
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->id, 2u);
    popped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped);  // quota held the second job back
  queue.job_finished("a");
  consumer.join();
  EXPECT_TRUE(popped);
}

TEST(FairJobQueue, QuotaBlockedTenantDoesNotStarveOthers) {
  TenantRegistry registry;
  registry.set_policy("a", {.weight = 5, .max_in_flight = 1});
  FairJobQueue queue(8, registry);
  queue.try_push(tenant_pending(1, "a"));
  queue.try_push(tenant_pending(2, "a"));
  queue.try_push(tenant_pending(3, "b"));
  ASSERT_EQ(queue.pop()->id, 1u);
  // "a" is quota-blocked; the round must rotate past it to "b".
  ASSERT_EQ(queue.pop()->id, 3u);
}

TEST(FairJobQueue, FlushReturnsQueuedJobsPerTenantAndCloses) {
  TenantRegistry registry;
  FairJobQueue queue(8, registry);
  queue.try_push(tenant_pending(1, "a"));
  queue.try_push(tenant_pending(2, "a"));
  queue.try_push(tenant_pending(3, "b"));
  const FairJobQueue::FlushReport report = queue.flush();
  EXPECT_EQ(report.jobs.size(), 3u);
  EXPECT_EQ(report.per_tenant.at("a"), 2u);
  EXPECT_EQ(report.per_tenant.at("b"), 1u);
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.try_push(tenant_pending(4, "a")), PushResult::kClosed);
  EXPECT_FALSE(queue.pop().has_value());
}

// --------------------------------------------------------- Service tenants

JobSpec tenant_job(std::uint64_t seed, const std::string& tenant) {
  JobSpec spec = make_job(seed, Backend::kInRam);
  spec.tenant = tenant;
  return spec;
}

TEST(Service, DrainFlushQueuedCancelsPerTenant) {
  ServiceOptions options;
  options.workers = 1;
  Service service(options);
  // The worker picks up the slow job and parks in its first check point
  // until the flush has made everything behind it terminal, so the backlog
  // cannot reach the worker however fast the job runs.
  JobSpec slow = make_slow_job(5);
  slow.tenant = "running";
  CancelToken hold = CancelToken::make();
  hold.set_hold_at(1);
  slow.session.cancel = hold;
  const JobId running = service.submit(std::move(slow));
  // Don't flush until the worker has actually popped the slow job, or the
  // flush would cancel it while still queued.
  hold.wait_until_held();
  std::vector<JobId> queued;
  for (std::uint64_t i = 0; i < 3; ++i)
    queued.push_back(service.submit(tenant_job(20 + i, "waiting")));
  std::thread releaser([&] {
    for (const JobId id : queued) service.wait(id);
    hold.release_hold();
  });
  const DrainReport report = service.drain(DrainMode::kFlushQueued);
  releaser.join();
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.per_tenant.at("running").completed, 1u);
  EXPECT_EQ(report.per_tenant.at("waiting").cancelled, 3u);
  for (const JobResult& result : report.results) {
    if (result.id == running) {
      EXPECT_EQ(result.status, JobStatus::kDone);
    } else {
      EXPECT_EQ(result.status, JobStatus::kCancelled);
    }
  }
  // Flushed jobs are terminal and waitable, not lost.
  EXPECT_EQ(service.wait(queued[0]).status, JobStatus::kCancelled);
}

TEST(Service, DrainCompleteRunsEverythingPerTenant) {
  ServiceOptions options;
  options.workers = 2;
  Service service(options);
  for (std::uint64_t i = 0; i < 2; ++i)
    service.submit(tenant_job(30 + i, "a"));
  service.submit(tenant_job(40, "b"));
  const DrainReport report = service.drain(DrainMode::kComplete);
  EXPECT_EQ(report.per_tenant.at("a").completed, 2u);
  EXPECT_EQ(report.per_tenant.at("b").completed, 1u);
  EXPECT_EQ(report.per_tenant.at("a").cancelled, 0u);
}

TEST(Service, TenantStatsCountCacheHitsAcrossTenants) {
  ServiceOptions options;
  options.workers = 1;
  options.result_cache_entries = 16;
  Service service(options);
  // Same spec, two tenants: the second evaluation is a cache hit credited
  // to the submitting tenant.
  const JobResult first = service.wait(service.submit(tenant_job(9, "a")));
  const JobResult second = service.wait(service.submit(tenant_job(9, "b")));
  ASSERT_EQ(first.status, JobStatus::kDone);
  ASSERT_EQ(second.status, JobStatus::kDone);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  // Bit-identical: the hit replays the leader's published value.
  EXPECT_EQ(second.log_likelihood, first.log_likelihood);
  const auto stats = service.tenant_stats();
  EXPECT_EQ(stats.at("a").completed, 1u);
  EXPECT_EQ(stats.at("a").cache_hits, 0u);
  EXPECT_EQ(stats.at("b").cache_hits, 1u);
  const CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.lookups, 2u);
  EXPECT_EQ(cache.hits + cache.misses, cache.lookups);
  service.drain();
}

/// Every on_complete call, with the thread it ran on.
struct CompletionLog {
  std::mutex mutex;
  std::vector<std::pair<JobResult, std::thread::id>> calls;

  std::function<void(const JobResult&)> hook() {
    return [this](const JobResult& result) {
      std::lock_guard<std::mutex> lock(mutex);
      calls.emplace_back(result, std::this_thread::get_id());
    };
  }
  std::optional<std::pair<JobResult, std::thread::id>> find(JobId id) {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& call : calls)
      if (call.first.id == id) return call;
    return std::nullopt;
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex);
    return calls.size();
  }
};

TEST(Service, ReadyHitFinishesBeforeTrySubmitReturns) {
  CompletionLog log;
  ServiceOptions options;
  options.workers = 1;
  options.result_cache_entries = 16;
  options.on_complete = log.hook();
  Service service(options);
  const JobResult first = service.wait(service.submit(make_job(5, Backend::kInRam)));
  ASSERT_EQ(first.status, JobStatus::kDone);

  const std::optional<JobId> id =
      service.try_submit(make_job(5, Backend::kInRam));
  ASSERT_TRUE(id.has_value());
  // Finished inside try_submit, on this thread, without queueing.
  const auto call = log.find(*id);
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->second, std::this_thread::get_id());
  const JobResult& hit = call->first;
  EXPECT_EQ(hit.status, JobStatus::kDone);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.queue_seconds, 0.0);
  EXPECT_EQ(hit.log_likelihood, first.log_likelihood);
  EXPECT_EQ(hit.name, "job-" + std::to_string(*id));
  const JobResult waited = service.wait(*id);
  EXPECT_EQ(waited.status, JobStatus::kDone);
  EXPECT_TRUE(waited.cache_hit);
  const CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.lookups, 2u);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(service.drain().size(), 2u);
}

TEST(Service, ReadyHitIsAnsweredWhileTheQueueIsFull) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.result_cache_entries = 16;
  Service service(options);
  const JobResult first = service.wait(service.submit(make_job(6, Backend::kInRam)));
  ASSERT_EQ(first.status, JobStatus::kDone);

  // Park the only worker inside a job, then fill the one queue slot.
  JobSpec slow = make_slow_job(7);
  CancelToken hold = CancelToken::make();
  hold.set_hold_at(1);
  slow.session.cancel = hold;
  service.submit(std::move(slow));
  hold.wait_until_held();
  ASSERT_TRUE(service.try_submit(make_job(8, Backend::kInRam)).has_value());
  EXPECT_FALSE(service.try_submit(make_job(9, Backend::kInRam)).has_value());

  const std::optional<JobId> hit =
      service.try_submit(make_job(6, Backend::kInRam));
  ASSERT_TRUE(hit.has_value()) << "a ready hit needs no queue slot";
  const JobResult result = service.wait(*hit);
  EXPECT_EQ(result.status, JobStatus::kDone);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.log_likelihood, first.log_likelihood);
  EXPECT_EQ(service.queued_jobs(), 1u);
  hold.release_hold();
  EXPECT_EQ(service.drain().size(), 4u);
}

TEST(Service, ReadyHitAfterDrainIsRefused) {
  ServiceOptions options;
  options.workers = 1;
  options.result_cache_entries = 16;
  Service service(options);
  ASSERT_EQ(service.wait(service.submit(make_job(10, Backend::kInRam))).status,
            JobStatus::kDone);
  ASSERT_EQ(service.drain().size(), 1u);
  EXPECT_THROW(service.submit(make_job(10, Backend::kInRam)), Error);
  EXPECT_THROW(service.try_submit(make_job(10, Backend::kInRam)), Error);
  // Refused before the probe: no hit was counted.
  EXPECT_EQ(service.cache_stats().hits, 0u);
  EXPECT_EQ(service.drain().size(), 1u);
}

TEST(Service, KeyInFlightAtSubmitCoalescesAtTheWorker) {
  ServiceOptions options;
  options.workers = 2;
  options.result_cache_entries = 16;
  Service service(options);
  // The leader misses at the worker and parks inside its evaluation.
  JobSpec leader_spec = make_slow_job(12);
  CancelToken hold = CancelToken::make();
  hold.set_hold_at(1);
  leader_spec.session.cancel = hold;
  const JobId leader = service.submit(std::move(leader_spec));
  hold.wait_until_held();

  // Same key, in flight at submit: no ready entry, so the job is queued and
  // the second worker pops it and blocks in lookup(). Give it ample time to
  // get there before the leader publishes.
  const JobId follower = service.submit(make_slow_job(12));
  EXPECT_EQ(service.cache_stats().lookups, 1u);
  while (service.queued_jobs() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  hold.release_hold();

  const JobResult led = service.wait(leader);
  const JobResult followed = service.wait(follower);
  ASSERT_EQ(led.status, JobStatus::kDone);
  ASSERT_EQ(followed.status, JobStatus::kDone);
  EXPECT_FALSE(led.cache_hit);
  EXPECT_TRUE(followed.cache_hit);
  EXPECT_EQ(followed.log_likelihood, led.log_likelihood);
  const CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.lookups, 2u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.coalesced, 1u);
  service.drain();
}

TEST(Service, StatsHoldAcrossHitsAtSubmitAndAtTheWorker) {
  CompletionLog log;
  ServiceOptions options;
  options.workers = 2;
  options.result_cache_entries = 16;
  options.on_complete = log.hook();
  Service service(options);
  const char* tenants[] = {"a", "b"};
  // Round 1: each spec twice back to back, so a duplicate is answered at
  // the worker (plain or coalesced hit) or at submit, as timing falls.
  // Round 2, after round 1 finished: every job is a ready hit at submit.
  std::vector<JobId> ids;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    for (int copy = 0; copy < 2; ++copy)
      ids.push_back(service.submit(tenant_job(seed, tenants[copy])));
  for (const JobId id : ids) ASSERT_EQ(service.wait(id).status, JobStatus::kDone);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const JobId id = service.submit(tenant_job(seed, tenants[seed % 2]));
    ids.push_back(id);
    const auto call = log.find(id);
    ASSERT_TRUE(call.has_value()) << "round 2 hit was not answered at submit";
    EXPECT_EQ(call->first.queue_seconds, 0.0);
  }
  service.drain();

  const CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.lookups, ids.size());
  EXPECT_EQ(cache.misses, 3u);
  EXPECT_EQ(cache.hits, ids.size() - 3);
  EXPECT_EQ(cache.inserts, 3u);
  EXPECT_EQ(log.size(), ids.size());
  std::uint64_t cache_hits = 0;
  std::uint64_t completed = 0;
  for (const auto& [tenant, stats] : service.tenant_stats()) {
    EXPECT_EQ(stats.submitted, stats.completed) << tenant;
    cache_hits += stats.cache_hits;
    completed += stats.completed;
  }
  EXPECT_EQ(completed, ids.size());
  EXPECT_EQ(cache_hits, cache.hits);
}

TEST(Service, TinyRamShareStillMakesProgress) {
  ServiceOptions options;
  options.workers = 2;
  options.ram_budget_bytes = 64 << 20;
  options.tenants["cramped"] = {.weight = 1,
                                .max_in_flight = 0,
                                .ram_share_bytes = 1};  // below any one job
  Service service(options);
  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 3; ++i)
    ids.push_back(service.submit(tenant_job(50 + i, "cramped")));
  for (const JobId id : ids)
    EXPECT_EQ(service.wait(id).status, JobStatus::kDone);
  service.drain();
}

TEST(Jobfile, SharedVocabularyMatchesDriver) {
  EXPECT_EQ(parse_backend_name("paged"), Backend::kPaged);
  for (const Backend backend : {Backend::kInRam, Backend::kOutOfCore,
                                Backend::kPaged, Backend::kMmap})
    EXPECT_EQ(parse_backend_name(backend_name(backend)), backend)
        << backend_name(backend);
  EXPECT_EQ(parse_data_type_name("protein"), DataType::kProtein);
  EXPECT_THROW(parse_backend_name("x"), Error);
  EXPECT_THROW(parse_data_type_name("x"), Error);
  PlannedDataset data = small_dataset();
  EXPECT_EQ(build_named_model("jc", 2.0, data.alignment).name,
            std::string("JC69"));
  EXPECT_THROW(build_named_model("x", 2.0, data.alignment), Error);
}

// A spec over a SharedAlignment carries a pointer, not rows, and is
// otherwise the spec make_job_spec builds from an owned alignment: the same
// model, admission demand, cache key and logL. In-process callers keep
// building owned specs.
TEST(Jobfile, SharedSpecMatchesTheOwnedSpec) {
  PlannedDataset data = small_dataset(9);
  JobFileEntry entry;
  entry.model = "gtr";
  entry.backend = "ooc";
  entry.ram_fraction = 0.5;
  const std::shared_ptr<const SharedAlignment> shared =
      share_alignment(data.alignment);
  EXPECT_EQ(shared->frequencies, data.alignment.empirical_frequencies());
  EXPECT_EQ(shared->patterns.num_sites(),
            compress_patterns(data.alignment).compressed.num_sites());

  JobSpec owned = make_job_spec(entry, data.alignment, data.tree);
  JobSpec borrowed = make_job_spec(entry, shared, data.tree);
  EXPECT_EQ(borrowed.alignment.num_taxa(), 0u);
  EXPECT_EQ(&borrowed.input_alignment(), &shared->alignment);
  EXPECT_EQ(borrowed.model.frequencies, owned.model.frequencies);
  const JobDemand owned_demand = JobDemand::from_spec(owned);
  const JobDemand borrowed_demand = JobDemand::from_spec(borrowed);
  EXPECT_EQ(borrowed_demand.memory.num_taxa, owned_demand.memory.num_taxa);
  EXPECT_EQ(borrowed_demand.memory.num_sites, owned_demand.memory.num_sites);
  EXPECT_EQ(borrowed_demand.desired_bytes(), owned_demand.desired_bytes());
  EXPECT_THROW(make_job_spec(entry, shared, small_dataset(9, 12).tree),
               Error);

  ServiceOptions options;
  options.result_cache_entries = 8;
  Service service(options);
  const JobResult first = service.wait(service.submit(std::move(owned)));
  const JobResult second = service.wait(service.submit(std::move(borrowed)));
  ASSERT_EQ(first.status, JobStatus::kDone) << first.error;
  ASSERT_EQ(second.status, JobStatus::kDone) << second.error;
  EXPECT_TRUE(second.cache_hit) << "the shared spec keyed differently";
  EXPECT_EQ(second.log_likelihood, first.log_likelihood);

  // Uncached, the shared spec evaluates its pattern alignment to the same
  // bits as the owned spec's Session compression.
  Service uncached(ServiceOptions{});
  const JobResult plain = uncached.wait(
      uncached.submit(make_job_spec(entry, data.alignment, data.tree)));
  const JobResult fresh = uncached.wait(
      uncached.submit(make_job_spec(entry, shared, data.tree)));
  ASSERT_EQ(fresh.status, JobStatus::kDone) << fresh.error;
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.log_likelihood, plain.log_likelihood);
}

}  // namespace
}  // namespace plfoc
