// Cooperative cancellation and deadlines (util/cancel.hpp + the plumbing
// through Session, the stores, the engine, and the Service):
//  * token semantics — null tokens are free, first trip reason wins, the
//    deterministic trip_at hook fires on the progress counter, the hold
//    hook parks one check() until released;
//  * a cancelled-mid-evaluation Session unwinds as typed CancelledError,
//    leaves the store consistent, and re-evaluates bit-identically after
//    the token is replaced (the acceptance contract for PR "end-to-end
//    deadlines & cooperative cancellation");
//  * Service-level deadline drops at pop, overload shedding, the
//    cancel-vs-pop race, watchdog reason plumbing, and drain(kFlushQueued)
//    racing a mid-evaluation unwind.
// Rides in plfoc_service_tests (`ctest -L service`) so the sanitizer
// matrix — TSan above all — covers every path.
#include "util/cancel.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ooc/audit.hpp"
#include "ooc/mmap_store.hpp"
#include "service/service.hpp"
#include "sim/dataset_planner.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

PlannedDataset cancel_dataset(std::uint64_t seed = 5) {
  DatasetPlan plan;
  plan.num_taxa = 16;
  plan.num_sites = 80;
  plan.seed = seed;
  return make_dna_dataset(plan);
}

SessionOptions ooc_options(double fraction = 0.3) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = fraction;
  options.threads = 1;  // serial: check() count is deterministic
  return options;
}

double inram_reference(std::uint64_t seed = 5) {
  PlannedDataset data = cancel_dataset(seed);
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), SessionOptions{});
  return session.evaluate().log_likelihood;
}

JobSpec service_job(std::uint64_t seed, Backend backend,
                    double fraction = 0.0) {
  PlannedDataset data = cancel_dataset(seed);
  JobSpec spec{"", std::move(data.alignment), std::move(data.tree),
               benchmark_gtr(), SessionOptions{}, ""};
  spec.session.backend = backend;
  spec.session.ram_fraction = fraction;
  spec.session.seed = seed;
  return spec;
}

/// A spec slow enough (tens of ms) that a cancel issued right after the
/// worker pops it lands mid-evaluation, not after completion.
JobSpec slow_service_job(std::uint64_t seed) {
  DatasetPlan plan;
  plan.num_taxa = 48;
  plan.num_sites = 600;
  plan.seed = seed;
  PlannedDataset data = make_dna_dataset(plan);
  JobSpec spec{"", std::move(data.alignment), std::move(data.tree),
               benchmark_gtr(), SessionOptions{}, ""};
  spec.session.backend = Backend::kOutOfCore;
  spec.session.ram_fraction = 0.1;
  spec.session.seed = seed;
  return spec;
}

// ------------------------------------------------------------ CancelToken

TEST(CancelToken, NullTokenIsInertEverywhere) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.cancelled_or_expired());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_EQ(token.progress(), 0u);
  token.cancel();                     // no-op, no crash
  EXPECT_NO_THROW(token.check());     // the free fast path
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, FirstTripReasonWins) {
  CancelToken token = CancelToken::make();
  token.cancel(CancelReason::kWatchdog);
  token.cancel(CancelReason::kExplicit);  // too late: reason already set
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kWatchdog);
  try {
    token.check();
    FAIL() << "check() must throw on a tripped token";
  } catch (const CancelledError& error) {
    EXPECT_EQ(error.reason(), CancelReason::kWatchdog);
    EXPECT_NE(std::string(error.what()).find("watchdog"), std::string::npos);
  }
}

TEST(CancelToken, ExpiredDeadlineTripsAsDeadline) {
  CancelToken token = CancelToken::with_deadline(0.0);
  EXPECT_TRUE(token.expired());
  EXPECT_FALSE(token.cancelled());  // not tripped until observed
  EXPECT_TRUE(token.cancelled_or_expired());  // advisory observation trips
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_THROW(token.check(), CancelledError);
}

TEST(CancelToken, FutureDeadlineDoesNotFire) {
  CancelToken token = CancelToken::with_deadline(3600.0);
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.cancelled_or_expired());
  EXPECT_NO_THROW(token.check());
}

TEST(CancelToken, TripAtFiresOnTheProgressCounter) {
  CancelToken token = CancelToken::make();
  token.set_trip_at(3);
  EXPECT_NO_THROW(token.check());  // progress 1
  EXPECT_NO_THROW(token.check());  // progress 2
  EXPECT_THROW(token.check(), CancelledError);  // progress 3: trips
  EXPECT_EQ(token.progress(), 3u);
  EXPECT_EQ(token.reason(), CancelReason::kExplicit);
}

TEST(CancelToken, TripAtCarriesTheRequestedReason) {
  CancelToken token = CancelToken::make();
  token.set_trip_at(2, CancelReason::kDeadline);
  EXPECT_NO_THROW(token.check());
  try {
    token.check();
    FAIL() << "trip_at did not fire";
  } catch (const CancelledError& error) {
    EXPECT_EQ(error.reason(), CancelReason::kDeadline);
  }
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, HoldParksTheCheckThatReachesTheCountUntilReleased) {
  CancelToken token = CancelToken::make();
  token.set_hold_at(3);
  std::atomic<int> passed{0};
  bool threw = false;
  std::thread worker([&] {
    try {
      for (int i = 0; i < 5; ++i) {
        token.check();
        passed.fetch_add(1);
      }
    } catch (const CancelledError&) {
      threw = true;
    }
  });
  token.wait_until_held();
  // Parked inside check 3: two checks returned, the third has not.
  EXPECT_EQ(token.progress(), 3u);
  EXPECT_EQ(passed.load(), 2);
  // A cancel that lands while parked surfaces as soon as the hold lifts.
  token.cancel();
  token.release_hold();
  worker.join();
  EXPECT_TRUE(threw);
  EXPECT_EQ(passed.load(), 2);
}

TEST(CancelToken, HoldReleasedBeforeItIsReachedNeverParks) {
  CancelToken token = CancelToken::make();
  token.set_hold_at(2);
  token.release_hold();
  for (int i = 0; i < 4; ++i) EXPECT_NO_THROW(token.check());
  token.wait_until_held();  // returns at once: already released
  EXPECT_EQ(token.progress(), 4u);
}

TEST(CancelToken, SharedStateAcrossCopies) {
  CancelToken token = CancelToken::make();
  CancelToken copy = token;
  copy.cancel();
  EXPECT_TRUE(token.cancelled());
}

// -------------------------------------------------------- Session unwind

TEST(SessionCancel, TripSweepUnwindsCleanAndReevaluatesBitIdentical) {
  // The acceptance contract, hammered across trip points that land in
  // different phases of the traversal: the cancelled evaluation throws the
  // typed error, the store's counters still satisfy every StoreAuditor
  // identity, and — after replacing the tripped token — the SAME session
  // re-evaluates to the bit-identical in-RAM reference (the steps the
  // unwind invalidated are recomputed, nothing half-done survives).
  const double reference = inram_reference();
  for (const std::uint64_t trip : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull,
                                   21ull, 34ull, 55ull, 89ull}) {
    SCOPED_TRACE("trip_at=" + std::to_string(trip));
    CancelToken token = CancelToken::make();
    token.set_trip_at(trip);
    SessionOptions options = ooc_options();
    options.cancel = token;
    PlannedDataset data = cancel_dataset();
    Session session(std::move(data.alignment), std::move(data.tree),
                    benchmark_gtr(), std::move(options));
    bool cancelled = false;
    try {
      const double done = session.evaluate().log_likelihood;
      // trip_at beyond the evaluation's total check count: completes.
      EXPECT_EQ(done, reference);
    } catch (const CancelledError& error) {
      cancelled = true;
      EXPECT_EQ(error.reason(), CancelReason::kExplicit);
    }
    if (trip == 1) {
      EXPECT_TRUE(cancelled) << "first check must trip";
    }
    StoreAuditor auditor(1, 1);
    const auto violation = auditor.check_stats(session.stats());
    EXPECT_FALSE(violation.has_value()) << *violation;
    // A tripped token cannot be un-tripped: swap in a null one and rerun.
    session.set_cancel_token(CancelToken());
    EXPECT_EQ(session.evaluate().log_likelihood, reference);
  }
}

TEST(SessionCancel, ExpiredDeadlineUnwindsAsDeadlineReason) {
  SessionOptions options = ooc_options();
  options.cancel = CancelToken::with_deadline(0.0);
  PlannedDataset data = cancel_dataset();
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), std::move(options));
  try {
    session.evaluate();
    FAIL() << "an already-expired deadline must trip the first check";
  } catch (const CancelledError& error) {
    EXPECT_EQ(error.reason(), CancelReason::kDeadline);
  }
  session.set_cancel_token(CancelToken());
  EXPECT_EQ(session.evaluate().log_likelihood, inram_reference());
}

TEST(SessionCancel, ThreadedKernelPoolUnwindsAndRecovers) {
  // threads > 1: the trip lands inside the kernel pool's block claims; the
  // unwind must cross the pool back to the calling thread and leave both
  // the pool and the store reusable.
  const double reference = inram_reference();
  for (const std::uint64_t trip : {5ull, 40ull}) {
    SCOPED_TRACE("trip_at=" + std::to_string(trip));
    CancelToken token = CancelToken::make();
    token.set_trip_at(trip);
    SessionOptions options = ooc_options();
    options.threads = 4;
    options.cancel = token;
    PlannedDataset data = cancel_dataset();
    Session session(std::move(data.alignment), std::move(data.tree),
                    benchmark_gtr(), std::move(options));
    try {
      EXPECT_EQ(session.evaluate().log_likelihood, reference);
    } catch (const CancelledError&) {
    }
    session.set_cancel_token(CancelToken());
    EXPECT_EQ(session.evaluate().log_likelihood, reference);
  }
}

TEST(SessionCancel, PagedBackendUnwindsToo) {
  CancelToken token = CancelToken::make();
  token.set_trip_at(4);
  SessionOptions options;
  options.backend = Backend::kPaged;
  options.ram_budget_bytes = 1 << 18;
  options.cancel = token;
  PlannedDataset data = cancel_dataset();
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), std::move(options));
  EXPECT_THROW(session.evaluate(), CancelledError);
  session.set_cancel_token(CancelToken());
  EXPECT_EQ(session.evaluate().log_likelihood, inram_reference());
}

// A trip inside a recomputation. The store calls the engine's
// recover_vector both to heal a corrupt record and to rebuild a dropped
// cherry; a CancelledError raised inside must reach the caller as itself,
// with the install undone, never as an IntegrityError or an abort.

/// Inner vectors that are on disk but not resident after a full traversal,
/// split by whether their children (towards the evaluation root) are all
/// tips.
struct NonResident {
  std::vector<std::uint32_t> cherries;
  std::vector<std::uint32_t> with_inner_child;
};

NonResident non_resident_vectors(Session& session) {
  NonResident out;
  Tree& tree = session.tree();
  for (std::uint32_t index = 0; index < tree.num_inner(); ++index) {
    if (session.out_of_core()->is_resident(index)) continue;
    const NodeId node = tree.inner_node(index);
    const NodeId toward = session.engine().orientation().towards(node);
    bool inner_child = false;
    for (NodeId nbr : tree.neighbors(node))
      if (nbr != toward && tree.is_inner(nbr)) inner_child = true;
    (inner_child ? out.with_inner_child : out.cherries).push_back(index);
  }
  return out;
}

void expect_store_identities(Session& session) {
  StoreAuditor auditor(1, 1);
  const auto violation = auditor.check_stats(session.store().stats_snapshot());
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(SessionCancel, TripInsideAnIntegrityHealIsNotAnIntegrityFailure) {
  const double reference = inram_reference();
  SessionOptions options = ooc_options();
  options.vector_file = temp_vector_file_path("cancel-heal");
  PlannedDataset data = cancel_dataset();
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  session.engine().full_traversal_log_likelihood();
  const NonResident candidates = non_resident_vectors(session);
  ASSERT_FALSE(candidates.with_inner_child.empty());
  const std::uint32_t victim = candidates.with_inner_child.front();

  // Damage the victim's record in place (single stripe: 4 KiB header, a
  // 16-byte table entry per record, payload from the next 4 KiB boundary).
  const std::size_t count = session.tree().num_inner();
  const std::uint64_t record_bytes = session.vector_width() * sizeof(double);
  const std::uint64_t payload = (4096 + 16 * count + 4095) / 4096 * 4096;
  const int fd = ::open(options.vector_file.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const char garbage[8] = {'c', 'a', 'n', 'c', 'e', 'l', '!', '!'};
  ASSERT_EQ(::pwrite(fd, garbage, sizeof garbage,
                     static_cast<off_t>(payload + victim * record_bytes)),
            static_cast<ssize_t>(sizeof garbage));
  ::close(fd);

  // The acquire's own check passes; the heal's first child acquire trips.
  CancelToken token = CancelToken::make();
  session.set_cancel_token(token);
  token.set_trip_at(token.progress() + 2);
  EXPECT_THROW(
      { VectorLease lease = session.store().acquire(victim, AccessMode::kRead); },
      CancelledError);
  EXPECT_FALSE(session.out_of_core()->is_resident(victim));
  EXPECT_EQ(session.stats().integrity_failures, 0u);
  expect_store_identities(session);

  // With a fresh token the same heal completes and nothing diverged.
  session.set_cancel_token(CancelToken());
  { VectorLease lease = session.store().acquire(victim, AccessMode::kRead); }
  EXPECT_EQ(session.stats().integrity_recoveries, 1u);
  EXPECT_EQ(session.engine().log_likelihood(), reference);
  expect_store_identities(session);
}

TEST(SessionCancel, TripInsideACherryRebuildUnwindsClean) {
  // Enough patterns for several kernel blocks: the pool checks the token
  // per block, inside the rebuild's tip–tip newview.
  DatasetPlan plan;
  plan.num_taxa = 16;
  plan.num_sites = 700;
  plan.seed = 5;
  PlannedDataset data = make_dna_dataset(plan);
  SessionOptions inram;
  inram.compress_patterns = false;
  Session in_ram(data.alignment, data.tree, benchmark_gtr(), inram);
  const double reference = in_ram.engine().log_likelihood();

  SessionOptions options = ooc_options();
  options.compress_patterns = false;
  options.threads = 4;
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  session.engine().full_traversal_log_likelihood();
  ASSERT_GT(session.stats().write_backs_avoided, 0u);
  const NonResident candidates = non_resident_vectors(session);
  ASSERT_FALSE(candidates.cherries.empty());
  const std::uint32_t cherry = candidates.cherries.front();
  const OocStats before = session.store().stats_snapshot();

  CancelToken token = CancelToken::make();
  session.set_cancel_token(token);
  token.set_trip_at(token.progress() + 2);
  EXPECT_THROW(
      { VectorLease lease = session.store().acquire(cherry, AccessMode::kRead); },
      CancelledError);
  EXPECT_FALSE(session.out_of_core()->is_resident(cherry));
  EXPECT_EQ(session.stats().recomputes, before.recomputes);
  EXPECT_EQ(session.stats().integrity_failures, 0u);
  expect_store_identities(session);

  // Still dropped: the next read rebuilds it rather than reading the file.
  session.set_cancel_token(CancelToken());
  { VectorLease lease = session.store().acquire(cherry, AccessMode::kRead); }
  EXPECT_EQ(session.stats().recomputes, before.recomputes + 1);
  EXPECT_EQ(session.stats().file_reads, before.file_reads);
  EXPECT_EQ(session.engine().log_likelihood(), reference);
  expect_store_identities(session);
}

TEST(SessionCancel, TripInsideAnMmapHealIsNotAnIntegrityFailure) {
  const double reference = inram_reference();
  SessionOptions options = ooc_options();
  options.backend = Backend::kMmap;
  options.vector_file = temp_vector_file_path("cancel-mmap-heal");
  PlannedDataset data = cancel_dataset();
  Session session(std::move(data.alignment), std::move(data.tree),
                  benchmark_gtr(), options);
  session.engine().full_traversal_log_likelihood();
  auto& store = dynamic_cast<MmapStore&>(session.store());

  // A vector whose heal acquires an inner child first.
  Tree& tree = session.tree();
  const auto has_inner_child = [&](std::uint32_t index) {
    const NodeId node = tree.inner_node(index);
    const NodeId toward = session.engine().orientation().towards(node);
    for (NodeId nbr : tree.neighbors(node))
      if (nbr != toward && tree.is_inner(nbr)) return true;
    return false;
  };
  std::uint32_t victim = 0;
  while (victim < tree.num_inner() && !has_inner_child(victim)) ++victim;
  ASSERT_LT(victim, tree.num_inner());

  // Damage the record on the device (the mapping is the whole file), then
  // push the span out of the page cache so the next read re-verifies.
  const std::uint64_t record_bytes = session.vector_width() * sizeof(double);
  const int fd = ::open(options.vector_file.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const char garbage[8] = {'c', 'a', 'n', 'c', 'e', 'l', '!', '!'};
  ASSERT_EQ(::pwrite(fd, garbage, sizeof garbage,
                     static_cast<off_t>(victim * record_bytes)),
            static_cast<ssize_t>(sizeof garbage));
  ::fsync(fd);
  ::close(fd);
  for (int i = 0; i < 3 && store.span_resident(victim); ++i)
    store.drop_residency(victim);
  if (store.span_resident(victim))
    GTEST_SKIP() << "kernel kept the span resident; eviction is best-effort";

  // The acquire's own check passes; the heal's first child acquire trips.
  CancelToken token = CancelToken::make();
  session.set_cancel_token(token);
  token.set_trip_at(token.progress() + 2);
  EXPECT_THROW(
      { VectorLease lease = session.store().acquire(victim, AccessMode::kRead); },
      CancelledError);
  EXPECT_EQ(session.stats().integrity_failures, 0u);
  // The store dropped the span again, so the next read re-verifies it.
  if (store.span_resident(victim))
    GTEST_SKIP() << "kernel kept the span resident; eviction is best-effort";

  session.set_cancel_token(CancelToken());
  { VectorLease lease = session.store().acquire(victim, AccessMode::kRead); }
  EXPECT_EQ(session.stats().integrity_failures, 1u);
  EXPECT_EQ(session.stats().integrity_recoveries, 1u);
  EXPECT_EQ(session.engine().log_likelihood(), reference);
}

// ------------------------------------------------------ Service plumbing

TEST(ServiceCancel, DeadlineExpiredWhileQueuedDropsAtPop) {
  // Deadlines so short they expire before the worker can pop: every job is
  // dropped at pop with the typed status — no Session ever built — and
  // on_complete fires for each.
  std::atomic<int> completions{0};
  ServiceOptions options;
  options.workers = 1;
  options.on_complete = [&](const JobResult&) { ++completions; };
  Service service(options);
  std::vector<JobId> ids;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    JobSpec spec = service_job(seed, Backend::kInRam);
    spec.deadline_seconds = 1e-9;
    ids.push_back(service.submit(std::move(spec)));
  }
  for (const JobId id : ids) {
    const JobResult result = service.wait(id);
    EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
    EXPECT_EQ(result.cancel_reason, CancelReason::kDeadline);
    EXPECT_NE(result.error.find("deadline"), std::string::npos);
    EXPECT_EQ(result.log_likelihood, 0.0);  // never evaluated
  }
  service.drain();
  EXPECT_EQ(completions.load(), 3);
  const auto tenants = service.tenant_stats();
  EXPECT_EQ(tenants.at("").expired, 3u);
}

TEST(ServiceCancel, ShedQueueBudgetRejectsEverythingWhenTiny) {
  // A shed budget below any realistic pop latency: deterministic full shed.
  ServiceOptions options;
  options.workers = 1;
  options.shed_queue_seconds = 1e-9;
  Service service(options);
  std::vector<JobId> ids;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    ids.push_back(service.submit(service_job(seed, Backend::kInRam)));
  for (const JobId id : ids) {
    const JobResult result = service.wait(id);
    EXPECT_EQ(result.status, JobStatus::kOverloaded);
    EXPECT_EQ(result.cancel_reason, CancelReason::kNone);  // not a trip
    EXPECT_NE(result.error.find("overload"), std::string::npos);
  }
  service.drain();
  EXPECT_EQ(service.tenant_stats().at("").shed, 3u);
}

TEST(ServiceCancel, DeterministicMidEvaluationCancelThenCleanRerun) {
  // trip_at through the service: the job's own token trips at a fixed
  // check count mid-evaluation, the worker reports the typed status with
  // identity-clean stats, and resubmitting the identical spec (fresh
  // token) evaluates bit-identically to the in-RAM reference.
  const double reference = inram_reference(7);
  ServiceOptions options;
  options.workers = 1;
  Service service(options);

  JobSpec doomed = service_job(7, Backend::kOutOfCore, 0.3);
  doomed.session.cancel = CancelToken::make();
  doomed.session.cancel.set_trip_at(12);
  const JobId cancelled_id = service.submit(std::move(doomed));
  const JobResult cancelled = service.wait(cancelled_id);
  EXPECT_EQ(cancelled.status, JobStatus::kCancelled);
  EXPECT_EQ(cancelled.cancel_reason, CancelReason::kExplicit);
  EXPECT_NE(cancelled.error.find("cancelled"), std::string::npos);
  StoreAuditor auditor(1, 1);
  const auto violation = auditor.check_stats(cancelled.stats);
  EXPECT_FALSE(violation.has_value()) << *violation;

  const JobId clean_id =
      service.submit(service_job(7, Backend::kOutOfCore, 0.3));
  const JobResult clean = service.wait(clean_id);
  EXPECT_EQ(clean.status, JobStatus::kDone);
  EXPECT_EQ(clean.log_likelihood, reference);
  service.drain();
}

TEST(ServiceCancel, CancelRacingTheWorkerPopNeverReturnsFalseForLiveJobs) {
  // The regression this PR closes: cancel() used to return false when the
  // worker had already popped the job (not in the queue, not terminal).
  // Now that window trips the token instead. Race it repeatedly: cancel()
  // must return true whenever the job was not yet terminal, and the result
  // must read kCancelled or (when the finish line won) kDone.
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ServiceOptions options;
    options.workers = 1;
    Service service(options);
    const JobId id = service.submit(slow_service_job(100 + round));
    // Wait for the pop — the historical false-return window.
    while (service.queued_jobs() != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    const bool accepted = service.cancel(id);
    const JobResult result = service.wait(id);
    if (result.status == JobStatus::kCancelled) {
      EXPECT_TRUE(accepted);
      EXPECT_EQ(result.cancel_reason, CancelReason::kExplicit);
      StoreAuditor auditor(1, 1);
      const auto violation = auditor.check_stats(result.stats);
      EXPECT_FALSE(violation.has_value()) << *violation;
    } else {
      // The evaluation crossed the finish line first: kDone is the
      // documented best-effort outcome, and cancel() may have returned
      // either way depending on which side of terminal it observed.
      EXPECT_EQ(result.status, JobStatus::kDone);
    }
    service.drain();
  }
}

TEST(ServiceCancel, WatchdogReasonPlumbsThroughTheUnwind) {
  // Trip a running job's token with kWatchdog at check point 5, once the
  // evaluation is under way (the deterministic stand-in for a frozen
  // progress counter; cancelling from the test thread after polling
  // progress would race the worker, which can finish first), and check the
  // reason survives to the JobResult.
  ServiceOptions options;
  options.workers = 1;
  Service service(options);
  JobSpec spec = slow_service_job(11);
  CancelToken token = CancelToken::make();
  token.set_trip_at(5, CancelReason::kWatchdog);
  spec.session.cancel = token;
  const JobId id = service.submit(std::move(spec));
  const JobResult result = service.wait(id);
  ASSERT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(result.cancel_reason, CancelReason::kWatchdog);
  EXPECT_NE(result.error.find("watchdog"), std::string::npos);
  service.drain();
}

TEST(ServiceCancel, WatchdogDoesNotKillJobsThatMakeProgress) {
  // A generous stall budget and live jobs: zero false positives even under
  // sanitizer slowdowns, because every check() bumps progress.
  ServiceOptions options;
  options.workers = 2;
  options.watchdog_stall_seconds = 30.0;
  Service service(options);
  std::vector<JobId> ids;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    ids.push_back(service.submit(service_job(seed, Backend::kOutOfCore, 0.3)));
  for (const JobId id : ids)
    EXPECT_EQ(service.wait(id).status, JobStatus::kDone);
  service.drain();
}

TEST(ServiceCancel, DrainFlushQueuedWhileACancelledJobUnwinds) {
  // drain(kFlushQueued) racing a mid-evaluation cancel: the running job
  // unwinds as kCancelled (or finishes kDone), the queued backlog flushes
  // as kCancelled, the report's per-tenant counts cover every job, and the
  // cancelled job's stats stay identity-clean.
  ServiceOptions options;
  options.workers = 1;
  Service service(options);
  JobSpec running = slow_service_job(21);
  CancelToken token = CancelToken::make();
  // Park the worker at check point 5, mid-evaluation, until the flush has
  // made the backlog terminal: a free worker could otherwise run a queued
  // job before the flush sees it.
  token.set_hold_at(5);
  running.session.cancel = token;
  const JobId running_id = service.submit(std::move(running));
  token.wait_until_held();
  std::vector<JobId> queued;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    queued.push_back(service.submit(service_job(seed, Backend::kInRam)));
  token.cancel(CancelReason::kExplicit);
  std::thread releaser([&] {
    for (const JobId id : queued) service.wait(id);
    token.release_hold();
  });
  const DrainReport report = service.drain(DrainMode::kFlushQueued);
  releaser.join();
  ASSERT_EQ(report.results.size(), 4u);

  const JobResult head = service.wait(running_id);
  EXPECT_TRUE(head.status == JobStatus::kCancelled ||
              head.status == JobStatus::kDone);
  if (head.status == JobStatus::kCancelled) {
    StoreAuditor auditor(1, 1);
    const auto violation = auditor.check_stats(head.stats);
    EXPECT_FALSE(violation.has_value()) << *violation;
  }
  for (const JobId id : queued)
    EXPECT_EQ(service.wait(id).status, JobStatus::kCancelled);
  std::uint64_t accounted = 0;
  for (const auto& [tenant, counts] : report.per_tenant)
    accounted += counts.completed + counts.failed + counts.cancelled +
                 counts.expired + counts.shed;
  EXPECT_EQ(accounted, report.results.size());
  EXPECT_EQ(report.unsent_frames, 0u);  // in-process drains have no outbox
}

TEST(ServiceCancel, DeadlineMidEvaluationReportsDeadlineExceeded) {
  // Trip kDeadline at check point 5, i.e. once the evaluation is under way
  // (the deterministic stand-in for a deadline elapsing mid-run; arming a
  // wall-clock deadline from the test thread would race the worker, which
  // can finish first). The unwind must surface as kDeadlineExceeded — not
  // plain kCancelled.
  ServiceOptions options;
  options.workers = 1;
  Service service(options);
  JobSpec spec = slow_service_job(31);
  CancelToken token = CancelToken::make();
  token.set_trip_at(5, CancelReason::kDeadline);
  spec.session.cancel = token;
  const JobId id = service.submit(std::move(spec));
  const JobResult result = service.wait(id);
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(result.cancel_reason, CancelReason::kDeadline);
  EXPECT_NE(result.error.find("deadline"), std::string::npos);
  service.drain();
}

}  // namespace
}  // namespace plfoc
