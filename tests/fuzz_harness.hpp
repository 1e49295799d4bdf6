// Shared harness for the differential equivalence fuzzers.
//
// A fuzz trial draws a random dataset (tree + simulated alignment), a random
// model configuration, and a random traversal workload from one trial seed,
// then evaluates the identical workload on a set of backend candidates. The
// oracle is the paper's Sec. 4.1 criterion: every backend — any replacement
// strategy, any read-skip setting, with or without an injected fault schedule
// whose burst cap fits the retry budget — must produce log likelihoods
// BIT-IDENTICAL to the InRamStore reference.
//
// Everything is derived deterministically from (master seed, trial index), so
// any failure is reproduced by re-running with the printed master seed:
//   PLFOC_FUZZ_MASTER=<seed> PLFOC_FUZZ_TRIALS=<n> ./plfoc_fault_tests
#pragma once

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace fuzz {

/// Reads a positive integer override from the environment (CI knobs).
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0) ? parsed : fallback;
}

/// The random workload shared verbatim by every candidate of one trial.
struct TrialPlan {
  DatasetPlan dataset;
  double kappa = 2.0;
  int model_choice = 0;    ///< 0 = jc, 1 = k80, 2 = benchmark GTR
  unsigned categories = 4;
  double alpha = 1.0;
  int traversals = 2;      ///< extra full traversals after the first eval
  std::uint64_t fault_seed = 1;
  double fault_rate = 0.05;
  /// Corruption axis (armed on every third trial): per-mode rates for the
  /// integrity fuzzer, layered on top of the syscall-fault schedule.
  double flip_rate = 0.0;
  double torn_rate = 0.0;
  double zero_rate = 0.0;
  double stale_rate = 0.0;

  bool corrupting() const {
    return flip_rate > 0.0 || torn_rate > 0.0 || zero_rate > 0.0 ||
           stale_rate > 0.0;
  }

  std::string describe() const {
    std::ostringstream out;
    out << "taxa=" << dataset.num_taxa << " sites=" << dataset.num_sites
        << " data-seed=" << dataset.seed << " model="
        << (model_choice == 0 ? "jc" : model_choice == 1 ? "k80" : "gtr")
        << " categories=" << categories << " alpha=" << alpha
        << " traversals=" << traversals << " fault-seed=" << fault_seed
        << " fault-rate=" << fault_rate;
    if (corrupting())
      out << " flip=" << flip_rate << " torn=" << torn_rate
          << " zero=" << zero_rate << " stale=" << stale_rate;
    return out.str();
  }
};

/// Derive one trial's workload from (master, trial). Datasets stay small —
/// the fuzzer's power is in the number of (trial x candidate) combinations,
/// not in any single dataset's size.
inline TrialPlan make_trial_plan(std::uint64_t master, std::uint64_t trial) {
  Rng rng(master * 0x9e3779b97f4a7c15ull + trial + 1);
  TrialPlan plan;
  plan.dataset.num_taxa = 6 + static_cast<std::size_t>(rng.below(11));  // 6..16
  plan.dataset.num_sites = 40 + static_cast<std::size_t>(rng.below(81));
  // Every fourth trial draws a multi-block alignment (> kPatternBlock
  // patterns even after compression) so the thread-count candidates exercise
  // the block-parallel reduction itself, not just its single-block
  // degenerate case.
  if (trial % 4 == 0)
    plan.dataset.num_sites = 600 + static_cast<std::size_t>(rng.below(201));
  plan.dataset.seed = rng.next();
  plan.dataset.alpha = 0.5 + rng.uniform() * 1.5;
  plan.kappa = 1.5 + rng.uniform() * 3.0;
  plan.model_choice = static_cast<int>(rng.below(3));
  plan.categories = 2 + static_cast<unsigned>(rng.below(3));  // 2..4
  plan.alpha = 0.4 + rng.uniform() * 1.2;
  plan.traversals = 1 + static_cast<int>(rng.below(3));  // 1..3
  plan.fault_seed = rng.next() | 1;
  plan.fault_rate = 0.02 + rng.uniform() * 0.08;  // <= 0.1, ISSUE ceiling
  // Every third trial arms the corruption axis. The draws happen last, so
  // arming them changes nothing about the other trials' plans, and the rates
  // land in the repro line via describe().
  if (trial % 3 == 0) {
    plan.flip_rate = 0.01 + rng.uniform() * 0.04;
    plan.torn_rate = 0.01 + rng.uniform() * 0.03;
    plan.zero_rate = rng.uniform() * 0.02;
    plan.stale_rate = rng.uniform() * 0.02;
  }
  return plan;
}

inline SubstitutionModel trial_model(const TrialPlan& plan) {
  if (plan.model_choice == 0) return jc69();
  if (plan.model_choice == 1) return k80(plan.kappa);
  return benchmark_gtr();
}

/// A fault schedule whose burst cap (2) fits inside the default retry budget
/// (4): every transfer completes, so results stay bit-identical.
inline FaultConfig trial_faults(const TrialPlan& plan) {
  FaultConfig faults;
  faults.seed = plan.fault_seed;
  faults.rate = plan.fault_rate;
  faults.burst = 2;
  return faults;
}

/// The trial's fault schedule plus its corruption rates (write-back torn /
/// stale, swap-in flip / zero — docs/robustness.md). Recoverable corruption
/// must keep the logL series bit-identical through the self-healing
/// recomputation; unrecoverable corruption must surface as IntegrityError.
inline FaultConfig trial_corrupting_faults(const TrialPlan& plan) {
  FaultConfig faults = trial_faults(plan);
  faults.flip_rate = plan.flip_rate;
  faults.torn_rate = plan.torn_rate;
  faults.zero_rate = plan.zero_rate;
  faults.stale_rate = plan.stale_rate;
  return faults;
}

/// Evaluate the trial's workload under the given storage options and return
/// the log-likelihood sequence (first evaluation + each extra traversal).
/// Bitwise equality of these vectors across candidates is the oracle. When
/// `stats_out` is given it receives the store's final counter snapshot.
inline std::vector<double> run_candidate(const TrialPlan& plan,
                                         SessionOptions options,
                                         OocStats* stats_out = nullptr) {
  PlannedDataset data = make_dna_dataset(plan.dataset);
  options.categories = plan.categories;
  options.alpha = plan.alpha;
  // Speed over backoff inside tests: injected transients retry immediately.
  options.io_retry.backoff_initial_us = 0;
  Session session(std::move(data.alignment), std::move(data.tree),
                  trial_model(plan), std::move(options));
  std::vector<double> series;
  series.reserve(1 + static_cast<std::size_t>(plan.traversals));
  series.push_back(session.engine().log_likelihood());
  for (int t = 0; t < plan.traversals; ++t)
    series.push_back(session.engine().full_traversal_log_likelihood());
  if (stats_out != nullptr) *stats_out = session.store().stats_snapshot();
  return series;
}

/// One backend configuration entered into the differential comparison.
struct Candidate {
  std::string label;
  SessionOptions options;
};

/// The full candidate roster for one trial: every replacement policy x
/// read-skip setting for the out-of-core store (fault schedule on every
/// other combination, kernel threads rotating through 1/2/4, io-engine
/// rotating through sync / thread-pool / deterministic-permuted), the paged
/// store under faults, the mmap backend (no syscall path, no faults),
/// and explicitly multithreaded configurations. 13 candidates per trial,
/// every one compared bitwise against the single-threaded in-RAM
/// reference — the thread axis extends the Sec. 4.1 equivalence guarantee to
/// the block-parallel kernels, and the engine axis extends it to
/// batched/overlapped submission with arbitrary completion delivery order
/// (docs/async-io.md). Every label carries the engine choice, so a
/// repro-seed failure message pins it down.
inline std::vector<Candidate> make_candidates(const TrialPlan& plan) {
  std::vector<Candidate> candidates;
  const FaultConfig faults = trial_faults(plan);

  const ReplacementPolicy policies[] = {
      ReplacementPolicy::kRandom, ReplacementPolicy::kLru,
      ReplacementPolicy::kLfu, ReplacementPolicy::kTopological};
  const char* policy_names[] = {"random", "lru", "lfu", "topological"};
  // Rotating with period 3 against the period-2 skip/fault alternation, so
  // every policy gets at least one multithreaded combination.
  const unsigned thread_axis[] = {1, 2, 4};
  // The engine axis steps by 2 mod 3 while the thread axis steps by 1, so
  // the (threads, engine) pairing shifts every combo instead of locking the
  // two rotations together.
  const AioEngineKind engine_axis[] = {AioEngineKind::kSync,
                                       AioEngineKind::kThreads,
                                       AioEngineKind::kDeterministic};
  const char* engine_names[] = {"sync", "threads", "det"};
  int combo = 0;
  for (int p = 0; p < 4; ++p) {
    for (const bool skip : {true, false}) {
      Candidate candidate;
      candidate.options.backend = Backend::kOutOfCore;
      candidate.options.ram_fraction = 0.35;  // few slots, heavy eviction
      candidate.options.policy = policies[p];
      candidate.options.read_skipping = skip;
      candidate.options.seed = plan.dataset.seed;
      candidate.options.threads = thread_axis[combo % 3];
      const int engine = (combo * 2) % 3;
      candidate.options.io_engine = engine_axis[engine];
      if (engine_axis[engine] == AioEngineKind::kDeterministic)
        candidate.options.io_permute_seed =
            plan.fault_seed + static_cast<std::uint64_t>(combo);
      const bool faulty = (combo++ % 2) == 0;
      if (faulty) candidate.options.faults = faults;
      // Cherries are dropped by default; one candidate per policy keeps the
      // paper's write-back path. The parity of p + skip crosses the
      // skip/fault alternation, so both paths run under faults and on all
      // three engines (ooc_mt below adds the threads engine to the drops).
      const bool paper_io = (p + (skip ? 0 : 1)) % 2 == 1;
      candidate.options.recompute_cherries = !paper_io;
      candidate.label = std::string("ooc/") + policy_names[p] +
                        (skip ? "/skip" : "/noskip") +
                        (faulty ? "/faults" : "");
      if (candidate.options.threads > 1)
        candidate.label += "/t" + std::to_string(candidate.options.threads);
      candidate.label += std::string("/eng-") + engine_names[engine];
      if (paper_io) candidate.label += "/paper-io";
      candidates.push_back(std::move(candidate));
    }
  }

  Candidate paged;
  paged.options.backend = Backend::kPaged;
  paged.options.ram_budget_bytes = 1u << 18;  // 64 pages: real paging churn
  paged.options.faults = faults;
  paged.label = "paged/faults";
  candidates.push_back(std::move(paged));

  Candidate mmapped;
  mmapped.options.backend = Backend::kMmap;
  mmapped.label = "mmap";
  candidates.push_back(std::move(mmapped));

  // Explicit thread-count candidates: the parallel path on the reference's
  // own backend, and 4-thread runs through the eviction-heavy stores.
  Candidate inram_mt;
  inram_mt.options.backend = Backend::kInRam;
  inram_mt.options.threads = 4;
  inram_mt.label = "inram/t4";
  candidates.push_back(std::move(inram_mt));

  Candidate ooc_mt;
  ooc_mt.options.backend = Backend::kOutOfCore;
  ooc_mt.options.ram_fraction = 0.35;
  ooc_mt.options.policy = ReplacementPolicy::kLru;
  ooc_mt.options.seed = plan.dataset.seed;
  ooc_mt.options.faults = faults;
  ooc_mt.options.threads = 4;
  ooc_mt.options.io_engine = AioEngineKind::kThreads;
  ooc_mt.label = "ooc/lru/skip/faults/t4/eng-threads";
  candidates.push_back(std::move(ooc_mt));

  Candidate paged_mt;
  paged_mt.options.backend = Backend::kPaged;
  paged_mt.options.ram_budget_bytes = 1u << 18;
  paged_mt.options.faults = faults;
  paged_mt.options.threads = 4;
  paged_mt.label = "paged/faults/t4";
  candidates.push_back(std::move(paged_mt));

  return candidates;
}

}  // namespace fuzz
}  // namespace plfoc
