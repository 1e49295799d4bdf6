// serve-zipf: the serving tier end to end — an in-process Server on
// loopback (2 workers, a 1024-entry result cache, 4 equal tenants, a
// 4096-deep queue) driven by one client with a sender and a receiver thread
// over 4 connections, one per tenant. Each job evaluates a server-side
// 128 x 1000 DNA FASTA on a Phylo2Vec tree, out-of-core at f = 0.25. 70%
// of a phase's jobs repeat a tree, so most jobs take the hit path (wire,
// FASTA parse on the event thread, cache) and the misses build a Session
// and evaluate. This is the only workload through net, service and cache,
// and the only one that builds a Session per job.
//
// Each phase runs on a fresh server with a cold cache. The end-to-end run
// is two closed loops with 16 jobs outstanding: their median latency and
// their capacity. The traced run adds two open-loop phases at fixed rates,
// about 10% and 55% of the capacity measured on a 4-core host (~270
// jobs/s), for the per-layer view; open-loop jobs are timed from their
// scheduled send time, so a stalled sender cannot hide queueing. The
// end-to-end latency is not taken from an open loop because, near idle,
// every job waits for threads on idle vCPUs to wake, and on a shared host
// those wake-ups slowed by up to 2x for minutes at a time while arithmetic
// barely slowed: the 25 jobs/s median spread by 13-33% across runs of one
// commit even after host-speed scaling, against 5-11% for a closed loop's.
//
// Every phase pauses at its start, about once a second and at its end. At
// a pause the sender waits until every job sent so far is answered, then,
// with the server idle, times the reference work on every CPU (the phase's
// times are scaled by the mean of these timings, see host_speed.hpp) and a
// few server starts, so that both are measured all through the run. It then
// resumes, shifting the rest of an open-loop schedule by the pause. The
// pause work is left out of a phase's wall time; the drain, being the
// server's work, is not.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.hpp"
#include "msa/fasta.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/jobfile.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/phylo2vec.hpp"
#include "tree/random_tree.hpp"
#include "trace.hpp"

namespace plfoc::e2e {
namespace {

constexpr std::size_t kTenants = 4;  // one connection each
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCacheEntries = 1024;
constexpr std::size_t kQueueDepth = 4096;
constexpr std::size_t kClosedOutstanding = 16;
// Host-speed pauses: every this many closed-loop jobs (about a second at
// capacity), and at every whole second of an open-loop schedule.
constexpr std::size_t kClosedChunkJobs = 256;
constexpr double kOpenChunkSeconds = 1.0;
// Fixed offered loads (jobs/s) of the traced run's open-loop phases.
constexpr double kLowRate = 25.0;
constexpr double kHighRate = 150.0;
// 70% of a phase's jobs repeat a tree already requested in that phase, in
// Zipf(1.1) proportions.
constexpr double kZipfExponent = 1.1;
const char* const kTenantNames[kTenants] = {"ants", "bees", "crows", "deer"};

struct Job {
  std::size_t tree = 0;        ///< pool index
  std::size_t connection = 0;  ///< = tenant
  double scheduled = 0.0;      ///< open loop: due time; closed loop: send time
  double sent = 0.0;
  double received = 0.0;
  bool answered = false;
  bool done = false;  ///< kDone result (not an error response)
  bool cache_hit = false;
  std::uint64_t logl_bits = 0;
  double queue_s = 0.0;
  double wall_s = 0.0;
};

struct PhaseResult {
  std::vector<Job> jobs;
  double wall_s = 0.0;  ///< first send to last answer, pause work left out
  CacheStats cache;
  std::vector<double> reference_s;  ///< reference work timed at the pauses
};

struct ServeInput {
  std::string fasta_path;
  std::vector<std::string> taxa;  ///< sorted; shared by every pool tree
  std::vector<Phylo2Vec> pool;    ///< encodings with `taxa` left empty
  std::uint64_t taxa_digest = 0;
};

SubmitRequest make_request(const ServeInput& input, const Job& job,
                           std::uint64_t id) {
  SubmitRequest request;
  request.request_id = id;
  request.tenant = kTenantNames[job.connection];
  request.name = "z" + std::to_string(id);
  request.msa_path = input.fasta_path;
  request.model = "gtr";
  request.backend = "ooc";
  request.ram_fraction = 0.25;
  request.strategy = "lru";
  request.tree_kind = WireTreeKind::kPhylo2Vec;
  const Phylo2Vec& tree = input.pool[job.tree];
  request.tree_v = tree.v;
  request.tree_lengths = tree.lengths;
  request.taxa_digest = input.taxa_digest;
  return request;
}

/// The server a phase runs against, ready to serve: started, with every
/// client connection open and answering a ping.
struct LiveServer {
  std::unique_ptr<Server> server;
  std::vector<Socket> sockets;
  std::vector<FrameDecoder> decoders;
};

Frame read_frame(Socket& socket, FrameDecoder& decoder) {
  std::uint8_t chunk[4096];
  for (;;) {
    if (std::optional<Frame> frame = decoder.next()) return *std::move(frame);
    const std::size_t n = socket.recv_some(chunk, sizeof chunk);
    PLFOC_REQUIRE(n > 0, "connection closed by server");
    decoder.append(chunk, n);
  }
}

LiveServer start_server() {
  ServerOptions options = loopback_server_options(kWorkers, kQueueDepth);
  options.service.result_cache_entries = kCacheEntries;
  for (const char* tenant : kTenantNames)
    options.service.tenants[tenant] = TenantPolicy{};
  LiveServer live;
  live.server = std::make_unique<Server>(std::move(options));
  live.server->start();
  const std::vector<std::uint8_t> ping = encode_ping();
  for (std::size_t k = 0; k < kTenants; ++k) {
    live.sockets.push_back(
        Socket::connect_to("127.0.0.1", live.server->port()));
    live.decoders.emplace_back();
    live.sockets[k].send_all(ping.data(), ping.size());
    const Frame pong = read_frame(live.sockets[k], live.decoders[k]);
    PLFOC_REQUIRE(pong.type == MessageType::kPong, "expected a pong");
  }
  return live;
}

/// The work done at every pause of a phase, with the server idle: time the
/// reference work on every CPU, then a few starts of another server, each
/// also scaled by that timing.
struct PauseWork {
  std::vector<double> setup_s;
  std::vector<double> scaled_setup_s;

  /// Returns the reference timing.
  double run() {
    const double reference = reference_seconds_all_cpus();
    for (int i = 0; i < 3; ++i) {
      const double start = now_seconds();
      LiveServer live = start_server();
      setup_s.push_back(now_seconds() - start);
      scaled_setup_s.push_back(setup_s.back() *
                               nominal_seconds(Reference::kCompute) / reference);
      live.sockets.clear();
      live.server->stop();
    }
    return reference;
  }
};

/// Tree picks for one phase: `jobs` requests over the first `distinct`
/// pool trees, stationary in time. Job i asks for a new tree whenever fewer
/// than (i + 1)·distinct/jobs trees have been asked for, so the first
/// requests (the misses) are spread evenly over the phase. Every other job
/// repeats a tree already asked for, drawn in Zipf proportions by the order
/// the trees first came. The hit rate is then 1 - distinct/jobs all
/// through the phase, on every seed. Drawn as a shuffled fixed profile, the
/// first requests bunched at the start of a phase instead: its first
/// second's median latency was 30 ms against 5 ms after, and longer on a
/// slow host.
std::vector<std::size_t> phase_picks(std::size_t jobs, std::size_t distinct,
                                     Rng& rng) {
  std::vector<std::size_t> picks;
  std::vector<double> cumulative;  // Zipf weights of the trees so far
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::size_t due = ((i + 1) * distinct + jobs - 1) / jobs;
    if (cumulative.size() < due) {
      const double weight = 1.0 / std::pow(
          static_cast<double>(cumulative.size() + 1), kZipfExponent);
      picks.push_back(cumulative.size());
      cumulative.push_back(
          (cumulative.empty() ? 0.0 : cumulative.back()) + weight);
      continue;
    }
    const double u = rng.uniform() * cumulative.back();
    const auto k = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    picks.push_back(std::min(k, cumulative.size() - 1));
  }
  return picks;
}

/// A phase's jobs: `count` requests spread round-robin over the tenants.
/// With a positive `duration` they arrive open-loop at a fixed rate, evenly
/// spaced over the duration; otherwise they are sent closed-loop.
std::vector<Job> plan_phase(std::size_t count, double duration, Rng& rng) {
  const std::vector<std::size_t> picks =
      phase_picks(count, std::max<std::size_t>(1, count * 3 / 10), rng);
  std::vector<Job> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i].tree = picks[i];
    jobs[i].connection = i % kTenants;
    jobs[i].scheduled =
        duration * static_cast<double>(i) / static_cast<double>(count);
  }
  return jobs;
}

/// Run one planned phase on a fresh server. Open loop (`closed` false):
/// each job is sent at its scheduled time and timed from it, so a stalled
/// sender cannot hide queueing. Closed loop: a job is sent whenever fewer
/// than kClosedOutstanding are unanswered, timed from its send. `pause`
/// runs before the first job, at each chunk boundary, once the sender has
/// drained the server, and after the last answer. The open-loop schedule
/// after a pause moves by its length, and job times are relative to the
/// shifted schedule.
PhaseResult run_phase(const ServeInput& input, std::vector<Job> plan,
                      bool closed, PauseWork& pause) {
  PhaseResult result;
  LiveServer live = start_server();

  // Every frame is encoded before the clock starts, so the sender only
  // sleeps and sends.
  std::vector<Job>& jobs = result.jobs;
  jobs = std::move(plan);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    frames.push_back(encode_submit_request(make_request(input, jobs[i], i + 1)));
  const double duration = jobs.empty() ? 0.0 : jobs.back().scheduled;
  // Fixed before the schedule starts moving: which jobs open a chunk.
  const auto chunk_of = [&](std::size_t i) {
    return closed ? static_cast<double>(i / kClosedChunkJobs)
                  : std::floor(jobs[i].scheduled / kOpenChunkSeconds);
  };
  std::vector<bool> starts_chunk(jobs.size(), false);
  for (std::size_t i = 1; i < jobs.size(); ++i)
    starts_chunk[i] = chunk_of(i) != chunk_of(i - 1);
  // Sender only: how far the pauses moved the open-loop schedule, and the
  // time spent on pause work.
  double shift = 0.0;
  double pause_work = 0.0;
  result.reference_s.push_back(pause.run());

  std::mutex mutex;
  std::condition_variable answered_cv;
  std::size_t sent = 0;       // guarded by mutex
  std::size_t answered = 0;   // guarded by mutex
  bool sender_done = false;   // guarded by mutex
  std::atomic<bool> receiver_failed{false};  // set under mutex
  const double origin = now_seconds() + 0.01;

  const auto receive = [&] {
    std::vector<pollfd> fds(kTenants);
    for (std::size_t k = 0; k < kTenants; ++k)
      fds[k] = {live.sockets[k].fd(), POLLIN, 0};
    std::uint8_t chunk[65536];
    // Give up well past the window if answers stop coming (the pauses
    // take a few milliseconds each).
    const double give_up = origin + 2.0 * duration + 60.0;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (sender_done && answered == sent) return;
      }
      PLFOC_REQUIRE(now_seconds() < give_up, "answers stopped coming");
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t k = 0; k < kTenants; ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const std::size_t n = live.sockets[k].recv_some(chunk, sizeof chunk);
        PLFOC_REQUIRE(n > 0, "connection closed by server");
        const double now = now_seconds();
        live.decoders[k].append(chunk, n);
        while (std::optional<Frame> frame = live.decoders[k].next()) {
          std::uint64_t id = 0;
          std::optional<ResultResponse> response;
          if (frame->type == MessageType::kResultResponse) {
            response = decode_result_response(*frame);
            id = response->request_id;
          } else if (frame->type == MessageType::kErrorResponse) {
            id = decode_error_response(*frame).request_id;
          } else {
            continue;
          }
          if (id == 0 || id > jobs.size()) continue;
          Job& job = jobs[id - 1];
          job.answered = true;
          job.received = now;
          if (response) {
            job.done = response->status ==
                       static_cast<std::uint8_t>(JobStatus::kDone);
            job.cache_hit = (response->flags & kResultCacheHit) != 0;
            job.logl_bits = response->logl_bits;
            job.queue_s = response->queue_seconds;
            job.wall_s = response->wall_seconds;
          }
          std::lock_guard<std::mutex> lock(mutex);
          ++answered;
          answered_cv.notify_all();
        }
      }
    }
  };
  std::thread receiver([&] {
    try {
      receive();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "plfoc_bench: receive failed: %s\n", error.what());
      std::lock_guard<std::mutex> lock(mutex);
      receiver_failed = true;
      answered_cv.notify_all();
    }
  });

  // Sender (this thread).
  try {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Job& job = jobs[i];
      if (starts_chunk[i]) {
        const double pause_start = now_seconds();
        {
          std::unique_lock<std::mutex> lock(mutex);
          answered_cv.wait(lock,
                           [&] { return answered == sent || receiver_failed; });
        }
        if (receiver_failed) break;
        const double work_start = now_seconds();
        result.reference_s.push_back(pause.run());
        const double pause_end = now_seconds();
        pause_work += pause_end - work_start;
        shift += pause_end - pause_start;
      }
      if (closed) {
        std::unique_lock<std::mutex> lock(mutex);
        answered_cv.wait(lock, [&] {
          return sent - answered < kClosedOutstanding || receiver_failed;
        });
        if (receiver_failed) break;
        job.scheduled = now_seconds() - origin;
      } else {
        job.scheduled += shift;
        const double wait = origin + job.scheduled - now_seconds();
        if (wait > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (receiver_failed) break;
      }
      const std::vector<std::uint8_t>& frame = frames[i];
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++sent;
      }
      job.sent = now_seconds() - origin;
      live.sockets[job.connection].send_all(frame.data(), frame.size());
    }
  } catch (const Error& error) {
    std::fprintf(stderr, "plfoc_bench: send failed: %s\n", error.what());
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    sender_done = true;
  }
  receiver.join();
  jobs.resize(sent);
  for (Job& job : jobs) {
    if (job.answered) job.received -= origin;
  }
  double last = 0.0;
  for (const Job& job : jobs) last = std::max(last, job.received);
  result.wall_s = last - (jobs.empty() ? 0.0 : jobs.front().sent) - pause_work;
  result.cache = live.server->service().cache_stats();
  result.reference_s.push_back(pause.run());
  live.sockets.clear();
  live.server->stop();
  return result;
}

/// Fill `reference` (pool index -> logL bits) by evaluating each tree in
/// process, in RAM, with the spec the server builds for a submit. Spread
/// over a few threads: this runs after timing and only bounds run length.
void compute_references(const ServeInput& input,
                        std::map<std::size_t, std::uint64_t>& reference) {
  JobFileEntry entry;
  entry.msa_path = input.fasta_path;
  entry.tree_path = "-";
  entry.model = "gtr";
  entry.backend = "inram";
  const Alignment alignment = load_entry_alignment(entry);
  std::vector<std::pair<const std::size_t, std::uint64_t>*> slots;
  for (auto& slot : reference) slots.push_back(&slot);
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::exception_ptr error;  // guarded by mutex
  const auto work = [&] {
    try {
      for (std::size_t i = next++; i < slots.size(); i = next++) {
        const Phylo2Vec& tree = input.pool[slots[i]->first];
        JobSpec spec = make_job_spec(
            entry, alignment,
            phylo2vec_decode({input.taxa, tree.v, tree.lengths}));
        Session session(std::move(spec.alignment), std::move(spec.tree),
                        std::move(spec.model), spec.session);
        const double value = session.evaluate().log_likelihood;
        std::memcpy(&slots[i]->second, &value, sizeof value);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      error = std::current_exception();
      next = slots.size();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(work);
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

double latency_ms(const Job& job) { return 1e3 * (job.received - job.scheduled); }

/// Per-layer view of one open-loop phase, from client timestamps and the
/// durations the server reports in each ResultResponse.
void emit_phase_layers(Report& report, const PhaseResult& phase,
                       const std::string& suffix, Tracer* tracer) {
  std::vector<double> overhead;
  std::vector<double> queue;
  std::vector<double> miss_wall;
  std::vector<double> lag;
  for (const Job& job : phase.jobs) {
    lag.push_back(1e3 * (job.sent - job.scheduled));
    if (!job.done) continue;
    const double client_ms = 1e3 * (job.received - job.sent);
    overhead.push_back(client_ms - 1e3 * (job.queue_s + job.wall_s));
    queue.push_back(1e3 * job.queue_s);
    if (!job.cache_hit) miss_wall.push_back(1e3 * job.wall_s);
  }
  report.metric("net.overhead_ms_p50" + suffix, percentile(overhead, 0.5));
  report.metric("net.overhead_ms_p99" + suffix, percentile(overhead, 0.99));
  report.metric("service.queue_wait_ms_p50" + suffix, percentile(queue, 0.5));
  report.metric("service.queue_wait_ms_p99" + suffix, percentile(queue, 0.99));
  report.metric("service.job_wall_ms_p50" + suffix, percentile(miss_wall, 0.5));
  report.metric("service.job_wall_ms_p99" + suffix,
                percentile(miss_wall, 0.99));
  report.metric("cache.hit_rate" + suffix,
                phase.cache.lookups == 0
                    ? 0.0
                    : static_cast<double>(phase.cache.hits) /
                          static_cast<double>(phase.cache.lookups));
  report.metric("cache.coalesced" + suffix,
                static_cast<double>(phase.cache.coalesced));
  const double lag_p99 = percentile(lag, 0.99);
  report.metric("client.send_lag_ms_p99" + suffix, lag_p99);
  report.info("misses" + suffix, static_cast<double>(miss_wall.size()));
  if (lag_p99 >= 1.0)
    std::fprintf(stderr,
                 "plfoc_bench: phase %s invalid: send lag p99 %.3f ms >= 1 ms\n",
                 suffix.c_str() + 1, lag_p99);
  if (tracer == nullptr) return;
  // Client-side spans; the server's queue and evaluation children are laid
  // out from the reported durations (their positions are reconstructed).
  for (std::size_t i = 0; i < phase.jobs.size(); ++i) {
    const Job& job = phase.jobs[i];
    const int span = tracer->add("job" + suffix, job.scheduled, job.received,
                                 -1, i + 1);
    tracer->add("client.send_lag", job.scheduled, job.sent, span, i + 1);
    if (!job.done) continue;
    tracer->add("service.queue", job.sent, job.sent + job.queue_s, span, i + 1);
    tracer->add(job.cache_hit ? "cache.hit" : "service.job",
                job.sent + job.queue_s, job.sent + job.queue_s + job.wall_s,
                span, i + 1);
  }
}

}  // namespace

void run_serve(const RunOptions& options, Report& report) {
  const std::size_t taxa = options.smoke ? 24 : 128;
  const std::size_t sites = options.smoke ? 200 : 1000;
  DatasetPlan plan;
  plan.num_taxa = taxa;
  plan.num_sites = sites;
  plan.seed = unit_seed(options.seed, 0);
  const PlannedDataset data = make_dna_dataset(plan);
  ServeInput input;
  input.fasta_path = options.workdir + "/serve.fasta";
  write_fasta_file(input.fasta_path, data.alignment);
  for (std::size_t t = 0; t < data.alignment.num_taxa(); ++t)
    input.taxa.push_back(data.alignment.name(t));
  std::sort(input.taxa.begin(), input.taxa.end());
  input.taxa_digest = phylo2vec_taxa_digest(input.taxa);
  // Phase sizes: two closed loops send a fixed count each (together about
  // 80% of the window at the measured capacity); one loop of twice the
  // count would ask for more distinct trees than the cache holds. The traced
  // run's open loops, half and a fifth of the window, come on top.
  const double s = options.seconds;
  const auto closed_jobs = static_cast<std::size_t>(100.0 * s);
  const double low_s = 0.5 * s;
  const double high_s = 0.2 * s;
  const auto low_jobs = static_cast<std::size_t>(kLowRate * low_s);
  const auto high_jobs = static_cast<std::size_t>(kHighRate * high_s);

  Rng pool_rng(unit_seed(options.seed, 1));
  const std::size_t pool_size =
      std::max({closed_jobs, low_jobs, high_jobs}) * 3 / 10 + 1;
  for (std::size_t k = 0; k < pool_size; ++k) {
    input.pool.push_back(phylo2vec_encode(random_tree(input.taxa, pool_rng)));
    input.pool.back().taxa.clear();
  }
  Digest input_digest;
  for (std::size_t t = 0; t < data.alignment.num_taxa(); ++t)
    input_digest.add(data.alignment.text(t));

  Rng rng(unit_seed(options.seed, 2));
  // Server start-up takes well under a millisecond: it is timed three
  // times at every pause, about 60 times in the closed loops.
  PauseWork pause;
  PhaseResult loops;  // both closed loops as one
  for (int loop = 0; loop < 2; ++loop) {
    PhaseResult part =
        run_phase(input, plan_phase(closed_jobs, 0.0, rng), true, pause);
    loops.jobs.insert(loops.jobs.end(), part.jobs.begin(), part.jobs.end());
    loops.wall_s += part.wall_s;
    loops.reference_s.insert(loops.reference_s.end(),
                             part.reference_s.begin(),
                             part.reference_s.end());
  }
  std::vector<PhaseResult> phases;
  phases.push_back(std::move(loops));
  const double setup_s = median(pause.setup_s);
  const double scaled_setup_s = median(pause.scaled_setup_s);
  // Memory with at most 16 jobs in flight, before any open loop, whose
  // queue grows and shrinks with the host's speed.
  const double rss = peak_rss_mib();
  if (options.trace) {
    phases.push_back(
        run_phase(input, plan_phase(low_jobs, low_s, rng), false, pause));
    phases.push_back(
        run_phase(input, plan_phase(high_jobs, high_s, rng), false, pause));
  }
  const PhaseResult& closed = phases[0];

  // Correctness gate, after timing: every answered job's bits equal an
  // in-process evaluation of its tree (cache hits included).
  std::map<std::size_t, std::uint64_t> reference;
  for (const PhaseResult& phase : phases)
    for (const Job& job : phase.jobs) reference.emplace(job.tree, 0);
  compute_references(input, reference);
  std::size_t wrong = 0;
  std::size_t failed = 0;
  for (const PhaseResult& phase : phases) {
    for (const Job& job : phase.jobs) {
      report.attempt();
      if (!job.answered || !job.done)
        ++failed;
      else if (job.logl_bits != reference.at(job.tree))
        ++wrong;
    }
  }
  Digest result_digest;  // the closed loops, which both modes run
  for (const Job& job : closed.jobs) {
    result_digest.add_u64(job.tree);
    result_digest.add_u64(job.logl_bits);
  }
  if (failed + wrong > 0) {
    report.failed_unit(failed + wrong);
    report.fail(std::to_string(failed) + " jobs failed, " +
                std::to_string(wrong) + " returned a wrong log likelihood");
  }

  const auto latencies = [](const PhaseResult& phase) {
    std::vector<double> out;
    for (const Job& job : phase.jobs)
      out.push_back(job.done ? latency_ms(job) : INFINITY);
    return out;
  };
  const auto capacity = [](const PhaseResult& phase) {
    return static_cast<double>(phase.jobs.size()) / phase.wall_s;
  };
  report.info("taxa", static_cast<double>(taxa));
  report.info("sites", static_cast<double>(sites));
  const auto tail_info = [&](const PhaseResult& phase, const char* name) {
    report.info(std::string("jobs.") + name,
                static_cast<double>(phase.jobs.size()));
    for (const double p : {0.5, 0.9, 0.99}) {
      char key[32];
      std::snprintf(key, sizeof key, "p%.0f_ms.%s", 100 * p, name);
      report.info(key, percentile(latencies(phase), p));
    }
  };
  tail_info(closed, "closed");
  if (options.trace) {
    report.info("rate.low", kLowRate);
    tail_info(phases[1], "low");
    report.info("rate.high", kHighRate);
    tail_info(phases[2], "high");
  }
  report.info("distinct_trees", static_cast<double>(reference.size()));
  report.info("input_digest", input_digest.hex());
  report.info("result_digest", result_digest.hex());
  // The server's and the client's threads spread over every CPU: a phase
  // is scaled by the mean of the reference timings on every CPU during it.
  const auto phase_scale = [](const PhaseResult& phase) {
    double sum = 0.0;
    for (const double t : phase.reference_s) sum += t;
    return nominal_seconds(Reference::kCompute) *
           static_cast<double>(phase.reference_s.size()) / sum;
  };
  const double scale = phase_scale(closed);
  const Timings raw{setup_s, percentile(latencies(closed), 0.5),
                    capacity(closed)};
  report.timings({scaled_setup_s, raw.p50_ms * scale,
                  raw.throughput_per_s / scale},
                 raw, scale);
  report.metric("peak_rss_mib", rss);
  if (!options.trace) return;

  Tracer tracer;
  emit_phase_layers(report, phases[1], ".low", &tracer);
  emit_phase_layers(report, phases[2], ".high", &tracer);
  // Serve spans are built after each phase from timestamps the untraced
  // run records too: tracing adds no work inside the measured interval.
  report.metric("trace.overhead", 0.0);
  tracer.write_json(options.workdir + "/trace-serve-zipf.json");
}

}  // namespace plfoc::e2e
