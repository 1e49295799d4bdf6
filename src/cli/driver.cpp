#include "cli/driver.hpp"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "likelihood/model_opt.hpp"
#include "msa/fasta.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "msa/phylip.hpp"
#include "search/mcmc.hpp"
#include "search/search.hpp"
#include "search/stepwise.hpp"
#include "service/jobfile.hpp"
#include "service/service.hpp"
#include "session.hpp"
#include "tree/newick.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

namespace plfoc {
CliConfig parse_cli(int argc, const char* const* argv) {
  CliConfig config;
  ArgParser parser(
      "plfoc", "compute the phylogenetic likelihood function out-of-core");
  parser.add_string("msa", &config.msa_path, "alignment file", true)
      .add_string("format", &config.format, "alignment format: fasta | phylip")
      .add_string("data-type", &config.data_type, "dna | protein")
      .add_string("tree", &config.tree_path,
                  "Newick starting tree (default: stepwise addition)")
      .add_string("model", &config.model, "jc | k80 | hky | gtr | poisson")
      .add_double("kappa", &config.kappa, "transition/transversion ratio")
      .add_uint("categories", &config.categories, "discrete-Γ categories")
      .add_double("alpha", &config.alpha, "initial Γ shape parameter")
      .add_string("backend", &config.backend,
                  "storage backend: inram | ooc | paged | mmap")
      .add_uint("memory-limit", &config.memory_limit,
                "ancestral-vector RAM budget in bytes (RAxML's -L)")
      .add_double("ram-fraction", &config.ram_fraction,
                  "fraction f of vectors kept in RAM (paper experiments)")
      .add_string("strategy", &config.strategy,
                  "replacement: random | lru | lfu | topological")
      .add_flag("no-read-skipping", &config.no_read_skipping,
                "disable the read-skipping optimisation")
      .add_string("vector-file", &config.vector_file,
                  "explicit backing file path (default: temp file)")
      .add_string("inject-faults", &config.inject_faults,
                  std::string("seeded I/O fault + corruption schedule: ") +
                      FaultConfig::grammar())
      .add_uint("io-retries", &config.io_retries,
                "transient I/O retry budget per transfer (0 = fail fast)")
      .add_string("io-engine", &config.io_engine,
                  "backing-file I/O engine: sync | threads | uring | "
                  "deterministic (uring degrades to threads when the host "
                  "lacks io_uring)")
      .add_uint("io-depth", &config.io_depth,
                "submission-queue depth for async I/O engines")
      .add_flag("direct-io", &config.direct_io,
                "route 512-byte-aligned transfers through O_DIRECT "
                "(best effort; misaligned transfers stay buffered)")
      .add_uint("threads", &config.threads,
                "kernel threads for block-parallel PLF kernels (1 = serial; "
                "logL is bit-identical for every value)")
      .add_string("mode", &config.mode,
                  "evaluate | search | traverse | mcmc")
      .add_uint("traversals", &config.traversals,
                "full traversals in traverse mode (paper's -f z)")
      .add_uint("spr-rounds", &config.spr_rounds, "SPR rounds in search mode")
      .add_uint("mcmc-iterations", &config.mcmc_iterations,
                "chain length in mcmc mode")
      .add_uint("seed", &config.seed, "random seed (full determinism)")
      .add_string("out-tree", &config.out_tree_path,
                  "write the final tree to this file")
      .add_flag("stats", &config.print_stats, "print storage statistics");
  parser.parse(argc, argv);
  return config;
}

int run_cli(const CliConfig& config, std::ostream& out) {
  Timer total;
  // Every name option resolves before any input is read, so a misspelt
  // name fails before an alignment parse or a starting-tree build.
  const DataType data_type = parse_data_type_name(config.data_type);
  const Backend backend = parse_backend_name(config.backend);
  const ReplacementPolicy policy = parse_policy(config.strategy);
  const AioEngineKind io_engine = parse_aio_engine(config.io_engine);
  if (config.mode != "evaluate" && config.mode != "traverse" &&
      config.mode != "search" && config.mode != "mcmc")
    throw Error("unknown --mode '" + config.mode +
                "' (evaluate | search | traverse | mcmc)");
  check_model_name(config.model);
  Alignment alignment = [&] {
    if (config.format == "fasta")
      return read_fasta_file(config.msa_path, data_type);
    if (config.format == "phylip")
      return read_phylip_file(config.msa_path, data_type);
    throw Error("unknown --format '" + config.format + "' (fasta | phylip)");
  }();
  out << "alignment: " << alignment.num_taxa() << " taxa x "
      << alignment.num_sites() << " sites (" << datatype_name(data_type)
      << ")\n";

  Rng rng(config.seed);
  Tree tree = [&] {
    if (!config.tree_path.empty()) return read_newick_file(config.tree_path);
    out << "building stepwise-addition starting tree...\n";
    return stepwise_addition_tree(alignment, rng);
  }();
  PLFOC_REQUIRE(tree.num_taxa() == alignment.num_taxa(),
                "tree and alignment have different taxon counts");

  SubstitutionModel model =
      build_named_model(config.model, config.kappa, alignment);
  out << "model: " << model.name << " + G" << config.categories << "\n";

  SessionOptions options;
  options.categories = static_cast<unsigned>(config.categories);
  options.alpha = config.alpha;
  options.backend = backend;
  options.ram_budget_bytes = config.memory_limit;
  options.ram_fraction = config.ram_fraction;
  options.policy = policy;
  options.read_skipping = !config.no_read_skipping;
  options.seed = config.seed;
  options.vector_file = config.vector_file;
  if (!config.inject_faults.empty())
    options.faults = FaultConfig::parse(config.inject_faults);
  options.io_retry.max_retries = static_cast<unsigned>(config.io_retries);
  options.io_engine = io_engine;
  options.io_depth = static_cast<unsigned>(config.io_depth);
  options.direct_io = config.direct_io;
  options.threads = static_cast<unsigned>(config.threads);
  Session session(std::move(alignment), std::move(tree), std::move(model),
                  options);
  if (options.faults.enabled())
    out << "fault injection: " << options.faults.spec() << " (retries "
        << config.io_retries << ")\n";
  out << "backend: " << session.store().backend_name() << " ("
      << session.patterns() << " patterns, vector width "
      << session.vector_width() * sizeof(double) << " B)\n";
  if (options.io_engine != AioEngineKind::kSync) {
    // Report the engine that actually got built (uring degrades to the
    // thread pool on hosts without io_uring support).
    const FileBackend* backing = nullptr;
    if (const OutOfCoreStore* ooc = session.out_of_core())
      backing = &ooc->file();
    else if (const PagedStore* paged = session.paged())
      backing = &paged->file();
    if (backing != nullptr)
      out << "io engine: " << backing->io_engine_name() << " (depth "
          << backing->io_depth() << (config.direct_io ? ", O_DIRECT" : "")
          << ")\n";
  }

  if (config.mode == "evaluate") {
    out << "logL = " << session.engine().log_likelihood() << "\n";
  } else if (config.mode == "traverse") {
    double ll = 0.0;
    Timer timer;
    for (std::uint64_t i = 0; i < config.traversals; ++i)
      ll = session.engine().full_traversal_log_likelihood();
    out << config.traversals << " full traversals in " << timer.seconds()
        << " s; logL = " << ll << "\n";
  } else if (config.mode == "search") {
    SearchOptions search;
    search.spr.rounds = static_cast<int>(config.spr_rounds);
    const SearchResult result = run_search(session.engine(), search);
    out << "search: logL " << result.starting_log_likelihood << " -> "
        << result.final_log_likelihood << " (alpha "
        << session.engine().config().alpha << ", "
        << result.spr.moves_accepted << " SPR moves)\n";
  } else {  // mcmc
    McmcOptions mcmc;
    mcmc.iterations = config.mcmc_iterations;
    Rng chain_rng(config.seed + 1);
    const McmcResult result = run_mcmc(session.engine(), chain_rng, mcmc);
    out << "mcmc: log posterior " << result.initial_log_posterior << " -> "
        << result.final_log_posterior << " (best "
        << result.best_log_posterior << "); acceptance branch "
        << result.branch_acceptance() << ", NNI " << result.nni_acceptance()
        << "\n";
  }

  if (config.print_stats) {
    // Snapshot rather than stats(): the robustness counters live in backend
    // atomics and are only overlaid by stats_snapshot().
    out << "storage: " << session.store().stats_snapshot().summary() << "\n";
  }
  if (!config.out_tree_path.empty()) {
    write_newick_file(config.out_tree_path, session.tree());
    out << "tree written to " << config.out_tree_path << "\n";
  }
  out << "total wall time: " << total.seconds() << " s\n";
  return 0;
}

BatchConfig parse_batch_cli(int argc, const char* const* argv) {
  BatchConfig config;
  ArgParser parser("plfoc batch",
                   "run a jobfile of likelihood evaluations through the "
                   "memory-budgeted batch service");
  parser
      .add_string("jobs", &config.jobfile_path,
                  "jobfile, one job per line (see docs/service.md)")
      .add_uint("workers", &config.workers, "concurrent evaluation workers")
      .add_uint("ram-budget", &config.ram_budget,
                "aggregate slot-memory budget in bytes across all running "
                "jobs (0 = unlimited)")
      .add_uint("queue", &config.queue_capacity,
                "bounded intake capacity; submission blocks beyond this")
      .add_flag("stats", &config.print_stats,
                "print per-job and merged storage statistics")
      .add_string("inject-faults", &config.inject_faults,
                  std::string("batch-default fault + corruption schedule ") +
                      FaultConfig::grammar() + " (a job's faults= key "
                      "overrides)")
      .add_uint("io-retries", &config.io_retries,
                "batch-default transient I/O retry budget "
                "(a job's io-retries= key overrides; 0 = fail fast)")
      .add_string("io-engine", &config.io_engine,
                  "batch-default backing-file I/O engine: sync | threads | "
                  "uring | deterministic (a job's io-engine= key overrides)")
      .add_uint("io-depth", &config.io_depth,
                "batch-default async submission-queue depth "
                "(a job's io-depth= key overrides)")
      .add_uint("threads", &config.threads,
                "batch-default kernel threads per worker "
                "(a job's threads= key overrides; logL is unaffected)")
      .add_flag("readmit", &config.readmit,
                "re-admit a job once after a typed I/O or integrity failure")
      .add_uint("cache", &config.cache,
                "result-cache entries (0 = off); equivalent trees dedupe "
                "via Phylo2Vec canonicalization — see docs/serving.md")
      .add_uint("cache-shards", &config.cache_shards,
                "result-cache shard count");
  // The jobfile may lead as a positional: `plfoc batch jobs.txt --workers 4`.
  int start = 0;
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '-') {
    config.jobfile_path = argv[0];
    start = 1;
  }
  parser.parse(argc - start, argv + start);
  PLFOC_REQUIRE(!config.jobfile_path.empty(),
                "batch mode needs a jobfile: plfoc batch <jobfile> "
                "[flags], or --jobs <jobfile>\n" +
                    parser.usage());
  return config;
}

int run_batch_cli(const BatchConfig& config, std::ostream& out) {
  Timer total;
  const std::vector<JobFileEntry> entries =
      read_job_file(config.jobfile_path);
  PLFOC_REQUIRE(!entries.empty(),
                "jobfile '" + config.jobfile_path + "' contains no jobs");
  out << "batch: " << entries.size() << " jobs, " << config.workers
      << (config.workers == 1 ? " worker" : " workers") << ", ram budget ";
  if (config.ram_budget == 0)
    out << "unlimited\n";
  else
    out << config.ram_budget << " B\n";

  // Validate the batch-wide fault spec before any job is submitted.
  const FaultConfig batch_faults = config.inject_faults.empty()
                                       ? FaultConfig{}
                                       : FaultConfig::parse(config.inject_faults);
  if (batch_faults.enabled())
    out << "fault injection: " << batch_faults.spec() << " (retries "
        << config.io_retries << (config.readmit ? ", readmit" : "") << ")\n";
  // Validate the batch-default engine name before any job is submitted.
  const AioEngineKind batch_engine = parse_aio_engine(config.io_engine);
  if (batch_engine != AioEngineKind::kSync)
    out << "io engine: " << aio_engine_name(batch_engine) << " (depth "
        << config.io_depth << ")\n";

  ServiceOptions options;
  options.workers = static_cast<std::size_t>(config.workers);
  options.queue_capacity = static_cast<std::size_t>(config.queue_capacity);
  options.ram_budget_bytes = config.ram_budget;
  options.readmit_io_failures = config.readmit;
  options.kernel_threads = static_cast<unsigned>(config.threads);
  options.result_cache_entries = static_cast<std::size_t>(config.cache);
  options.result_cache_shards = static_cast<std::size_t>(config.cache_shards);
  Service service(options);
  for (const JobFileEntry& entry : entries) {
    JobSpec spec = load_job(entry);
    // Batch-wide robustness defaults; per-line keys take precedence.
    if (entry.faults.empty()) spec.session.faults = batch_faults;
    if (entry.io_retries < 0)
      spec.session.io_retry.max_retries =
          static_cast<unsigned>(config.io_retries);
    if (entry.io_engine.empty()) spec.session.io_engine = batch_engine;
    if (entry.io_depth < 0)
      spec.session.io_depth = static_cast<unsigned>(config.io_depth);
    service.submit(std::move(spec));
  }
  const std::vector<JobResult> results = service.drain();

  std::size_t failed = 0;
  for (const JobResult& result : results) {
    out << result.name << ": ";
    switch (result.status) {
      case JobStatus::kDone:
        out << "logL = " << result.log_likelihood << " ["
            << backend_name(result.admitted_backend)
            << (result.degraded ? ", degraded" : "") << "] "
            << result.wall_seconds << " s";
        if (config.print_stats)
          out << "; storage: " << result.stats.summary();
        break;
      case JobStatus::kFailed:
        ++failed;
        out << "FAILED: " << result.error;
        if (result.io_failure || result.integrity_failure) {
          out << " (" << (result.io_failure ? "io" : "integrity")
              << " failure after " << result.attempts
              << (result.attempts == 1 ? " attempt)" : " attempts)");
          if (!result.fault_report.empty())
            out << "\n  fault report: " << result.fault_report;
        }
        break;
      default:
        ++failed;
        out << job_status_name(result.status);
        break;
    }
    out << "\n";
  }
  const double wall = total.seconds();
  out << "batch done: " << results.size() - failed << "/" << results.size()
      << " jobs in " << wall << " s";
  if (wall > 0.0) out << " (" << results.size() / wall << " jobs/s)";
  out << "; peak charged slot memory " << service.peak_charged_bytes()
      << " B\n";
  if (config.print_stats)
    out << "merged storage: " << service.merged_stats().summary() << "\n";
  if (config.print_stats && config.cache > 0) {
    const CacheStats cache = service.cache_stats();
    out << "result cache: " << cache.lookups << " lookups, " << cache.hits
        << " hits, " << cache.coalesced << " coalesced, " << cache.evictions
        << " evictions\n";
  }
  return failed == 0 ? 0 : 1;
}

FsckConfig parse_fsck_cli(int argc, const char* const* argv) {
  FsckConfig config;
  ArgParser parser("plfoc fsck",
                   "offline integrity scan of a plfoc vector file: verify "
                   "every record against its checksum table entry");
  parser
      .add_string("file", &config.vector_file,
                  "vector-file stripe to scan (see docs/file-formats.md)")
      .add_flag("verbose", &config.verbose,
                "list every damaged record (default: first 10 + summary)");
  // The file may lead as a positional: `plfoc fsck vectors.bin`.
  int start = 0;
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '-') {
    config.vector_file = argv[0];
    start = 1;
  }
  parser.parse(argc - start, argv + start);
  PLFOC_REQUIRE(!config.vector_file.empty(),
                "fsck mode needs a vector file: plfoc fsck <vector-file>, "
                "or --file <vector-file>\n" +
                    parser.usage());
  return config;
}

int run_fsck_cli(const FsckConfig& config, std::ostream& out) {
  const FsckReport report = FileBackend::fsck(config.vector_file);
  out << "fsck " << config.vector_file << "\n";
  if (!report.header_ok) {
    out << "header: INVALID — " << report.header_error << "\n";
    return 1;
  }
  out << "header: ok (" << report.block_count << " blocks of "
      << report.block_bytes << " B, payload " << report.payload_bytes
      << " B)\n";
  out << "records: " << report.checked << " verified, "
      << report.skipped_unwritten << " never written\n";
  if (report.clean()) {
    out << "clean\n";
    return 0;
  }
  const std::size_t shown =
      config.verbose ? report.issues.size()
                     : std::min<std::size_t>(report.issues.size(), 10);
  for (std::size_t i = 0; i < shown; ++i)
    out << "  block " << report.issues[i].block << ": "
        << report.issues[i].what << "\n";
  if (shown < report.issues.size())
    out << "  ... " << report.issues.size() - shown
        << " more (use --verbose)\n";
  out << "DAMAGED: " << report.issues.size()
      << (report.issues.size() == 1 ? " record" : " records")
      << " failed verification\n";
  return 1;
}

HostPort parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  PLFOC_REQUIRE(colon != std::string::npos && colon > 0,
                "expected host:port, got '" + spec + "'");
  HostPort result;
  result.host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  try {
    std::size_t used = 0;
    const unsigned long port = std::stoul(port_text, &used);
    PLFOC_REQUIRE(used == port_text.size() && port <= 65535,
                  "bad port in '" + spec + "'");
    result.port = static_cast<std::uint16_t>(port);
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("bad port in '" + spec + "'");
  }
  return result;
}

std::map<std::string, TenantPolicy> parse_tenant_policies(
    const std::string& spec) {
  std::map<std::string, TenantPolicy> policies;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    // name:weight[:max_inflight[:ram_share_bytes]]
    std::vector<std::string> fields;
    std::size_t field_start = 0;
    while (field_start <= entry.size()) {
      std::size_t field_end = entry.find(':', field_start);
      if (field_end == std::string::npos) field_end = entry.size();
      fields.push_back(entry.substr(field_start, field_end - field_start));
      field_start = field_end + 1;
    }
    PLFOC_REQUIRE(fields.size() >= 2 && fields.size() <= 4 &&
                      !fields[0].empty(),
                  "bad tenant entry '" + entry +
                      "' (want name:weight[:max_inflight[:ram_share]])");
    PLFOC_REQUIRE(policies.find(fields[0]) == policies.end(),
                  "duplicate tenant '" + fields[0] + "'");
    const auto parse_u64 = [&entry](const std::string& text) {
      try {
        std::size_t used = 0;
        const unsigned long long value = std::stoull(text, &used);
        PLFOC_REQUIRE(used == text.size(), "bad number in '" + entry + "'");
        return static_cast<std::uint64_t>(value);
      } catch (const Error&) {
        throw;
      } catch (const std::exception&) {
        throw Error("bad number in tenant entry '" + entry + "'");
      }
    };
    TenantPolicy policy;
    policy.weight = static_cast<unsigned>(parse_u64(fields[1]));
    if (fields.size() >= 3)
      policy.max_in_flight = static_cast<std::size_t>(parse_u64(fields[2]));
    if (fields.size() >= 4) policy.ram_share_bytes = parse_u64(fields[3]);
    policies.emplace(fields[0], policy);
  }
  return policies;
}

ServeConfig parse_serve_cli(int argc, const char* const* argv) {
  ServeConfig config;
  ArgParser parser("plfoc serve",
                   "serve likelihood evaluations over a TCP socket: the "
                   "batch service behind the length-prefixed wire protocol "
                   "(docs/serving.md)");
  parser
      .add_string("listen", &config.listen,
                  "host:port to bind (port 0 = kernel-assigned ephemeral)")
      .add_uint("workers", &config.workers, "concurrent evaluation workers")
      .add_uint("ram-budget", &config.ram_budget,
                "aggregate slot-memory budget in bytes (0 = unlimited)")
      .add_uint("queue", &config.queue_capacity,
                "bounded intake capacity; submits beyond it answer busy")
      .add_uint("threads", &config.threads,
                "kernel threads per worker (jobfile threads= overrides)")
      .add_string("io-engine", &config.io_engine,
                  "service-default backing-file I/O engine: sync | threads | "
                  "uring | deterministic (jobfile io-engine= overrides)")
      .add_uint("io-depth", &config.io_depth,
                "service-default async submission-queue depth")
      .add_flag("readmit", &config.readmit,
                "re-admit a job once after a typed I/O or integrity failure")
      .add_uint("cache", &config.cache,
                "result-cache entries (0 = off); topologically equivalent "
                "trees dedupe via Phylo2Vec canonicalization")
      .add_uint("cache-shards", &config.cache_shards,
                "result-cache shard count")
      .add_string("tenants", &config.tenants,
                  "per-tenant policies: name:weight[:max_inflight"
                  "[:ram_share_bytes]],... (absent tenants run "
                  "unconstrained at weight 1)")
      .add_double("idle-timeout", &config.idle_timeout,
                  "close connections idle for this many seconds (0 = never)")
      .add_uint("max-connections", &config.max_connections,
                "refuse accepts beyond this many live connections")
      .add_flag("stats", &config.print_stats,
                "print cache counters with the shutdown drain report")
      .add_double("watchdog-stall", &config.watchdog_stall,
                  "cancel a running job whose progress counter freezes for "
                  "this many seconds (0 = watchdog off)")
      .add_double("shed-queue", &config.shed_queue,
                  "shed a job that waited in the queue longer than this "
                  "many seconds (typed 'overloaded' answer; 0 = off)")
      .add_double("drain-flush", &config.drain_flush,
                  "shutdown: seconds to keep flushing finished responses "
                  "before closing connections");
  parser.parse(argc, argv);
  parse_host_port(config.listen);        // validate early
  parse_tenant_policies(config.tenants); // validate early
  parse_aio_engine(config.io_engine);    // validate early
  return config;
}

int run_serve_cli(const ServeConfig& config, std::istream& in,
                  std::ostream& out) {
  const HostPort listen = parse_host_port(config.listen);
  ServerOptions options;
  options.host = listen.host;
  options.port = listen.port;
  options.max_connections = static_cast<std::size_t>(config.max_connections);
  options.idle_timeout_seconds = config.idle_timeout;
  options.service.workers = static_cast<std::size_t>(config.workers);
  options.service.queue_capacity =
      static_cast<std::size_t>(config.queue_capacity);
  options.service.ram_budget_bytes = config.ram_budget;
  options.service.kernel_threads = static_cast<unsigned>(config.threads);
  options.service.io_engine = parse_aio_engine(config.io_engine);
  options.service.io_depth = static_cast<unsigned>(config.io_depth);
  options.service.readmit_io_failures = config.readmit;
  options.service.result_cache_entries =
      static_cast<std::size_t>(config.cache);
  options.service.result_cache_shards =
      static_cast<std::size_t>(config.cache_shards);
  options.service.tenants = parse_tenant_policies(config.tenants);
  options.service.watchdog_stall_seconds = config.watchdog_stall;
  options.service.shed_queue_seconds = config.shed_queue;
  options.drain_flush_seconds = config.drain_flush;

  Server server(std::move(options));
  server.start();
  out << "serving on " << listen.host << ":" << server.port() << "\n";
  out.flush();

  // Block until operator EOF (or an explicit "stop" line) — the server
  // runs on its own threads.
  std::string line;
  while (std::getline(in, line)) {
    if (line == "stop" || line == "quit") break;
  }

  const DrainReport report = server.stop();
  out << "drained " << report.results.size()
      << (report.results.size() == 1 ? " job" : " jobs") << "\n";
  for (const auto& [tenant, counts] : report.per_tenant) {
    out << "  tenant " << (tenant.empty() ? "<default>" : tenant) << ": "
        << counts.completed << " completed, " << counts.failed << " failed, "
        << counts.cancelled << " cancelled, " << counts.expired
        << " expired, " << counts.shed << " shed\n";
  }
  if (report.unsent_frames > 0) {
    out << "  undelivered: " << report.unsent_frames << " response"
        << (report.unsent_frames == 1 ? "" : "s") << " on "
        << report.unsent_connections << " connection"
        << (report.unsent_connections == 1 ? "" : "s")
        << " (flush window closed first)\n";
  }
  if (config.print_stats && config.cache > 0) {
    const CacheStats cache = server.service().cache_stats();
    out << "result cache: " << cache.lookups << " lookups, " << cache.hits
        << " hits, " << cache.coalesced << " coalesced, " << cache.evictions
        << " evictions\n";
  }
  return 0;
}

ClientConfig parse_client_cli(int argc, const char* const* argv) {
  ClientConfig config;
  ArgParser parser("plfoc-client",
                   "submit a jobfile to a running `plfoc serve` over the "
                   "wire protocol and print per-job results "
                   "(docs/serving.md)");
  parser
      .add_string("connect", &config.connect,
                  "host:port of the server", /*required=*/false)
      .add_string("jobs", &config.jobfile_path,
                  "jobfile, one job per line (see docs/service.md)")
      .add_string("tenant", &config.tenant,
                  "tenant id to submit under (fair-scheduling identity)")
      .add_uint("request-base", &config.request_base,
                "first request id; ids increase per job")
      .add_flag("stats", &config.print_stats,
                "also fetch and print the server's cache/tenant stats")
      .add_double("deadline", &config.deadline,
                  "default per-job deadline in seconds, armed when the "
                  "server accepts the job (jobfile deadline= overrides; "
                  "0 = none)");
  // The jobfile may lead as a positional, mirroring `plfoc batch`.
  int start = 0;
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '-') {
    config.jobfile_path = argv[0];
    start = 1;
  }
  parser.parse(argc - start, argv + start);
  PLFOC_REQUIRE(!config.jobfile_path.empty(),
                "plfoc-client needs a jobfile: plfoc-client <jobfile> "
                "--connect host:port\n" +
                    parser.usage());
  PLFOC_REQUIRE(!config.connect.empty(),
                "plfoc-client needs --connect host:port\n" + parser.usage());
  return config;
}

int run_client_cli(const ClientConfig& config, std::ostream& out) {
  const HostPort remote = parse_host_port(config.connect);
  const std::vector<JobFileEntry> entries =
      read_job_file(config.jobfile_path);
  PLFOC_REQUIRE(!entries.empty(),
                "jobfile '" + config.jobfile_path + "' contains no jobs");

  BlockingClient client(remote.host, remote.port);
  std::vector<std::uint64_t> request_ids;
  request_ids.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::uint64_t request_id = config.request_base + i;
    SubmitRequest request =
        submit_request_from_entry(entries[i], config.tenant, request_id);
    if (request.deadline_ms == 0 && config.deadline > 0)
      request.deadline_ms = deadline_ms_from_seconds(config.deadline);
    client.submit(request);
    request_ids.push_back(request_id);
  }

  std::size_t failed = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ClientResponse response = client.wait(request_ids[i]);
    const std::string label =
        entries[i].name.empty() ? "job-" + std::to_string(request_ids[i])
                                : entries[i].name;
    out << label << ": ";
    if (response.error) {
      ++failed;
      out << "REJECTED: " << response.error->message << "\n";
      continue;
    }
    const ResultResponse& result = *response.result;
    if (result.status == static_cast<std::uint8_t>(JobStatus::kDone)) {
      out << "logL = " << std::bit_cast<double>(result.logl_bits) << " ["
          << result.backend
          << ((result.flags & kResultDegraded) ? ", degraded" : "")
          << ((result.flags & kResultCacheHit) ? ", cached" : "") << "] "
          << result.wall_seconds << " s\n";
    } else {
      ++failed;
      const char* verdict = "FAILED";
      if (result.flags & kResultDeadlineExceeded) verdict = "DEADLINE";
      else if (result.flags & kResultOverloaded) verdict = "SHED";
      else if (result.flags & kResultCancelled) verdict = "CANCELLED";
      out << verdict << ": " << result.error << "\n";
    }
  }
  if (config.print_stats) {
    const StatsResponse stats = client.stats();
    out << "server cache: " << stats.cache_lookups << " lookups, "
        << stats.cache_hits << " hits, " << stats.cache_misses
        << " misses, " << stats.cache_coalesced << " coalesced\n";
    for (const StatsResponse::TenantRow& row : stats.tenants) {
      out << "tenant " << (row.tenant.empty() ? "<default>" : row.tenant)
          << ": " << row.submitted << " submitted, " << row.completed
          << " completed, " << row.failed << " failed, " << row.cancelled
          << " cancelled, " << row.expired << " expired, " << row.shed
          << " shed, " << row.cache_hits << " cache hits\n";
    }
  }
  out << "client done: " << entries.size() - failed << "/" << entries.size()
      << " jobs ok\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace plfoc
