// The plfoc command-line driver — the library's counterpart of the paper's
// modified RAxML binary. Thin `tools/plfoc_main.cpp` wraps run_cli() /
// run_batch_cli() so the whole driver is unit-testable.
//
// Modes (--mode):
//   evaluate  log likelihood of the given (or stepwise-addition) tree
//   search    branch smoothing + alpha optimisation + lazy-SPR rounds
//   traverse  N full tree traversals (the paper's -f z worst case, Fig. 5)
//   mcmc      Metropolis-Hastings sampling (Bayesian workload)
//
// Memory control mirrors the paper: --memory-limit <bytes> is RAxML's -L
// flag; --ram-fraction <f> is the experiments' fraction parameter.
//
// `plfoc batch <jobfile>` is a separate subcommand: it feeds a jobfile (one
// evaluation per line, src/service/jobfile.hpp) through the concurrent
// batch-evaluation service under one global --ram-budget. docs/service.md
// describes the format and the admission-control math.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "service/tenant.hpp"

namespace plfoc {

struct CliConfig {
  // input
  std::string msa_path;
  std::string format = "fasta";      // fasta | phylip
  std::string data_type = "dna";     // dna | protein
  std::string tree_path;             // empty: stepwise-addition starting tree
  // model
  std::string model = "gtr";         // jc | k80 | hky | gtr | poisson
  double kappa = 2.0;                // k80 / hky
  unsigned categories = 4;
  double alpha = 1.0;
  // storage
  std::string backend = "inram";     // inram | ooc | paged | mmap
  std::uint64_t memory_limit = 0;    // bytes (-L)
  double ram_fraction = 0.0;         // f
  std::string strategy = "lru";      // random | lru | lfu | topological
  bool no_read_skipping = false;
  std::string vector_file;           // optional explicit backing file
  // robustness (docs/robustness.md)
  std::string inject_faults;         // FaultConfig spec "seed=N,rate=P,..."
  unsigned io_retries = 4;           // transient-error retry budget (0 = off)
  // async I/O (docs/async-io.md)
  std::string io_engine = "sync";    // sync | threads | uring | deterministic
  unsigned io_depth = 8;             // submission-queue depth (async engines)
  bool direct_io = false;            // O_DIRECT for 512-aligned transfers
  // parallelism (docs/parallelism.md)
  unsigned threads = 1;              // kernel threads (1 = serial)
  // workload
  std::string mode = "evaluate";     // evaluate | search | traverse | mcmc
  std::uint64_t traversals = 5;      // traverse mode
  std::uint64_t spr_rounds = 1;      // search mode
  std::uint64_t mcmc_iterations = 2000;
  std::uint64_t seed = 42;
  // output
  std::string out_tree_path;
  bool print_stats = false;
};

/// Parse argv into a config; throws plfoc::Error (message includes usage)
/// on bad input or --help.
CliConfig parse_cli(int argc, const char* const* argv);

/// Execute the configured run, writing the report to `out`.
/// Returns a process exit code.
int run_cli(const CliConfig& config, std::ostream& out);

/// Configuration of the `plfoc batch` subcommand.
struct BatchConfig {
  std::string jobfile_path;           ///< positional or --jobs
  std::uint64_t workers = 1;          ///< concurrent evaluation workers
  std::uint64_t ram_budget = 0;       ///< aggregate slot-memory bytes; 0 = ∞
  std::uint64_t queue_capacity = 64;  ///< bounded intake (backpressure)
  bool print_stats = false;           ///< per-job + merged store counters
  /// Batch-wide defaults; a job line's own faults= / io-retries= / threads=
  /// keys win.
  std::string inject_faults;          ///< FaultConfig spec "seed=N,rate=P,..."
  unsigned io_retries = 4;            ///< transient-error retry budget
  std::string io_engine = "sync";     ///< batch-default I/O engine
  unsigned io_depth = 8;              ///< batch-default submission-queue depth
  unsigned threads = 1;               ///< kernel threads per worker
  bool readmit = false;               ///< re-admit I/O-failed jobs once
  /// Result-cache entries (0 = off). With the cache on, trees are
  /// Phylo2Vec-canonicalized before evaluation — same contract as `plfoc
  /// serve --cache`, so batch and loopback runs stay bit-comparable.
  std::uint64_t cache = 0;
  std::uint64_t cache_shards = 8;     ///< result-cache shard count
};

/// Parse the argv that follows the `batch` keyword. The jobfile may be the
/// first positional argument (`plfoc batch jobs.txt --workers 4`) or given
/// via --jobs. Throws plfoc::Error on bad input or --help.
BatchConfig parse_batch_cli(int argc, const char* const* argv);

/// Run every job in the jobfile through the service and report per-job
/// results in submission order (deterministic regardless of --workers).
/// Returns 0 when every job evaluated, 1 when any failed.
int run_batch_cli(const BatchConfig& config, std::ostream& out);

/// Configuration of the `plfoc fsck` subcommand: offline integrity scan of
/// one vector-file stripe (docs/file-formats.md). Header + record walk only —
/// no engine, no store, no recovery.
struct FsckConfig {
  std::string vector_file;  ///< positional or --file
  bool verbose = false;     ///< list every damaged record, not just a summary
};

/// Parse the argv that follows the `fsck` keyword. The file may be the first
/// positional argument (`plfoc fsck vectors.bin`) or given via --file.
FsckConfig parse_fsck_cli(int argc, const char* const* argv);

/// Scan the file, report per-record checksum/generation damage to `out`.
/// Returns 0 for a clean file, 1 when any record is damaged or the header is
/// invalid.
int run_fsck_cli(const FsckConfig& config, std::ostream& out);

/// "host:port" split for --listen / --connect (port may be 0 for an
/// ephemeral listen port). Throws plfoc::Error on a malformed spec.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};
HostPort parse_host_port(const std::string& spec);

/// Parse a `--tenants` spec: comma-separated
/// `name:weight[:max_inflight[:ram_share_bytes]]` entries
/// (e.g. "alice:3,bob:1:2:1073741824"). Throws plfoc::Error on malformed
/// input or duplicate tenants.
std::map<std::string, TenantPolicy> parse_tenant_policies(
    const std::string& spec);

/// Configuration of the `plfoc serve` subcommand: the socket front-end of
/// the batch service (docs/serving.md).
struct ServeConfig {
  std::string listen = "127.0.0.1:0";  ///< host:port; port 0 = ephemeral
  std::uint64_t workers = 1;
  std::uint64_t ram_budget = 0;        ///< aggregate slot-memory bytes; 0 = ∞
  std::uint64_t queue_capacity = 64;
  unsigned threads = 1;                ///< kernel threads per worker
  std::string io_engine = "sync";      ///< service-default I/O engine
  unsigned io_depth = 8;               ///< service-default queue depth
  bool readmit = false;
  std::uint64_t cache = 0;             ///< result-cache entries; 0 = off
  std::uint64_t cache_shards = 8;
  std::string tenants;                 ///< parse_tenant_policies() spec
  double idle_timeout = 300.0;         ///< seconds; 0 disables the sweep
  std::uint64_t max_connections = 64;
  bool print_stats = false;            ///< drain report + cache counters
  double watchdog_stall = 0.0;  ///< cancel jobs frozen this long; 0 = off
  double shed_queue = 0.0;      ///< shed jobs queued this long; 0 = off
  double drain_flush = 2.0;     ///< stop(): response flush window (seconds)
};

/// Parse the argv that follows the `serve` keyword. Throws plfoc::Error on
/// bad input or --help.
ServeConfig parse_serve_cli(int argc, const char* const* argv);

/// Start the server, print "serving on <host>:<port>" to `out`, then block
/// until `in` reaches EOF (or a line reading "stop"); shut down and print
/// the per-tenant drain report. Returns 0.
int run_serve_cli(const ServeConfig& config, std::istream& in,
                  std::ostream& out);

/// Configuration of the `plfoc-client` tool: submit a jobfile over the
/// socket and print results — the wire-transport twin of `plfoc batch`.
struct ClientConfig {
  std::string connect;       ///< host:port of a running `plfoc serve`
  std::string jobfile_path;  ///< positional or --jobs
  std::string tenant = "default";
  std::uint64_t request_base = 1;  ///< first request id (then sequential)
  bool print_stats = false;        ///< also fetch + print server stats
  /// Default per-job deadline in seconds (0 = none); a jobfile line's own
  /// deadline= key wins over this batch-wide default.
  double deadline = 0.0;
};

/// Parse plfoc-client argv (excluding argv[0]). The jobfile may lead as a
/// positional argument. Throws plfoc::Error on bad input or --help.
ClientConfig parse_client_cli(int argc, const char* const* argv);

/// Submit every jobfile entry over the socket, wait for all responses and
/// report them in submission order (same line format as `plfoc batch`).
/// Returns 0 when every job evaluated, 1 when any failed or was rejected.
int run_client_cli(const ClientConfig& config, std::ostream& out);

}  // namespace plfoc
