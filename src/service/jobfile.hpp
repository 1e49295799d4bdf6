// Jobfile parsing for `plfoc batch` and the service benchmarks.
//
// A jobfile describes one evaluation job per line:
//
//   <msa> <tree> <model> <backend> <f> [key=value ...]
//
//   msa      alignment file path
//   tree     Newick file path, or '-' for a stepwise-addition starting tree
//   model    jc | k80 | hky | gtr | poisson
//   backend  inram | ooc | paged | mmap
//   f        RAM fraction in (0,1], or '-' when unset (pair with budget=)
//
// Optional keys: name=, seed=, format= (fasta|phylip), data-type=
// (dna|protein), kappa=, categories=, alpha=, strategy= (random|lru|lfu|
// topological), budget= (ram_budget_bytes, RAxML's -L), faults= (a
// FaultConfig spec, e.g. faults=seed=7,rate=0.05 — commas are safe because
// jobfile fields split on whitespace), io-retries= (per-job retry budget;
// 0 disables retrying), threads= (kernel threads for this job; unset lines
// inherit the batch --threads default — see docs/parallelism.md),
// io-engine= (sync|threads|uring|deterministic; unset lines inherit the
// batch --io-engine default), io-depth= (async submission-queue depth;
// unset lines inherit --io-depth — see docs/async-io.md) and deadline=
// (relative deadline in seconds, armed when the service accepts the job;
// 0 = none — see docs/robustness.md "Deadlines, cancellation, and
// overload"). Blank lines and `#` comments are skipped. See docs/service.md for worked
// examples and docs/robustness.md for the fault model.
//
// The file also exports the name -> enum/model helpers shared with the CLI
// driver, so `--backend ooc` on the command line and `ooc` in a jobfile can
// never drift apart.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "model/rate_matrix.hpp"
#include "msa/alignment.hpp"
#include "service/job.hpp"

namespace plfoc {

/// One parsed (not yet loaded) jobfile line.
struct JobFileEntry {
  std::size_t line = 0;  ///< 1-based line number, for error messages
  std::string msa_path;
  std::string tree_path;  ///< "-": stepwise-addition tree seeded by `seed`
  std::string model = "gtr";
  std::string backend = "inram";
  double ram_fraction = 0.0;  ///< 0 when the f column was '-'
  std::string name;           ///< empty: service default "job-<id>"
  std::string format = "fasta";
  std::string data_type = "dna";
  std::string strategy = "lru";
  double kappa = 2.0;
  unsigned categories = 4;
  double alpha = 1.0;
  std::uint64_t seed = 42;
  std::uint64_t budget_bytes = 0;  ///< budget= key (bytes, RAxML's -L)
  std::string faults;     ///< faults= key, FaultConfig spec ('' = inherit)
  long long io_retries = -1;  ///< io-retries= key; -1 = inherit batch default
  unsigned threads = 0;  ///< threads= key; 0 = inherit the service default
  std::string io_engine;  ///< io-engine= key ('' = inherit batch default)
  long long io_depth = -1;  ///< io-depth= key; -1 = inherit batch default
  double deadline_seconds = 0;  ///< deadline= key (seconds; 0 = none)
};

/// Shared CLI/jobfile/wire vocabulary. The parsers throw plfoc::Error on
/// unknown names; parse_backend_name(backend_name(b)) == b for every b.
const char* backend_name(Backend backend);
Backend parse_backend_name(const std::string& name);
DataType parse_data_type_name(const std::string& name);
/// Throws plfoc::Error unless build_named_model knows `model`.
void check_model_name(const std::string& model);
/// `kappa` feeds k80/hky; frequency-parameterised models (hky, gtr) use the
/// alignment's empirical base frequencies (the CLI driver's convention),
/// which the first overload counts only for those models.
SubstitutionModel build_named_model(const std::string& model, double kappa,
                                    const Alignment& alignment);
SubstitutionModel build_named_model(const std::string& model, double kappa,
                                    const std::vector<double>& frequencies);

/// Parse jobfile lines from a stream; throws plfoc::Error with the line
/// number on malformed input.
std::vector<JobFileEntry> parse_job_lines(std::istream& in);
std::vector<JobFileEntry> read_job_file(const std::string& path);

/// Load the entry's files and build the submittable spec. Throws
/// plfoc::Error (file, parse, or model problems) tagged with the line.
JobSpec load_job(const JobFileEntry& entry);

/// Load just the entry's alignment (format / data-type applied):
/// parse_entry_alignment over read_entry_alignment_bytes.
Alignment load_entry_alignment(const JobFileEntry& entry);

/// The entry's alignment file, read whole. Throws plfoc::Error tagged with
/// the line for an unknown format or data type, or an unreadable file. The
/// serving tier compares these bytes against its memo of bound alignments
/// (net/server.hpp), so an edited file is never served stale.
std::string read_entry_alignment_bytes(const JobFileEntry& entry);
/// Parse alignment bytes in the entry's format and data type.
Alignment parse_entry_alignment(const JobFileEntry& entry,
                                const std::string& bytes);

/// Assemble the submittable spec from already-loaded pieces. Applies the
/// entry's model/backend/session keys exactly like load_job; throws
/// plfoc::Error tagged with the entry's line.
JobSpec make_job_spec(const JobFileEntry& entry, Alignment alignment,
                      Tree tree);
/// The same spec over a shared alignment: the model takes its memoised
/// frequencies, and the spec carries the pointer, not a copy.
JobSpec make_job_spec(const JobFileEntry& entry,
                      std::shared_ptr<const SharedAlignment> shared,
                      Tree tree);

/// Derive an alignment's SharedAlignment: its empirical frequencies, its
/// cache-key prefix and its pattern alignment, each computed once here.
std::shared_ptr<const SharedAlignment> share_alignment(Alignment alignment);

}  // namespace plfoc
