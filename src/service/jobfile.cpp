#include "service/jobfile.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "msa/fasta.hpp"
#include "msa/phylip.hpp"
#include "ooc/aio.hpp"
#include "ooc/replacement.hpp"
#include "search/stepwise.hpp"
#include "tree/newick.hpp"
#include "util/checks.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

Error line_error(std::size_t line, const std::string& what) {
  return Error("jobfile line " + std::to_string(line) + ": " + what);
}

double parse_double(std::size_t line, const std::string& key,
                    const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw line_error(line, "bad numeric value '" + value + "' for " + key);
}

std::uint64_t parse_uint(std::size_t line, const std::string& key,
                         const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw line_error(line, "bad integer value '" + value + "' for " + key);
}

void apply_key(JobFileEntry* entry, const std::string& key,
               const std::string& value) {
  const std::size_t line = entry->line;
  if (key == "name") {
    entry->name = value;
  } else if (key == "seed") {
    entry->seed = parse_uint(line, key, value);
  } else if (key == "format") {
    entry->format = value;
  } else if (key == "data-type") {
    entry->data_type = value;
  } else if (key == "kappa") {
    entry->kappa = parse_double(line, key, value);
  } else if (key == "categories") {
    entry->categories =
        static_cast<unsigned>(parse_uint(line, key, value));
  } else if (key == "alpha") {
    entry->alpha = parse_double(line, key, value);
  } else if (key == "strategy") {
    entry->strategy = value;
  } else if (key == "budget") {
    entry->budget_bytes = parse_uint(line, key, value);
  } else if (key == "faults") {
    entry->faults = value;
  } else if (key == "io-retries") {
    entry->io_retries =
        static_cast<long long>(parse_uint(line, key, value));
  } else if (key == "threads") {
    entry->threads = static_cast<unsigned>(parse_uint(line, key, value));
  } else if (key == "io-engine") {
    entry->io_engine = value;
  } else if (key == "io-depth") {
    entry->io_depth = static_cast<long long>(parse_uint(line, key, value));
  } else if (key == "deadline") {
    entry->deadline_seconds = parse_double(line, key, value);
    if (entry->deadline_seconds < 0)
      throw line_error(line, "deadline must be >= 0 seconds");
  } else {
    throw line_error(line, "unknown option '" + key + "'");
  }
}

/// The entry format as error messages spell it; throws on an unknown one.
const char* format_label(const std::string& format) {
  if (format == "fasta") return "FASTA";
  if (format == "phylip") return "PHYLIP";
  throw Error("unknown format '" + format + "' (fasta | phylip)");
}

}  // namespace

namespace {

struct BackendName {
  Backend backend;
  const char* name;
};

constexpr BackendName kBackendNames[] = {
    {Backend::kInRam, "inram"},
    {Backend::kOutOfCore, "ooc"},
    {Backend::kPaged, "paged"},
    {Backend::kMmap, "mmap"},
};

}  // namespace

const char* backend_name(Backend backend) {
  for (const BackendName& entry : kBackendNames)
    if (entry.backend == backend) return entry.name;
  return "?";
}

Backend parse_backend_name(const std::string& name) {
  std::string choices;
  for (const BackendName& entry : kBackendNames) {
    if (name == entry.name) return entry.backend;
    choices += choices.empty() ? "" : " | ";
    choices += entry.name;
  }
  throw Error("unknown backend '" + name + "' (" + choices + ")");
}

DataType parse_data_type_name(const std::string& name) {
  if (name == "dna") return DataType::kDna;
  if (name == "protein") return DataType::kProtein;
  throw Error("unknown data type '" + name + "' (dna | protein)");
}

void check_model_name(const std::string& model) {
  for (const char* name : {"jc", "k80", "hky", "gtr", "poisson"})
    if (model == name) return;
  throw Error("unknown model '" + model +
              "' (jc | k80 | hky | gtr | poisson)");
}

SubstitutionModel build_named_model(const std::string& model, double kappa,
                                    const Alignment& alignment) {
  check_model_name(model);
  if (model == "jc") return jc69();
  if (model == "k80") return k80(kappa);
  if (model == "hky") return hky85(kappa, alignment.empirical_frequencies());
  if (model == "gtr")
    return gtr({1.0, 2.0, 1.0, 1.0, 2.0, 1.0},
               alignment.empirical_frequencies());
  return poisson_protein();
}

std::vector<JobFileEntry> parse_job_lines(std::istream& in) {
  std::vector<JobFileEntry> entries;
  std::string raw;
  std::size_t line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream fields(raw);
    JobFileEntry entry;
    entry.line = line;
    std::string fraction;
    if (!(fields >> entry.msa_path)) continue;  // blank / comment-only line
    if (!(fields >> entry.tree_path >> entry.model >> entry.backend >>
          fraction))
      throw line_error(line,
                       "expected '<msa> <tree> <model> <backend> <f>'");
    if (fraction != "-") {
      entry.ram_fraction = parse_double(line, "f", fraction);
      if (entry.ram_fraction <= 0.0 || entry.ram_fraction > 1.0)
        throw line_error(line, "f must be in (0, 1] or '-'");
    }
    std::string option;
    while (fields >> option) {
      const std::size_t eq = option.find('=');
      if (eq == std::string::npos || eq == 0)
        throw line_error(line, "expected key=value, got '" + option + "'");
      apply_key(&entry, option.substr(0, eq), option.substr(eq + 1));
    }
    // Fail on vocabulary typos at parse time, before any file I/O.
    try {
      parse_backend_name(entry.backend);
      parse_data_type_name(entry.data_type);
      parse_policy(entry.strategy);
      if (!entry.faults.empty()) FaultConfig::parse(entry.faults);
      if (!entry.io_engine.empty()) parse_aio_engine(entry.io_engine);
    } catch (const Error& error) {
      throw line_error(line, error.what());
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<JobFileEntry> read_job_file(const std::string& path) {
  std::ifstream in(path);
  PLFOC_REQUIRE(in.good(), "cannot open jobfile '" + path + "'");
  return parse_job_lines(in);
}

std::string read_entry_alignment_bytes(const JobFileEntry& entry) {
  try {
    parse_data_type_name(entry.data_type);
    const char* label = format_label(entry.format);
    std::ifstream in(entry.msa_path, std::ios::binary);
    PLFOC_REQUIRE(in.good(), std::string("cannot open ") + label +
                                 " file '" + entry.msa_path + "'");
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return std::move(bytes).str();
  } catch (const Error& error) {
    throw line_error(entry.line, error.what());
  }
}

Alignment parse_entry_alignment(const JobFileEntry& entry,
                                const std::string& bytes) {
  try {
    const DataType data_type = parse_data_type_name(entry.data_type);
    format_label(entry.format);
    std::istringstream in(bytes);
    return entry.format == "fasta" ? read_fasta(in, data_type)
                                   : read_phylip(in, data_type);
  } catch (const Error& error) {
    throw line_error(entry.line, error.what());
  }
}

Alignment load_entry_alignment(const JobFileEntry& entry) {
  return parse_entry_alignment(entry, read_entry_alignment_bytes(entry));
}

JobSpec make_job_spec(const JobFileEntry& entry, Alignment alignment,
                      Tree tree) {
  try {
    PLFOC_REQUIRE(tree.num_taxa() == alignment.num_taxa(),
                  "tree and alignment have different taxon counts");
    SubstitutionModel model =
        build_named_model(entry.model, entry.kappa, alignment);
    JobSpec spec{entry.name, std::move(alignment), std::move(tree),
                 std::move(model), SessionOptions{}, /*tenant=*/""};
    spec.session.categories = entry.categories;
    spec.session.alpha = entry.alpha;
    spec.session.backend = parse_backend_name(entry.backend);
    spec.session.ram_fraction = entry.ram_fraction;
    spec.session.ram_budget_bytes = entry.budget_bytes;
    spec.session.policy = parse_policy(entry.strategy);
    spec.session.seed = entry.seed;
    // 0 = "inherit": the service substitutes its kernel_threads default at
    // admission time; the Session itself normalises a remaining 0 to 1.
    spec.session.threads = entry.threads;
    if (!entry.faults.empty())
      spec.session.faults = FaultConfig::parse(entry.faults);
    if (entry.io_retries >= 0)
      spec.session.io_retry.max_retries =
          static_cast<unsigned>(entry.io_retries);
    if (!entry.io_engine.empty())
      spec.session.io_engine = parse_aio_engine(entry.io_engine);
    if (entry.io_depth >= 0)
      spec.session.io_depth = static_cast<unsigned>(entry.io_depth);
    spec.deadline_seconds = entry.deadline_seconds;
    return spec;
  } catch (const Error& error) {
    throw line_error(entry.line, error.what());
  }
}

JobSpec load_job(const JobFileEntry& entry) {
  Alignment alignment = load_entry_alignment(entry);
  try {
    Tree tree = [&] {
      if (entry.tree_path != "-") return read_newick_file(entry.tree_path);
      Rng rng(entry.seed);
      return stepwise_addition_tree(alignment, rng);
    }();
    return make_job_spec(entry, std::move(alignment), std::move(tree));
  } catch (const Error& error) {
    // make_job_spec tags its own errors; only tag the tree-loading path,
    // identified by the absence of the line prefix.
    const std::string what = error.what();
    const std::string prefix =
        "jobfile line " + std::to_string(entry.line) + ":";
    if (what.compare(0, prefix.size(), prefix) == 0) throw;
    throw line_error(entry.line, what);
  }
}

}  // namespace plfoc
