// traverse-8x: the paper's Fig. 5 worst case — repeated full traversals
// (every ancestral vector recomputed, minimal locality) with the vectors
// 8x larger than the out-of-core RAM budget, LRU, no pattern compression.
// The same storage layer as search-dna, but write-heavy (read skipping
// removes nearly every read) under a newview-only kernel mix: a store change
// that helps search-dna's hit path but slows write-back shows here.
#include <algorithm>
#include <memory>
#include <string>

#include "host_speed.hpp"
#include "msa/fasta.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "trace.hpp"

namespace plfoc::e2e {
namespace {

SessionOptions traverse_options(std::uint64_t budget_bytes) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_budget_bytes = budget_bytes;
  options.policy = ReplacementPolicy::kLru;
  options.compress_patterns = false;  // keep the planned footprint exact
  return options;
}

}  // namespace

void run_traverse(const RunOptions& options, Report& report) {
  const std::size_t taxa = options.smoke ? 64 : 1024;
  const std::uint64_t vector_bytes = options.smoke ? 4ull << 20 : 256ull << 20;
  const std::uint64_t budget = vector_bytes / 8;
  const std::size_t trace_units = 4;

  DatasetPlan plan;
  plan.num_taxa = taxa;
  plan.target_ancestral_bytes = vector_bytes;
  plan.seed = unit_seed(options.seed, 0);
  const PlannedDataset data = make_dna_dataset(plan);
  const std::string path = options.workdir + "/traverse.fasta";
  write_fasta_file(path, data.alignment);
  Digest input_digest;
  for (std::size_t t = 0; t < data.alignment.num_taxa(); ++t)
    input_digest.add(data.alignment.text(t));

  std::vector<double> parse_s;
  std::vector<double> build_s;
  // One timed set-up: parse the FASTA file, build the out-of-core Session.
  const auto set_up = [&] {
    const double t0 = now_seconds();
    Alignment alignment = read_fasta_file(path, DataType::kDna);
    const double t1 = now_seconds();
    auto built = std::make_unique<Session>(std::move(alignment), data.tree,
                                           benchmark_gtr(),
                                           traverse_options(budget));
    const double t2 = now_seconds();
    parse_s.push_back(t1 - t0);
    build_s.push_back(t2 - t1);
    return built;
  };
  std::unique_ptr<Session> session = set_up();

  Tracer tracer;
  StoreLayerTotals totals;
  std::size_t traversals = 0;
  std::vector<double> overhead;
  std::vector<double> results;
  double rss = 0.0;
  // Most of a traversal is the store writing vectors into the page cache.
  UnitTimings timings(Reference::kFileWrite, /*busy_includes_setup=*/false,
                      options.workdir);
  UnitWindow window(options.seconds, options.trace ? trace_units : 3);
  for (std::size_t i = 0; window.more(); ++i) {
    report.attempt();
    // The host's speed on this thread, right before and after the unit.
    const double before = timings.time_reference();
    const double unit_start = now_seconds();
    // Another set-up per traversal, of a Session thrown away at once, so
    // that set-up is timed all through the window like the traversals.
    set_up();
    // Memory of the traversals alone, without that second Session.
    reset_peak_rss();
    double plain = 0.0;
    double traced = 0.0;
    for (int side = 0; side < (options.trace ? 2 : 1); ++side) {
      if (!options.trace || (side == 0) == (i % 2 == 0)) {
        const double start = now_seconds();
        results.push_back(session->engine().full_traversal_log_likelihood());
        plain = now_seconds() - start;
        continue;
      }
      // A fresh decorator and engine per traced traversal, over the same
      // store: the counters then cover exactly this traversal.
      TimedStore timed(session->store());
      ModelConfig config;
      config.substitution = benchmark_gtr();
      config.categories = session->options().categories;
      config.alpha = session->options().alpha;
      LikelihoodEngine engine(session->alignment(), session->tree(),
                              std::move(config), timed);
      const int span = tracer.open("traversal");
      results.push_back(engine.full_traversal_log_likelihood());
      traced = tracer.close(span);
      if (i < trace_units) totals.add(timed, traced);
    }
    rss = std::max(rss, peak_rss_mib());
    timings.add(parse_s.back() + build_s.back(), plain, before,
                timings.time_reference());
    ++traversals;
    if (options.trace) overhead.push_back(traced / plain - 1.0);
    window.record(now_seconds() - unit_start);
  }
  session.reset();

  // Correctness gate, after timing: every traversal equals an in-RAM one.
  SessionOptions inram = traverse_options(0);
  inram.backend = Backend::kInRam;
  Session reference(data.alignment, data.tree, benchmark_gtr(), inram);
  std::vector<double> inram_s;
  double expected = 0.0;
  for (int i = 0; i < (options.trace ? 3 : 1); ++i) {
    const double start = now_seconds();
    expected = reference.engine().full_traversal_log_likelihood();
    inram_s.push_back(now_seconds() - start);
  }
  std::size_t wrong = 0;
  for (const double value : results) wrong += value != expected;
  if (wrong > 0) {
    report.failed_unit(wrong);
    report.fail(std::to_string(wrong) +
                " traversals differ from the in-RAM traversal");
  }

  Digest result_digest;
  result_digest.add_double(expected);
  report.info("taxa", static_cast<double>(taxa));
  report.info("sites", static_cast<double>(data.alignment.num_sites()));
  report.info("vector_mib", static_cast<double>(vector_bytes) / 1048576.0);
  report.info("budget_mib", static_cast<double>(budget) / 1048576.0);
  report.info("traversals", static_cast<double>(traversals));
  report.info("input_digest", input_digest.hex());
  report.info("result_digest", result_digest.hex());
  report.timings(timings.scaled(), timings.raw(), timings.median_scale());
  report.metric("peak_rss_mib", rss);
  if (!options.trace) return;

  report.info("traced_units", static_cast<double>(trace_units));
  report.metric("msa.parse_s", median(parse_s));
  report.metric("session.build_s", median(build_s));
  totals.emit(report);
  report.metric("likelihood.inram_traversal_s", median(inram_s));
  report.metric("trace.overhead", median(overhead));
  tracer.write_json(options.workdir + "/trace-traverse-8x.json");
}

}  // namespace plfoc::e2e
