// Microbenchmarks of the PLF inner loops (google-benchmark): newview and
// branch evaluation across state counts, child kinds and Γ settings. These
// support the experiment harnesses by quantifying the pure compute cost per
// ancestral-vector element, independent of storage.
//
// Thread-scaling mode (docs/parallelism.md): `kernels --json <path>
// [--threads 1,2,4]` skips google-benchmark and instead sweeps the
// block-parallel kernels over patterns x categories x threads, writing a
// machine-readable JSON report with per-cell throughput and speedup_vs_1,
// both from the median of five timing windows (min and max are reported).
// A last `stepwise_addition` row times one 384 x 200 DNA start tree the
// same way, so the set-up cost of a search is tracked next to the kernels.
// CI's bench smoke runs this at --threads 1,2 and uploads the artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "likelihood/kernel_pool.hpp"
#include "likelihood/kernels.hpp"
#include "model/eigen.hpp"
#include "model/gamma.hpp"
#include "model/protein_matrices.hpp"
#include "model/rate_matrix.hpp"
#include "model/transition.hpp"
#include "msa/datatype.hpp"
#include "msa/fasta.hpp"
#include "search/stepwise.hpp"
#include "sim/simulate.hpp"
#include "tree/random_tree.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace plfoc {
namespace {

struct KernelFixture {
  KernelDims dims;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<double> parent;
  std::vector<std::int32_t> lscale;
  std::vector<std::int32_t> rscale;
  std::vector<std::int32_t> pscale;
  std::vector<double> pmat_left;
  std::vector<double> pmat_right;
  std::vector<std::uint8_t> codes;
  std::vector<double> lookup;
  std::vector<double> indicator;  ///< 0/1 state row of every code
  std::vector<double> freqs;
  std::vector<double> weights;
  EigenSystem eigen;

  KernelFixture(std::size_t patterns, unsigned categories, unsigned states)
      : dims{patterns, categories, states} {
    const std::size_t width =
        patterns * categories * states;
    Rng rng(7);
    left.resize(width);
    right.resize(width);
    parent.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      left[i] = rng.uniform(0.01, 1.0);
      right[i] = rng.uniform(0.01, 1.0);
    }
    lscale.assign(patterns, 0);
    rscale.assign(patterns, 0);
    pscale.assign(patterns, 0);
    eigen = (states == 4) ? decompose(jc69())
                          : decompose(synthetic_protein_model(3));
    const std::vector<double> rates =
        discrete_gamma_rates(0.6, categories);
    category_transition_matrices(eigen, 0.13, rates, pmat_left);
    category_transition_matrices(eigen, 0.29, rates, pmat_right);
    codes.resize(patterns);
    const unsigned ncodes = states == 4 ? 16 : 24;
    for (std::size_t p = 0; p < patterns; ++p)
      codes[p] = static_cast<std::uint8_t>(
          states == 4 ? 1u << rng.below(4) : rng.below(20));
    lookup.assign(static_cast<std::size_t>(ncodes) * categories * states, 0.3);
    const DataType type = states == 4 ? DataType::kDna : DataType::kProtein;
    indicator.assign(static_cast<std::size_t>(ncodes) * states, 0.0);
    for (unsigned code = type == DataType::kDna ? 1 : 0; code < ncodes; ++code)
      for (unsigned x = 0; x < states; ++x)
        indicator[code * states + x] =
            (code_state_mask(type, static_cast<std::uint8_t>(code)) >> x) & 1u
                ? 1.0
                : 0.0;
    freqs.assign(states, 1.0 / states);
    weights.assign(patterns, 1.0);
  }

  NewviewChild inner_left() const {
    return {left.data(), lscale.data(), pmat_left.data(), nullptr, nullptr};
  }
  NewviewChild inner_right() const {
    return {right.data(), rscale.data(), pmat_right.data(), nullptr, nullptr};
  }
  NewviewChild tip_child() const {
    return {nullptr, nullptr, nullptr, codes.data(), lookup.data()};
  }
  /// The one-hot tip codes as an evaluate_branch near side.
  EvalSide tip_near() const {
    return {nullptr, nullptr, codes.data(), indicator.data()};
  }

  /// dP and d²P of the left branch for every category: one Newton step's
  /// derivative matrices.
  void derivative_matrices(std::vector<double>& dmat,
                           std::vector<double>& d2mat) const {
    dmat.resize(pmat_left.size());
    d2mat.resize(pmat_left.size());
    const std::size_t matrix = static_cast<std::size_t>(dims.states) *
                               dims.states;
    for (unsigned c = 0; c < dims.categories; ++c)
      transition_derivatives(eigen, 0.13, nullptr, dmat.data() + c * matrix,
                             d2mat.data() + c * matrix);
  }
};

void BM_NewviewInnerInner(benchmark::State& state) {
  KernelFixture fx(static_cast<std::size_t>(state.range(0)),
                   static_cast<unsigned>(state.range(1)),
                   static_cast<unsigned>(state.range(2)));
  for (auto _ : state) {
    newview(fx.dims, fx.inner_left(), fx.inner_right(), fx.parent.data(),
            fx.pscale.data());
    benchmark::DoNotOptimize(fx.parent.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.dims.patterns));
}
// {200, 4, 4} is search-dna's geometry; {203, 4, 4} leaves 3 patterns over
// after the 4-state kernel's four-pattern groups.
BENCHMARK(BM_NewviewInnerInner)
    ->Args({1200, 4, 4})
    ->Args({200, 4, 4})
    ->Args({203, 4, 4})
    ->Args({1200, 1, 4})
    ->Args({1200, 4, 20})
    ->Args({10000, 4, 4});

void BM_NewviewTipTip(benchmark::State& state) {
  KernelFixture fx(static_cast<std::size_t>(state.range(0)), 4,
                   static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    newview(fx.dims, fx.tip_child(), fx.tip_child(), fx.parent.data(),
            fx.pscale.data());
    benchmark::DoNotOptimize(fx.parent.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.dims.patterns));
}
BENCHMARK(BM_NewviewTipTip)
    ->Args({1200, 4})
    ->Args({200, 4})
    ->Args({203, 4})
    ->Args({10000, 4});

void BM_NewviewTipInner(benchmark::State& state) {
  KernelFixture fx(static_cast<std::size_t>(state.range(0)), 4,
                   static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    newview(fx.dims, fx.tip_child(), fx.inner_right(), fx.parent.data(),
            fx.pscale.data());
    benchmark::DoNotOptimize(fx.parent.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.dims.patterns));
}
BENCHMARK(BM_NewviewTipInner)
    ->Args({1200, 4})
    ->Args({200, 4})
    ->Args({203, 4})
    ->Args({10000, 4})
    ->Args({1200, 20});

void BM_EvaluateBranch(benchmark::State& state) {
  KernelFixture fx(static_cast<std::size_t>(state.range(0)),
                   static_cast<unsigned>(state.range(1)),
                   static_cast<unsigned>(state.range(2)));
  EvalSide near_side{fx.left.data(), fx.lscale.data()};
  EvalSide far_side{fx.right.data(), fx.rscale.data()};
  for (auto _ : state) {
    const BranchValue value =
        evaluate_branch(fx.dims, fx.freqs.data(), fx.weights.data(), near_side,
                        far_side, fx.pmat_left.data(), nullptr, nullptr,
                        false);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.dims.patterns));
}
BENCHMARK(BM_EvaluateBranch)
    ->Args({1200, 4, 4})
    ->Args({1200, 4, 20})
    ->Args({10000, 4, 4});

void BM_EvaluateWithDerivatives(benchmark::State& state) {
  KernelFixture fx(static_cast<std::size_t>(state.range(0)), 4,
                   static_cast<unsigned>(state.range(1)));
  std::vector<double> dmat;
  std::vector<double> d2mat;
  fx.derivative_matrices(dmat, d2mat);
  EvalSide near_side{fx.left.data(), fx.lscale.data()};
  EvalSide far_side{fx.right.data(), fx.rscale.data()};
  for (auto _ : state) {
    const BranchValue value = evaluate_branch(
        fx.dims, fx.freqs.data(), fx.weights.data(), near_side, far_side,
        fx.pmat_left.data(), dmat.data(), d2mat.data(), true);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.dims.patterns));
}
// {200, 4} is search-dna's pattern count; {203, 4} leaves 3 patterns over
// after the 4-state kernel's four-pattern groups.
BENCHMARK(BM_EvaluateWithDerivatives)
    ->Args({1200, 4})
    ->Args({200, 4})
    ->Args({203, 4})
    ->Args({1200, 20});

// Newton's kernel with a tip on the near side: every code is one-hot.
// {256, 20} is search-protein's pattern count, {200, 4} search-dna's.
void BM_EvaluateTipNear(benchmark::State& state) {
  KernelFixture fx(static_cast<std::size_t>(state.range(0)), 4,
                   static_cast<unsigned>(state.range(1)));
  std::vector<double> dmat;
  std::vector<double> d2mat;
  fx.derivative_matrices(dmat, d2mat);
  const EvalSide far_side{fx.right.data(), fx.rscale.data()};
  for (auto _ : state) {
    const BranchValue value = evaluate_branch(
        fx.dims, fx.freqs.data(), fx.weights.data(), fx.tip_near(), far_side,
        fx.pmat_left.data(), dmat.data(), d2mat.data(), true);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.dims.patterns));
}
BENCHMARK(BM_EvaluateTipNear)->Args({256, 20})->Args({200, 4});

void BM_TransitionMatrix(benchmark::State& state) {
  const EigenSystem eigen = state.range(0) == 4
                                ? decompose(jc69())
                                : decompose(synthetic_protein_model(3));
  const std::vector<double> rates = discrete_gamma_rates(0.6, 4);
  std::vector<double> pmats;
  for (auto _ : state) {
    category_transition_matrices(eigen, 0.2, rates, pmats);
    benchmark::DoNotOptimize(pmats.data());
  }
}
BENCHMARK(BM_TransitionMatrix)->Arg(4)->Arg(20);

// One Newton iteration's matrix build: P, dP and d²P for every category.
void BM_TransitionDerivatives(benchmark::State& state) {
  const EigenSystem eigen = state.range(0) == 4
                                ? decompose(jc69())
                                : decompose(synthetic_protein_model(3));
  const std::vector<double> rates = discrete_gamma_rates(0.6, 4);
  std::vector<double> p;
  std::vector<double> dp;
  std::vector<double> d2p;
  for (auto _ : state) {
    category_transition_derivatives(eigen, 0.2, rates, p, dp, d2p);
    benchmark::DoNotOptimize(p.data());
    benchmark::DoNotOptimize(dp.data());
    benchmark::DoNotOptimize(d2p.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TransitionDerivatives)->Arg(4)->Arg(20);

// The socket server's submit path: parse the server-side FASTA, then count
// its GTR frequencies. Text is written the way write_fasta_file writes it
// (80 columns), with about 2% gaps and ambiguity codes.
std::string random_fasta_text(std::size_t taxa, std::size_t sites,
                              DataType type) {
  const std::string common =
      type == DataType::kDna ? "ACGT" : "ARNDCQEGHILKMFPSTWYV";
  const std::string rare = type == DataType::kDna ? "-NRY" : "-XBZ";
  Rng rng(11);
  Alignment alignment(type, sites);
  std::string row(sites, ' ');
  for (std::size_t t = 0; t < taxa; ++t) {
    for (char& c : row)
      c = rng.below(50) == 0 ? rare[rng.below(rare.size())]
                             : common[rng.below(common.size())];
    alignment.add_sequence("taxon" + std::to_string(t), row);
  }
  std::ostringstream out;
  write_fasta(out, alignment);
  return out.str();
}

void BM_ReadFasta(benchmark::State& state) {
  const std::string text = random_fasta_text(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)), DataType::kDna);
  for (auto _ : state) {
    std::istringstream in(text);
    const Alignment alignment = read_fasta(in, DataType::kDna);
    benchmark::DoNotOptimize(alignment.row(0).data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadFasta)
    ->Args({128, 1000})
    ->Args({1024, 2000})
    ->Unit(benchmark::kMicrosecond);

void BM_EmpiricalFrequencies(benchmark::State& state) {
  const DataType type =
      state.range(0) == 4 ? DataType::kDna : DataType::kProtein;
  std::istringstream in(random_fasta_text(128, 1000, type));
  const Alignment alignment = read_fasta(in, type);
  for (auto _ : state) {
    const std::vector<double> freqs = alignment.empirical_frequencies();
    benchmark::DoNotOptimize(freqs.data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * 1000);
}
BENCHMARK(BM_EmpiricalFrequencies)
    ->Arg(4)
    ->Arg(20)
    ->Unit(benchmark::kMicrosecond);

// The parsimony starting tree every search builds first: taxa x sites x
// states, with the search workloads' shapes (384 x 200 DNA out of core,
// 8 x 256 protein in RAM).
Alignment stepwise_alignment(std::size_t taxa, std::size_t sites, bool dna) {
  Rng rng(17);
  const Tree truth = random_tree(taxa, rng);
  return simulate_alignment(truth, dna ? jc69() : poisson_protein(), sites,
                            rng, SimulationOptions{4, 0.6});
}

void build_start_tree(const Alignment& alignment) {
  Rng order(3);
  const Tree tree = stepwise_addition_tree(alignment, order);
  benchmark::DoNotOptimize(tree.num_nodes());
}

void BM_StepwiseAddition(benchmark::State& state) {
  const auto taxa = static_cast<std::size_t>(state.range(0));
  const auto sites = static_cast<std::size_t>(state.range(1));
  const Alignment alignment =
      stepwise_alignment(taxa, sites, state.range(2) == 4);
  for (auto _ : state) build_start_tree(alignment);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(taxa * sites));
}
BENCHMARK(BM_StepwiseAddition)
    ->Args({384, 200, 4})
    ->Args({8, 256, 20})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// --json mode: thread-scaling sweep with a machine-readable report.

/// Seconds per kernel call over kWindows timing windows.
struct CallTiming {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct SweepRow {
  const char* kernel;  ///< or "stepwise_addition": one start tree per call
  std::size_t patterns;
  unsigned categories;
  unsigned threads;
  unsigned states = 4;
  std::size_t taxa = 0;  ///< written only for the stepwise_addition row
  CallTiming seconds_per_call{};  ///< written as seconds_per_call (median),
                                  ///< seconds_per_call_min and _max
  double patterns_per_second = 0.0;  ///< from the median
  double speedup_vs_1 = 1.0;         ///< median against the 1-thread median
};

constexpr int kWindows = 5;
constexpr double kMinWindowSeconds = 0.02;

/// Wall-time one kernel invocation: scale the repetitions until one window
/// lasts kMinWindowSeconds, then time kWindows such windows. A single
/// window swings with whatever else the host runs; the median of several
/// does not, and min/max show the spread.
template <typename Fn>
CallTiming time_per_call(const Fn& fn) {
  fn();  // warm-up (page-in, pool wake-up)
  std::size_t reps = 1;
  for (;;) {
    Timer timer;
    for (std::size_t r = 0; r < reps; ++r) fn();
    if (timer.seconds() >= kMinWindowSeconds || reps >= (1u << 20)) break;
    reps *= 4;
  }
  std::array<double, kWindows> windows{};
  for (double& window : windows) {
    Timer timer;
    for (std::size_t r = 0; r < reps; ++r) fn();
    window = timer.seconds() / static_cast<double>(reps);
  }
  std::sort(windows.begin(), windows.end());
  return {windows[kWindows / 2], windows.front(), windows.back()};
}

/// Fill the derived columns from the median; `base` is the kernel's
/// 1-thread median, set by the first row of a thread sweep.
void finish_row(SweepRow& row, double& base) {
  const double median = row.seconds_per_call.median;
  row.patterns_per_second = static_cast<double>(row.patterns) / median;
  if (base == 0.0) base = median;
  row.speedup_vs_1 = base / median;
}

int run_json_sweep(const std::string& json_path,
                   const std::vector<unsigned>& thread_counts) {
  const std::size_t pattern_counts[] = {1024, 8192};
  const unsigned category_counts[] = {1, 4};
  std::vector<SweepRow> rows;

  for (const std::size_t patterns : pattern_counts) {
    for (const unsigned categories : category_counts) {
      KernelFixture fx(patterns, categories, 4);
      EvalSide near_side{fx.left.data(), fx.lscale.data()};
      EvalSide far_side{fx.right.data(), fx.rscale.data()};
      std::vector<double> dmat;
      std::vector<double> d2mat;
      fx.derivative_matrices(dmat, d2mat);
      // The tip-near row runs on 20 states, where evaluate_branch skips the
      // states a tip code rules out.
      KernelFixture protein(patterns, categories, 20);
      const EvalSide protein_far{protein.right.data(), protein.rscale.data()};
      std::vector<double> protein_dmat;
      std::vector<double> protein_d2mat;
      protein.derivative_matrices(protein_dmat, protein_d2mat);
      double newview_base = 0.0;
      double tip_inner_base = 0.0;
      double evaluate_base = 0.0;
      double derivatives_base = 0.0;
      double tip_base = 0.0;
      for (const unsigned threads : thread_counts) {
        KernelPool pool(threads);
        KernelPool* handle = threads > 1 ? &pool : nullptr;

        SweepRow nv{"newview", patterns, categories, threads};
        nv.seconds_per_call = time_per_call([&] {
          newview(fx.dims, fx.inner_left(), fx.inner_right(),
                  fx.parent.data(), fx.pscale.data(), handle);
          benchmark::DoNotOptimize(fx.parent.data());
        });
        finish_row(nv, newview_base);
        rows.push_back(nv);

        // A tip child and an inner one, the commonest child pair of
        // search-dna's newviews.
        SweepRow nvt{"newview_tip_inner", patterns, categories, threads};
        nvt.seconds_per_call = time_per_call([&] {
          newview(fx.dims, fx.tip_child(), fx.inner_right(), fx.parent.data(),
                  fx.pscale.data(), handle);
          benchmark::DoNotOptimize(fx.parent.data());
        });
        finish_row(nvt, tip_inner_base);
        rows.push_back(nvt);

        SweepRow ev{"evaluate_branch", patterns, categories, threads};
        ev.seconds_per_call = time_per_call([&] {
          const BranchValue value = evaluate_branch(
              fx.dims, fx.freqs.data(), fx.weights.data(), near_side,
              far_side, fx.pmat_left.data(), nullptr, nullptr, false, handle);
          benchmark::DoNotOptimize(value);
        });
        finish_row(ev, evaluate_base);
        rows.push_back(ev);

        // Newton's kernel: the same evaluation with both derivatives.
        SweepRow evd{"evaluate_branch_d", patterns, categories, threads};
        evd.seconds_per_call = time_per_call([&] {
          const BranchValue value = evaluate_branch(
              fx.dims, fx.freqs.data(), fx.weights.data(), near_side,
              far_side, fx.pmat_left.data(), dmat.data(), d2mat.data(), true,
              handle);
          benchmark::DoNotOptimize(value);
        });
        finish_row(evd, derivatives_base);
        rows.push_back(evd);

        // Newton's 20-state kernel with a one-hot tip on the near side.
        SweepRow tip{"evaluate_branch_d_tip", patterns, categories, threads,
                     20};
        tip.seconds_per_call = time_per_call([&] {
          const BranchValue value = evaluate_branch(
              protein.dims, protein.freqs.data(), protein.weights.data(),
              protein.tip_near(), protein_far, protein.pmat_left.data(),
              protein_dmat.data(), protein_d2mat.data(), true, handle);
          benchmark::DoNotOptimize(value);
        });
        finish_row(tip, tip_base);
        rows.push_back(tip);
      }
    }
  }

  // The start tree every search builds first, at search-dna's shape:
  // patterns holds the sites, and a call is the whole build.
  {
    const Alignment alignment = stepwise_alignment(384, 200, true);
    SweepRow row{"stepwise_addition", 200, 1, 1, 4, 384};
    row.seconds_per_call = time_per_call([&] { build_start_tree(alignment); });
    double base = 0.0;
    finish_row(row, base);
    rows.push_back(row);
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"kernels\",\n");
  std::fprintf(out, "  \"pattern_block\": %zu,\n", kPatternBlock);
  std::fprintf(out, "  \"windows_per_cell\": %d,\n", kWindows);
  std::fprintf(out, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    const std::string taxa =
        row.taxa == 0 ? "" : "\"taxa\": " + std::to_string(row.taxa) + ", ";
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"patterns\": %zu, "
                 "\"categories\": %u, \"states\": %u, \"threads\": %u, "
                 "%s\"seconds_per_call\": %.9e, "
                 "\"seconds_per_call_min\": %.9e, "
                 "\"seconds_per_call_max\": %.9e, "
                 "\"patterns_per_second\": %.6e, \"speedup_vs_1\": %.4f}%s\n",
                 row.kernel, row.patterns, row.categories, row.states,
                 row.threads, taxa.c_str(), row.seconds_per_call.median, row.seconds_per_call.min,
                 row.seconds_per_call.max, row.patterns_per_second,
                 row.speedup_vs_1, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %zu sweep rows to %s\n", rows.size(), json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace plfoc

int main(int argc, char** argv) {
  // --json <path> switches to the thread-scaling sweep; anything else is
  // handed to google-benchmark untouched.
  std::string json_path;
  std::vector<unsigned> thread_counts = {1, 2, 4};
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      const std::string list = argv[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::string item = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        const unsigned long value = std::strtoul(item.c_str(), nullptr, 10);
        if (value > 0) thread_counts.push_back(static_cast<unsigned>(value));
        pos = comma == std::string::npos ? list.size() : comma + 1;
      }
      if (thread_counts.empty()) thread_counts = {1};
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty())
    return plfoc::run_json_sweep(json_path, thread_counts);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
