// plfoc_bench: the end-to-end benchmark.
//
//   plfoc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --workdir <dir> [--smoke]
//
// Generates its inputs from the seed, drives the library through its public
// calls for about --seconds, checks every result against an in-RAM
// reference, and prints two JSON lines: facts about the run (sizes, sample
// counts, input and result digests), then the result object with every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Exits 1 when a result is wrong, 2 when the run could not complete.
// Every file it writes, the out-of-core vector files included, goes under
// --workdir. run.py builds the program and calls it; see README.md.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "plfoc_bench: %s\nusage: plfoc_bench --workload "
               "search-dna|traverse-8x|serve-zipf|search-protein --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--smoke]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plfoc::e2e;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload")
        options.workload = value;
      else if (arg == "--seed")
        options.seed = std::stoull(value);
      else if (arg == "--seconds")
        options.seconds = std::stod(value);
      else if (arg == "--trace" && (value == "0" || value == "1"))
        options.trace = value == "1";
      else if (arg == "--workdir")
        options.workdir = value;
      else
        return usage(("bad argument " + arg + " " + value).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workdir.empty()) return usage("--workdir is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  // Session vector files go to $TMPDIR: keep them inside the work directory.
  ::setenv("TMPDIR", options.workdir.c_str(), 1);
  // A fixed mmap threshold stops glibc from raising it after the first
  // large free; large blocks then always return to the kernel when freed,
  // and peak RSS measures the program's own peak rather than how much heap
  // the allocator chose to keep.
  ::mallopt(M_MMAP_THRESHOLD, 64 * 1024);

  Report report(options.trace);
  try {
    if (options.workload == "search-dna")
      run_search_dna(options, report);
    else if (options.workload == "traverse-8x")
      run_traverse(options, report);
    else if (options.workload == "serve-zipf")
      run_serve(options, report);
    else if (options.workload == "search-protein")
      run_search_protein(options, report);
    else
      return usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "plfoc_bench: run failed: %s\n", error.what());
    return 2;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
