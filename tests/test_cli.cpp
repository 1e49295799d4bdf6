#include "cli/driver.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "msa/fasta.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/newick.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

/// Per-process temp path: ctest runs each gtest case as its own process, in
/// parallel, so a fixed filename lets one process's teardown delete a file
/// another process is still reading.
std::string tmp_path(const std::string& name) {
  return "/tmp/plfoc_cli_" + std::to_string(::getpid()) + "_" + name;
}

/// Writes a small simulated dataset to temp files once per process.
class CliFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetPlan plan;
    plan.num_taxa = 12;
    plan.num_sites = 60;
    plan.seed = 99;
    const PlannedDataset data = make_dna_dataset(plan);
    msa_path_ = tmp_path("msa.fasta");
    tree_path_ = tmp_path("tree.nwk");
    write_fasta_file(msa_path_, data.alignment);
    write_newick_file(tree_path_, data.tree);
  }
  static void TearDownTestSuite() {
    std::remove(msa_path_.c_str());
    std::remove(tree_path_.c_str());
  }

  static CliConfig base_config() {
    CliConfig config;
    config.msa_path = msa_path_;
    config.tree_path = tree_path_;
    return config;
  }

  static std::string msa_path_;
  static std::string tree_path_;
};

std::string CliFixture::msa_path_;
std::string CliFixture::tree_path_;

CliConfig parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParse, DefaultsAndOverrides) {
  const CliConfig config =
      parse({"--msa", "x.fa", "--backend", "ooc", "--memory-limit", "1000000",
             "--strategy", "random", "--mode", "traverse", "--traversals",
             "3", "--no-read-skipping", "--stats"});
  EXPECT_EQ(config.msa_path, "x.fa");
  EXPECT_EQ(config.backend, "ooc");
  EXPECT_EQ(config.memory_limit, 1000000u);
  EXPECT_EQ(config.strategy, "random");
  EXPECT_EQ(config.mode, "traverse");
  EXPECT_EQ(config.traversals, 3u);
  EXPECT_TRUE(config.no_read_skipping);
  EXPECT_TRUE(config.print_stats);
  EXPECT_EQ(config.categories, 4u);  // default
}

TEST(CliParse, RequiresMsa) {
  EXPECT_THROW(parse({"--mode", "evaluate"}), Error);
}

TEST_F(CliFixture, EvaluateMode) {
  CliConfig config = base_config();
  std::ostringstream out;
  EXPECT_EQ(run_cli(config, out), 0);
  EXPECT_NE(out.str().find("logL = -"), std::string::npos);
}

TEST_F(CliFixture, EvaluateMatchesAcrossBackends) {
  const auto logl_line = [](const std::string& text) {
    const std::size_t at = text.find("logL = ");
    EXPECT_NE(at, std::string::npos);
    return text.substr(at, text.find('\n', at) - at);
  };
  CliConfig in_ram = base_config();
  std::ostringstream ram_out;
  run_cli(in_ram, ram_out);

  CliConfig ooc = base_config();
  ooc.backend = "ooc";
  ooc.ram_fraction = 0.3;
  ooc.strategy = "topological";
  std::ostringstream ooc_out;
  run_cli(ooc, ooc_out);
  EXPECT_EQ(logl_line(ram_out.str()), logl_line(ooc_out.str()));
}

TEST_F(CliFixture, TraverseModeReportsTiming) {
  CliConfig config = base_config();
  config.mode = "traverse";
  config.traversals = 2;
  config.backend = "ooc";
  config.ram_fraction = 0.25;
  config.print_stats = true;
  std::ostringstream out;
  EXPECT_EQ(run_cli(config, out), 0);
  EXPECT_NE(out.str().find("2 full traversals"), std::string::npos);
  EXPECT_NE(out.str().find("miss_rate"), std::string::npos);
}

TEST_F(CliFixture, SearchModeWritesTree) {
  CliConfig config = base_config();
  config.mode = "search";
  config.spr_rounds = 1;
  config.out_tree_path = tmp_path("out.nwk");
  std::ostringstream out;
  EXPECT_EQ(run_cli(config, out), 0);
  const Tree result = read_newick_file(config.out_tree_path);
  EXPECT_EQ(result.num_taxa(), 12u);
  std::remove(config.out_tree_path.c_str());
}

TEST_F(CliFixture, McmcMode) {
  CliConfig config = base_config();
  config.mode = "mcmc";
  config.mcmc_iterations = 100;
  std::ostringstream out;
  EXPECT_EQ(run_cli(config, out), 0);
  EXPECT_NE(out.str().find("mcmc: log posterior"), std::string::npos);
}

TEST_F(CliFixture, StepwiseStartWhenNoTreeGiven) {
  CliConfig config = base_config();
  config.tree_path.clear();
  std::ostringstream out;
  EXPECT_EQ(run_cli(config, out), 0);
  EXPECT_NE(out.str().find("stepwise-addition"), std::string::npos);
}

TEST_F(CliFixture, BadConfigurationsThrow) {
  {
    CliConfig config = base_config();
    config.format = "nexus";
    std::ostringstream out;
    EXPECT_THROW(run_cli(config, out), Error);
  }
  {
    CliConfig config = base_config();
    config.backend = "cloud";
    std::ostringstream out;
    try {
      run_cli(config, out);
      ADD_FAILURE() << "--backend cloud was accepted";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find(
                    "unknown backend 'cloud' (inram | ooc | paged | mmap)"),
                std::string::npos)
          << error.what();
    }
    // The name fails before the alignment is read.
    EXPECT_EQ(out.str().find("alignment:"), std::string::npos) << out.str();
  }
  // The other name options, --mode and --model among them, also fail typed
  // before any parse.
  for (std::string CliConfig::*name :
       {&CliConfig::strategy, &CliConfig::io_engine, &CliConfig::data_type,
        &CliConfig::mode, &CliConfig::model}) {
    CliConfig config = base_config();
    config.*name = "bogus";
    std::ostringstream out;
    EXPECT_THROW(run_cli(config, out), Error);
    EXPECT_EQ(out.str().find("alignment:"), std::string::npos) << out.str();
  }
  {
    CliConfig config = base_config();
    config.msa_path = "/nonexistent.fa";
    std::ostringstream out;
    EXPECT_THROW(run_cli(config, out), Error);
  }
}

// A run whose outputs cannot reach the disk must fail, not report them
// written; plfoc's main turns the Error into a non-zero exit status.
TEST_F(CliFixture, OutputWriteErrorsFailTheRun) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  CliConfig config = base_config();
  config.out_tree_path = "/dev/full";
  std::ostringstream out;
  EXPECT_THROW(run_cli(config, out), Error);
  EXPECT_EQ(out.str().find("tree written"), std::string::npos);
}

// plfoc has no checkpoint options: the parser rejects both spellings as
// unknown flags, before the missing alignment would be opened.
TEST(CliParse, RemovedCheckpointFlagsAreRejected) {
  for (const char* flag : {"--save-checkpoint", "--load-checkpoint"}) {
    std::ostringstream out;
    try {
      const CliConfig config =
          parse({"--msa", "/nonexistent.fa", flag, "x"});
      run_cli(config, out);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("unknown flag '" + std::string(flag) + "'"),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(out.str().find("alignment:"), std::string::npos) << out.str();
  }
}

TEST_F(CliFixture, K80AndJcModels) {
  for (const char* model : {"jc", "k80", "hky"}) {
    CliConfig config = base_config();
    config.model = model;
    std::ostringstream out;
    EXPECT_EQ(run_cli(config, out), 0) << model;
  }
}

BatchConfig parse_batch(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return parse_batch_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliBatchParse, PositionalJobfileAndFlags) {
  const BatchConfig config = parse_batch(
      {"jobs.txt", "--workers", "4", "--ram-budget", "1048576", "--stats"});
  EXPECT_EQ(config.jobfile_path, "jobs.txt");
  EXPECT_EQ(config.workers, 4u);
  EXPECT_EQ(config.ram_budget, 1048576u);
  EXPECT_TRUE(config.print_stats);
  EXPECT_EQ(config.queue_capacity, 64u);  // default
}

TEST(CliBatchParse, JobsFlagAndMissingJobfile) {
  EXPECT_EQ(parse_batch({"--jobs", "j.txt"}).jobfile_path, "j.txt");
  EXPECT_THROW(parse_batch({"--workers", "2"}), Error);
  EXPECT_THROW(parse_batch({"jobs.txt", "--bogus"}), Error);
}

// The prefetch thread is gone, and with it --prefetch: both subcommands
// reject it as an unknown flag at parse time.
TEST(CliParse, RemovedPrefetchFlagIsRejected) {
  const auto expect_unknown = [](const auto& parse_args, const char* label) {
    try {
      parse_args();
      ADD_FAILURE() << label << " accepted --prefetch";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("unknown flag '--prefetch'"),
                std::string::npos)
          << label << ": " << error.what();
    }
  };
  expect_unknown([] { (void)parse_batch({"jobs.txt", "--prefetch", "4"}); },
                 "plfoc batch");
  expect_unknown(
      [] {
        const char* argv[] = {"--prefetch", "4"};
        (void)parse_serve_cli(2, argv);
      },
      "plfoc serve");
}

TEST_F(CliFixture, BatchModeMatchesSequentialEvaluate) {
  // Sequential references via the evaluate mode, one per backend config.
  const auto logl_of = [&](const char* backend, double fraction,
                           std::uint64_t budget) {
    CliConfig config = base_config();
    config.backend = backend;
    config.ram_fraction = fraction;
    config.memory_limit = budget;
    std::ostringstream out;
    run_cli(config, out);
    const std::string text = out.str();
    const std::size_t at = text.find("logL = ");
    EXPECT_NE(at, std::string::npos);
    return text.substr(at, text.find('\n', at) - at);
  };
  const std::string ram_ll = logl_of("inram", 0.0, 0);
  const std::string ooc_ll = logl_of("ooc", 0.3, 0);
  const std::string paged_ll = logl_of("paged", 0.0, 1 << 20);

  const std::string jobfile = tmp_path("jobs.txt");
  {
    std::ofstream jobs(jobfile);
    jobs << "# three jobs over the shared fixture dataset\n";
    jobs << msa_path_ << " " << tree_path_ << " gtr inram - name=ram\n";
    jobs << msa_path_ << " " << tree_path_ << " gtr ooc 0.3 name=ooc\n";
    jobs << msa_path_ << " " << tree_path_
         << " gtr paged - budget=1048576 name=paged\n";
  }
  BatchConfig config;
  config.jobfile_path = jobfile;
  config.workers = 2;
  std::ostringstream out;
  EXPECT_EQ(run_batch_cli(config, out), 0);
  const std::string text = out.str();
  // Results are reported per job in submission order, each bit-identical to
  // the sequential evaluate run (the printed strings match exactly).
  const std::size_t ram_at = text.find("ram: " + ram_ll);
  const std::size_t ooc_at = text.find("ooc: " + ooc_ll);
  const std::size_t paged_at = text.find("paged: " + paged_ll);
  EXPECT_NE(ram_at, std::string::npos) << text;
  EXPECT_NE(ooc_at, std::string::npos) << text;
  EXPECT_NE(paged_at, std::string::npos) << text;
  EXPECT_LT(ram_at, ooc_at);
  EXPECT_LT(ooc_at, paged_at);
  EXPECT_NE(text.find("batch done: 3/3"), std::string::npos) << text;
  std::remove(jobfile.c_str());
}

TEST_F(CliFixture, BatchModeSurfacesPerJobFailures) {
  const std::string jobfile = tmp_path("badjobs.txt");
  {
    std::ofstream jobs(jobfile);
    jobs << msa_path_ << " " << tree_path_ << " gtr inram - name=good\n";
    // ooc with neither f nor budget=: fails validate() inside its worker.
    jobs << msa_path_ << " " << tree_path_ << " gtr ooc - name=bad\n";
  }
  BatchConfig config;
  config.jobfile_path = jobfile;
  std::ostringstream out;
  EXPECT_EQ(run_batch_cli(config, out), 1);
  EXPECT_NE(out.str().find("bad: FAILED"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("batch done: 1/2"), std::string::npos)
      << out.str();
  std::remove(jobfile.c_str());
}

TEST(CliBatch, MissingJobfileThrows) {
  BatchConfig config;
  config.jobfile_path = "/nonexistent_jobs.txt";
  std::ostringstream out;
  EXPECT_THROW(run_batch_cli(config, out), Error);
}

}  // namespace
}  // namespace plfoc
