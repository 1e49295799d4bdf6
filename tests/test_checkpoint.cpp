#include "likelihood/checkpoint.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "ooc/inram_store.hpp"
#include "sim/dataset_planner.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

struct Fixture {
  PlannedDataset data;
  InRamStore store;
  LikelihoodEngine engine;

  explicit Fixture(std::uint64_t seed)
      : data(make_data(seed)),
        store(data.tree.num_inner(),
              LikelihoodEngine::vector_width(data.alignment, 4)),
        engine(data.alignment, data.tree,
               ModelConfig{benchmark_gtr(), 4, 0.7}, store) {}

  static PlannedDataset make_data(std::uint64_t seed) {
    DatasetPlan plan;
    plan.num_taxa = 10;
    plan.num_sites = 40;
    plan.seed = seed;
    return make_dna_dataset(plan);
  }
};

TEST(Checkpoint, StreamRoundTripIsExact) {
  Fixture fx(3);
  fx.engine.set_alpha(0.4321);
  const Checkpoint original = make_checkpoint(fx.engine);
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(io, original);
  const Checkpoint restored = read_checkpoint(io);

  EXPECT_EQ(restored.version, original.version);
  EXPECT_EQ(restored.model.name, original.model.name);
  EXPECT_EQ(restored.model.frequencies, original.model.frequencies);
  EXPECT_EQ(restored.model.exchangeabilities,
            original.model.exchangeabilities);
  EXPECT_EQ(restored.categories, original.categories);
  EXPECT_EQ(restored.alpha, original.alpha);  // bit-exact
  EXPECT_EQ(restored.taxon_names, original.taxon_names);
  ASSERT_EQ(restored.edges.size(), original.edges.size());
  for (std::size_t i = 0; i < restored.edges.size(); ++i) {
    EXPECT_EQ(restored.edges[i].a, original.edges[i].a);
    EXPECT_EQ(restored.edges[i].b, original.edges[i].b);
    EXPECT_EQ(restored.edges[i].length, original.edges[i].length);
  }
}

TEST(Checkpoint, RestoredAnalysisReproducesLikelihoodBitExactly) {
  Fixture fx(7);
  fx.engine.optimize_all_branches(1);
  fx.engine.set_alpha(0.93);
  const double expected = fx.engine.log_likelihood();

  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(io, make_checkpoint(fx.engine));
  const Checkpoint checkpoint = read_checkpoint(io);

  // Resume in a brand-new engine over the same alignment.
  Tree tree = restore_tree(checkpoint);
  InRamStore store(tree.num_inner(),
                   LikelihoodEngine::vector_width(fx.data.alignment, 4));
  LikelihoodEngine engine(fx.data.alignment, tree,
                          ModelConfig{jc69(), 4, 1.0}, store);
  restore_model(checkpoint, engine);
  EXPECT_EQ(engine.log_likelihood(), expected);
}

TEST(Checkpoint, FileRoundTrip) {
  Fixture fx(11);
  const std::string path = "/tmp/plfoc_test_checkpoint.bin";
  save_checkpoint_file(path, fx.engine);
  const Checkpoint loaded = load_checkpoint_file(path);
  EXPECT_EQ(loaded.taxon_names.size(), 10u);
  const Tree tree = restore_tree(loaded);
  tree.validate();
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbage) {
  std::stringstream io("not a checkpoint at all");
  EXPECT_THROW(read_checkpoint(io), Error);
}

TEST(Checkpoint, RejectsTruncated) {
  Fixture fx(13);
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(io, make_checkpoint(fx.engine));
  const std::string full = io.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_checkpoint(cut), Error);
}

TEST(Checkpoint, FileWriterReportsWriteErrors) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  Fixture fx(19);
  EXPECT_THROW(save_checkpoint_file("/dev/full", fx.engine), Error);
}

TEST(Checkpoint, RejectsMissingFile) {
  EXPECT_THROW(load_checkpoint_file("/nonexistent/ckpt.bin"), Error);
}

TEST(Checkpoint, RestoreModelValidatesCategories) {
  Fixture fx(17);
  const Checkpoint checkpoint = make_checkpoint(fx.engine);
  Tree tree = restore_tree(checkpoint);
  InRamStore store(tree.num_inner(),
                   LikelihoodEngine::vector_width(fx.data.alignment, 2));
  LikelihoodEngine wrong(fx.data.alignment, tree,
                         ModelConfig{jc69(), 2, 1.0}, store);
  EXPECT_THROW(restore_model(checkpoint, wrong), Error);
}

}  // namespace
}  // namespace plfoc
