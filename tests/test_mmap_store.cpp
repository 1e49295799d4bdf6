#include "ooc/mmap_store.hpp"
#include <fstream>

#include <gtest/gtest.h>

#include <sys/stat.h>

#include "ooc/file_backend.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

MmapStoreOptions temp_options() {
  MmapStoreOptions options;
  options.file_path = temp_vector_file_path("mmapstore");
  return options;
}

TEST(MmapStore, RoundTripsData) {
  const std::size_t width = 64;
  MmapStore store(8, width, temp_options());
  for (std::uint32_t idx = 0; idx < 8; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kWrite);
    for (std::size_t i = 0; i < width; ++i) lease.data()[i] = idx * 10.0 + i;
  }
  for (std::uint32_t idx = 0; idx < 8; ++idx) {
    auto lease = store.acquire(idx, AccessMode::kRead);
    for (std::size_t i = 0; i < width; ++i)
      ASSERT_EQ(lease.data()[i], idx * 10.0 + i);
  }
}

TEST(MmapStore, FlushPersistsToFile) {
  MmapStoreOptions options = temp_options();
  options.remove_on_close = false;
  const std::string path = options.file_path;
  {
    MmapStore store(2, 4, options);
    auto lease = store.acquire(1, AccessMode::kWrite);
    lease.data()[2] = 42.0;
    store.flush();
  }
  // Re-open the raw file and check the byte layout.
  {
    // Read vector 1 (offset 4 doubles), element 2.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    in.seekg((4 + 2) * sizeof(double));
    double value = 0.0;
    in.read(reinterpret_cast<char*>(&value), sizeof(double));
    EXPECT_EQ(value, 42.0);
  }
  ::unlink(path.c_str());
}

TEST(MmapStore, RemovesFileByDefault) {
  MmapStoreOptions options = temp_options();
  const std::string path = options.file_path;
  {
    MmapStore store(2, 4, options);
  }
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0);
}

TEST(MmapStore, SessionBackendMatchesInRamBitExactly) {
  DatasetPlan plan;
  plan.num_taxa = 12;
  plan.num_sites = 50;
  plan.seed = 77;
  const PlannedDataset data = make_dna_dataset(plan);

  SessionOptions in_ram;
  Session reference(data.alignment, data.tree, benchmark_gtr(), in_ram);
  const double expected = reference.engine().log_likelihood();

  SessionOptions mm;
  mm.backend = Backend::kMmap;
  Session session(data.alignment, data.tree, benchmark_gtr(), mm);
  ASSERT_STREQ(session.store().backend_name(), "mmap");
  EXPECT_EQ(session.engine().log_likelihood(), expected);
}

}  // namespace
}  // namespace plfoc
