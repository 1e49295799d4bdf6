#include "ooc/file_backend.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <numeric>
#include <vector>

#include "util/checks.hpp"

namespace plfoc {
namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

FileBackendOptions temp_options(const std::string& tag, unsigned files = 1) {
  FileBackendOptions options;
  options.base_path = temp_vector_file_path(tag);
  options.num_files = files;
  return options;
}

TEST(FileBackend, VectorRoundTrip) {
  FileBackend backend(8, 64 * sizeof(double), temp_options("rt"));
  std::vector<double> out(64);
  std::iota(out.begin(), out.end(), 1.0);
  backend.write_vector(3, out.data());
  std::vector<double> in(64, 0.0);
  backend.read_vector(3, in.data());
  EXPECT_EQ(in, out);
}

TEST(FileBackend, VectorsAreIndependent) {
  FileBackend backend(4, 16 * sizeof(double), temp_options("indep"));
  std::vector<double> a(16, 1.0);
  std::vector<double> b(16, 2.0);
  backend.write_vector(0, a.data());
  backend.write_vector(1, b.data());
  std::vector<double> check(16);
  backend.read_vector(0, check.data());
  EXPECT_EQ(check, a);
  backend.read_vector(1, check.data());
  EXPECT_EQ(check, b);
}

TEST(FileBackend, PreallocatedReadsAreZero) {
  FileBackend backend(4, 8 * sizeof(double), temp_options("zero"));
  std::vector<double> in(8, 99.0);
  backend.read_vector(2, in.data());
  for (double v : in) EXPECT_EQ(v, 0.0);
}

TEST(FileBackend, RetiredRecordReportsStaleGeneration) {
  FileBackend backend(4, 16 * sizeof(double), temp_options("retire", 2));
  std::vector<double> out(16);
  std::iota(out.begin(), out.end(), 1.0);
  backend.write_vector(1, out.data());
  std::vector<double> in(16);
  ASSERT_TRUE(backend.read_vector_verified(1, in.data()).ok());

  // A written record and a never-written one both fail verification once
  // retired, although neither payload changed.
  for (const std::uint32_t index : {1u, 2u}) {
    backend.retire_vector(index);
    const VerifyResult verify = backend.read_vector_verified(index, in.data());
    EXPECT_EQ(static_cast<int>(verify.status),
              static_cast<int>(VerifyStatus::kStaleGeneration))
        << "vector " << index;
    EXPECT_EQ(verify.found_generation + 1, verify.expected_generation);
    EXPECT_FALSE(verify.injected);
  }
  // The next write makes the record current again.
  backend.write_vector(1, out.data());
  EXPECT_TRUE(backend.read_vector_verified(1, in.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(FileBackend, MultiFileStriping) {
  for (unsigned files : {2u, 3u}) {
    FileBackend backend(10, 32 * sizeof(double),
                        temp_options("stripe" + std::to_string(files), files));
    std::vector<double> out(32);
    for (std::uint32_t idx = 0; idx < 10; ++idx) {
      std::fill(out.begin(), out.end(), static_cast<double>(idx) + 0.5);
      backend.write_vector(idx, out.data());
    }
    std::vector<double> in(32);
    for (std::uint32_t idx = 0; idx < 10; ++idx) {
      backend.read_vector(idx, in.data());
      for (double v : in) EXPECT_EQ(v, static_cast<double>(idx) + 0.5);
    }
  }
}

TEST(FileBackend, ByteAccessMatchesVectorLayout) {
  FileBackend backend(4, 16 * sizeof(double), temp_options("bytes"));
  std::vector<double> out(16);
  std::iota(out.begin(), out.end(), 0.0);
  backend.write_vector(2, out.data());
  double probe = -1.0;
  // Vector 2 starts at byte offset 2 * 16 * 8; element 5 is 5 doubles in.
  EXPECT_TRUE(backend
                  .read_bytes_verified((2 * 16 + 5) * sizeof(double), &probe,
                                       sizeof(double))
                  .ok());
  EXPECT_EQ(probe, 5.0);
}

TEST(FileBackend, RemovesFilesOnClose) {
  FileBackendOptions options = temp_options("cleanup");
  const std::string path = options.base_path;
  {
    FileBackend backend(2, 64, options);
    EXPECT_TRUE(file_exists(path));
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(FileBackend, KeepsFilesWhenAsked) {
  FileBackendOptions options = temp_options("keep");
  options.remove_on_close = false;
  const std::string path = options.base_path;
  {
    FileBackend backend(2, 64, options);
  }
  EXPECT_TRUE(file_exists(path));
  ::unlink(path.c_str());
}

TEST(FileBackend, TotalBytes) {
  FileBackend backend(10, 128, temp_options("total"));
  EXPECT_EQ(backend.total_bytes(), 1280u);
}

TEST(FileBackend, RejectsBadConfiguration) {
  EXPECT_THROW(FileBackend(0, 64, temp_options("bad0")), Error);
  EXPECT_THROW(FileBackend(4, 0, temp_options("bad1")), Error);
  FileBackendOptions no_path;
  EXPECT_THROW(FileBackend(4, 64, no_path), Error);
}

TEST(FileBackend, UnwritableDirectoryThrows) {
  FileBackendOptions options;
  options.base_path = "/nonexistent_dir_plfoc/file.bin";
  EXPECT_THROW(FileBackend(4, 64, options), Error);
}

TEST(FileBackend, TempPathsAreUnique) {
  EXPECT_NE(temp_vector_file_path("x"), temp_vector_file_path("x"));
}

}  // namespace
}  // namespace plfoc
