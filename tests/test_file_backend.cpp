#include "ooc/file_backend.hpp"

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
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

/// Entries of `dir` (without "." and ".."), or of /proc/self/fd.
std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return names;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(handle);
  return names;
}

std::size_t idle_file_count(const std::string& dir) {
  std::size_t count = 0;
  for (const std::string& name : list_dir(dir))
    if (name.rfind("plfoc_idle_", 0) == 0) ++count;
  return count;
}

ino_t inode_of(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

/// A directory of its own under $TMPDIR, so files recycled here come only
/// from this test's backends. Removed with everything in it; the pool's
/// stale entries for it then fail their rename and fall back to a create.
struct PrivateDir {
  std::string path;
  PrivateDir() {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string pattern =
        (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
    pattern += "/pool_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    EXPECT_NE(::mkdtemp(buffer.data()), nullptr);
    path = buffer.data();
  }
  ~PrivateDir() {
    for (const std::string& name : list_dir(path)) {
      const std::string full = path + "/" + name;
      if (::unlink(full.c_str()) != 0) ::rmdir(full.c_str());
    }
    ::rmdir(path.c_str());
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
};

FileBackendOptions options_at(const std::string& path) {
  FileBackendOptions options;
  options.base_path = path;
  return options;
}

std::vector<double> filled(std::size_t width, double value) {
  return std::vector<double>(width, value);
}

/// Raw bytes of `path` at `offset`, bypassing the backend.
std::vector<unsigned char> raw_bytes(const std::string& path,
                                     std::uint64_t offset, std::size_t bytes) {
  std::vector<unsigned char> out(bytes);
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0) << path;
  EXPECT_EQ(::pread(fd, out.data(), bytes, static_cast<off_t>(offset)),
            static_cast<ssize_t>(bytes));
  ::close(fd);
  return out;
}

bool all_zero(const std::vector<unsigned char>& bytes) {
  for (const unsigned char byte : bytes)
    if (byte != 0) return false;
  return true;
}

/// Writes every vector of a fresh backend at `path` and closes it, leaving
/// the file idle in the pool. Returns the file's inode.
ino_t leave_idle_file(const std::string& path, std::size_t count,
                      std::size_t width) {
  FileBackend backend(count, width * sizeof(double), options_at(path));
  for (std::uint32_t i = 0; i < count; ++i)
    backend.write_vector(i, filled(width, 1.0 + i).data());
  return inode_of(path);
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

TEST(FileBackend, FailedConstructionClosesAndRemovesItsFiles) {
  const PrivateDir dir;
  FileBackendOptions options = options_at(dir.file("vec"));
  options.num_files = 2;
  // The second stripe's path is a directory: stripe 0 is open when the
  // constructor throws.
  ASSERT_EQ(::mkdir(dir.file("vec.1").c_str(), 0700), 0);
  const std::size_t fds_before = list_dir("/proc/self/fd").size();
  EXPECT_THROW(FileBackend(4, 64, options), Error);
  EXPECT_EQ(list_dir("/proc/self/fd").size(), fds_before);
  EXPECT_FALSE(file_exists(dir.file("vec.0")));
  EXPECT_TRUE(file_exists(dir.file("vec.1")));  // not ours: left alone
}

TEST(FileBackendRecycling, RecycledFileHasAFreshHeaderAndZeroedTable) {
  const PrivateDir dir;
  const ino_t inode = leave_idle_file(dir.file("a"), 6, 32);
  EXPECT_FALSE(file_exists(dir.file("a")));
  EXPECT_EQ(idle_file_count(dir.path), 1u);

  // A different geometry: fewer, narrower records.
  FileBackend backend(4, 16 * sizeof(double), options_at(dir.file("b")));
  EXPECT_EQ(inode_of(dir.file("b")), inode);
  EXPECT_EQ(idle_file_count(dir.path), 0u);
  const FsckReport report = FileBackend::fsck(dir.file("b"));
  ASSERT_TRUE(report.header_ok) << report.header_error;
  EXPECT_EQ(report.block_bytes, 16 * sizeof(double));
  EXPECT_EQ(report.block_count, 4u);
  EXPECT_EQ(report.payload_bytes, 4 * 16 * sizeof(double));
  EXPECT_TRUE(all_zero(raw_bytes(dir.file("b"), 4096, 4 * 16)));
  struct stat st{};
  ASSERT_EQ(::stat(dir.file("b").c_str(), &st), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(st.st_size),
            8192u + 4 * 16 * sizeof(double));
}

TEST(FileBackendRecycling, UnwrittenRecordsReadAsZerosOverStaleBytes) {
  const PrivateDir dir;
  constexpr std::size_t kWidth = 16;
  leave_idle_file(dir.file("a"), 4, kWidth);
  FileBackend backend(4, kWidth * sizeof(double), options_at(dir.file("b")));
  // The previous use's records are still on disk (the payload starts at
  // 8 KiB, after the header and the table's 4 KiB page)...
  EXPECT_FALSE(all_zero(raw_bytes(dir.file("b"), 8192, kWidth * 8)));

  // ...but every read path returns zeros for a generation-0 record.
  std::vector<double> in(kWidth, 99.0);
  backend.read_vector(0, in.data());
  EXPECT_EQ(in, filled(kWidth, 0.0));
  in.assign(kWidth, 99.0);
  EXPECT_TRUE(backend.read_vector_verified(1, in.data()).ok());
  EXPECT_EQ(in, filled(kWidth, 0.0));
  std::vector<double> batch(2 * kWidth, 99.0);
  FileBackend::VectorOp ops[2];
  ops[0].index = 2;
  ops[0].buffer = batch.data();
  ops[1].index = 3;
  ops[1].buffer = batch.data() + kWidth;
  ops[1].verify = true;
  backend.submit_vector_ops(ops, 2);
  ASSERT_TRUE(ops[0].ok() && ops[1].ok());
  EXPECT_TRUE(ops[1].verify_result.ok());
  EXPECT_EQ(batch, filled(2 * kWidth, 0.0));

  // A written record reads back as written.
  backend.write_vector(2, filled(kWidth, 7.0).data());
  backend.read_vector(2, in.data());
  EXPECT_EQ(in, filled(kWidth, 7.0));
}

TEST(FileBackendRecycling, StaleRecordOfThePreviousUseFailsAndHeals) {
  const PrivateDir dir;
  constexpr std::size_t kWidth = 16;
  leave_idle_file(dir.file("a"), 4, kWidth);
  FileBackend backend(4, kWidth * sizeof(double), options_at(dir.file("b")));

  // A record declared stale (a dropped slot) still holds the previous use's
  // bytes: they fail verification as a stale generation, against the
  // zeroed table rather than the previous use's generation.
  backend.retire_vector(1);
  std::vector<double> in(kWidth);
  const VerifyResult verify = backend.read_vector_verified(1, in.data());
  EXPECT_EQ(static_cast<int>(verify.status),
            static_cast<int>(VerifyStatus::kStaleGeneration));
  EXPECT_EQ(verify.expected_generation, 1u);
  EXPECT_EQ(verify.found_generation, 0u);
  EXPECT_EQ(in, filled(kWidth, 2.0));  // the previous use's record

  // Rewriting the record heals it.
  backend.write_vector(1, filled(kWidth, 5.0).data());
  EXPECT_TRUE(backend.read_vector_verified(1, in.data()).ok());
  EXPECT_EQ(in, filled(kWidth, 5.0));
}

TEST(FileBackendRecycling, OnlyRecyclableBackendsUseThePool) {
  struct Case {
    const char* name;
    bool remove_on_close;
    bool faults;
    std::size_t integrity_block_bytes;
  };
  const Case cases[] = {{"kept", false, false, 0},
                        {"faults", true, true, 0},
                        {"paged", true, false, 4096}};
  const PrivateDir dir;
  const ino_t idle = leave_idle_file(dir.file("r"), 4, 1024);
  ASSERT_EQ(idle_file_count(dir.path), 1u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = dir.file(c.name);
    FileBackendOptions options = options_at(path);
    options.remove_on_close = c.remove_on_close;
    if (c.faults) options.faults.rate = 0.5;  // no data op runs: none fires
    options.integrity_block_bytes = c.integrity_block_bytes;
    {
      FileBackend backend(4, 8192, options);
      EXPECT_NE(inode_of(path), idle);  // took no idle file
    }
    EXPECT_EQ(idle_file_count(dir.path), 1u);  // and left none
    EXPECT_EQ(file_exists(path), !c.remove_on_close);
  }
}

TEST(FileBackend, TempPathsAreUnique) {
  EXPECT_NE(temp_vector_file_path("x"), temp_vector_file_path("x"));
}

}  // namespace
}  // namespace plfoc
