#include "util/atomic_file.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace activedp {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(AtomicWriteFileTest, ConcurrentWritersToOnePathNeverCollide) {
  const std::string dir = FreshDir("atomic_file_hammer");
  const std::string path = dir + "/shared.txt";
  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 500;
  std::atomic<int> write_errors{0};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        const std::string body = "writer " + std::to_string(t) + " write " +
                                 std::to_string(i) + "\n" +
                                 std::string(64 + 17 * (i % 9), 'a' + t);
        if (!AtomicWriteFile(path, WithChecksumFooter(body)).ok()) {
          ++write_errors;
        }
        // Whoever won the last rename, the file is one whole write.
        if (!ReadFileVerifyingChecksum(path).ok()) ++bad_reads;
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"shared.txt"})
      << "temp files left behind";
}

TEST(AtomicWriteFileTest, FailedWriteLeavesNoTempFile) {
  const std::string dir = FreshDir("atomic_file_failed_rename");
  // Renaming a file over a non-empty directory fails: the write reports it
  // and removes its temp file.
  const std::string path = dir + "/occupied";
  std::filesystem::create_directories(path + "/child");
  const Status status = AtomicWriteFile(path, "payload");
  EXPECT_FALSE(status.ok());
  int entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), "occupied");
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

/// Permission bits bind only an unprivileged process, so a test run as root
/// switches to "nobody" first. False when it cannot.
bool DropRootPrivileges() {
  if (::geteuid() != 0) return true;
  return ::setgid(65534) == 0 && ::setuid(65534) == 0;
}

TEST(AtomicWriteFileTest, FailedDirectoryFsyncIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace fs = std::filesystem;
  const std::string dir = FreshDir("atomic_file_dir_fsync");
  fs::permissions(dir, fs::perms::all);
  // In a directory with write and search permission but no read
  // permission, a process can create and rename files, but cannot open the
  // directory to fsync it. Runs in a child, which may give up root.
  EXPECT_EXIT(
      {
        const std::string locked = dir + "/write_only";
        if (!DropRootPrivileges() || !fs::create_directory(locked)) {
          std::_Exit(2);
        }
        fs::permissions(locked, fs::perms::owner_write | fs::perms::owner_exec);
        const Status status = AtomicWriteFile(locked + "/file", "payload");
        fs::permissions(locked, fs::perms::owner_all);
        std::_Exit(status.code() == StatusCode::kInternal &&
                           status.message().find("fsync") != std::string::npos
                       ? 0
                       : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace activedp
