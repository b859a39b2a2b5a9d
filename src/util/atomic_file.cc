#include "util/atomic_file.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifdef _WIN32
#include <io.h>
#include <process.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/fault.h"

namespace activedp {
namespace {

/// A temp name no other writer uses, in the destination's directory (so the
/// rename stays on one filesystem): concurrent writers to one path each
/// stage their own file, and the last rename wins whole.
std::string UniqueTempPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
#ifndef _WIN32
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = static_cast<long>(::_getpid());
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& content,
                       const std::string& fault_site) {
  FaultKind fault = FaultKind::kNone;
  if (!fault_site.empty()) {
    fault = CheckFault(fault_site,
                       {FaultKind::kError, FaultKind::kTruncateWrite});
  }
  if (fault == FaultKind::kError) {
    return Status::Internal("injected fault at " + fault_site);
  }
  if (fault == FaultKind::kTruncateWrite) {
    // Simulate a crash mid-save: clobber the destination with a prefix of
    // the content and report success, exactly what a non-atomic writer
    // killed partway through would leave behind.
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out) return Status::NotFound("cannot open for writing: " + path);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
    return Status::Ok();
  }

  const std::string tmp = UniqueTempPath(path);
  Status status = Status::Ok();
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return Status::NotFound("cannot open for writing: " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) status = Status::Internal("write failed: " + tmp);
  }
  if (status.ok()) status = SyncPath(tmp);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return SyncPath(parent.empty() ? "." : parent.string());
}

Status SyncPath(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot open for fsync: " + path);
  const int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) return Status::Internal("fsync failed: " + path);
#else
  (void)path;
#endif
  return Status::Ok();
}

std::string ContentChecksum(const std::string& content) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (unsigned char c : content) {
    hash ^= c;
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buffer);
}

std::string WithChecksumFooter(std::string content) {
  const std::string checksum = ContentChecksum(content);
  content += kChecksumPrefix;
  content += checksum;
  content += '\n';
  return content;
}

Result<std::string> ReadFileVerifyingChecksum(const std::string& path,
                                              const std::string& fault_site) {
  FaultKind fault = FaultKind::kNone;
  if (!fault_site.empty()) {
    fault = CheckFault(fault_site, {FaultKind::kError, FaultKind::kCorrupt});
  }
  if (fault == FaultKind::kError) {
    return Status::Internal("injected fault at " + fault_site);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string content = buffer.str();
  if (fault == FaultKind::kCorrupt && !content.empty()) {
    // Flip one mid-file byte before verification: the real checksum (or
    // parse) path below must reject the corruption, not this injector.
    content[content.size() / 3] ^= 0x20;
  }

  // Locate a trailing "#crc64 <hex>\n" footer, if any.
  const std::string_view prefix = kChecksumPrefix;
  size_t line_start = std::string::npos;
  if (!content.empty()) {
    const size_t last =
        content.back() == '\n' ? content.size() - 1 : content.size();
    const size_t newline = content.rfind('\n', last == 0 ? 0 : last - 1);
    line_start = newline == std::string::npos ? 0 : newline + 1;
  }
  if (line_start != std::string::npos &&
      content.compare(line_start, prefix.size(), prefix) == 0) {
    std::string stored = content.substr(line_start + prefix.size());
    while (!stored.empty() && (stored.back() == '\n' || stored.back() == '\r'))
      stored.pop_back();
    content.erase(line_start);
    const std::string actual = ContentChecksum(content);
    if (stored != actual) {
      return Status::InvalidArgument(
          "checksum mismatch in " + path + " (stored " + stored +
          ", computed " + actual + "): file is truncated or corrupt");
    }
  }
  return content;
}

}  // namespace activedp
