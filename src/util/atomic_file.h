#ifndef ACTIVEDP_UTIL_ATOMIC_FILE_H_
#define ACTIVEDP_UTIL_ATOMIC_FILE_H_

#include <string>

#include "util/result.h"

namespace activedp {

/// Crash-safe file persistence: content is written to a temp file unique to
/// this write (`<path>.tmp.<pid>.<n>`), flushed and fsync'd, then renamed
/// over `path`, and the parent directory is fsync'd so the rename itself
/// survives a crash. A crash mid-save leaves either the old file or the new
/// one — never a torn mix — and concurrent writers to one path never share
/// a temp file. An optional checksum
/// footer detects truncation that happens *outside* the atomic protocol
/// (partial copies, disk corruption, fault-injected truncated writes).

/// Atomically replaces `path` with `content` (tmp + fsync + rename +
/// directory fsync). A failed write, fsync or rename returns non-OK and
/// removes the temp file; a failed directory fsync returns Internal (the
/// rename has happened, but is not yet known to be durable).
/// Honors the "<site>" fault site via FaultKind::kTruncateWrite (writes a
/// truncated file non-atomically and reports success, simulating a crash)
/// and FaultKind::kError. Pass an empty `fault_site` to opt out.
Status AtomicWriteFile(const std::string& path, const std::string& content,
                       const std::string& fault_site = "");

/// Fsyncs the file or directory at `path`: a file's contents, or a
/// directory's entries (which is what makes a file created, renamed or
/// removed in it survive a crash). Internal when `path` cannot be opened or
/// synced. A no-op on platforms without fsync.
Status SyncPath(const std::string& path);

/// FNV-1a 64-bit hash of `content`, rendered as 16 hex digits.
std::string ContentChecksum(const std::string& content);

/// The footer line appended by WithChecksumFooter (without the checksum).
inline constexpr char kChecksumPrefix[] = "#crc64 ";

/// Appends "#crc64 <hex>\n" covering everything before the footer.
std::string WithChecksumFooter(std::string content);

/// Reads the whole file. If the last line is a checksum footer, verifies it
/// (InvalidArgument with both checksums on mismatch — the file is truncated
/// or corrupt) and strips it; files without a footer are returned as-is, so
/// pre-checksum files stay loadable. NotFound when the file cannot be read.
/// A non-empty `fault_site` honors FaultKind::kCorrupt (a byte of the read
/// content is flipped *before* verification, so the genuine checksum path
/// must catch it) and FaultKind::kError.
Result<std::string> ReadFileVerifyingChecksum(const std::string& path,
                                              const std::string& fault_site = "");

}  // namespace activedp

#endif  // ACTIVEDP_UTIL_ATOMIC_FILE_H_
