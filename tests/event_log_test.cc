// Durability semantics of the LearnGuard feedback log (online/event_log.h):
// append-only checksummed records in rotated segments, fsync'd before the
// append returns. The contracts under test: a torn tail (a crash mid-append)
// is recovered by truncation on reopen, a mid-record bit flip is *rejected*
// (never truncated away), rotation never changes what a replay yields, and a
// poisoned handle (after a torn append or a real write failure) refuses work
// until a fresh Open().

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "online/event_log.h"
#include "util/fault.h"

namespace activedp {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

FeedbackEvent MakeEvent(FeedbackType type, int64_t row, int label,
                        int lf_id = -1) {
  FeedbackEvent event;
  event.type = type;
  event.row = row;
  event.label = label;
  event.lf_id = lf_id;
  return event;
}

Result<std::unique_ptr<EventLog>> OpenLog(const std::string& dir,
                                          int max_records = 1024) {
  EventLogOptions options;
  options.max_records_per_segment = max_records;
  return EventLog::Open(dir, options);
}

TEST(EventLogTest, AppendRotateReplayRoundTrip) {
  const std::string dir = FreshDir("event_log_roundtrip");
  auto log = OpenLog(dir);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->next_seq(), 0u);

  ASSERT_TRUE((*log)->Append(MakeEvent(FeedbackType::kPrediction, 3, 1)).ok());
  ASSERT_TRUE((*log)->Append(MakeEvent(FeedbackType::kExactLabel, 7, 0)).ok());
  ASSERT_TRUE(
      (*log)->Append(MakeEvent(FeedbackType::kLfVote, 11, 1, 4)).ok());
  // The open segment is not replayable until sealed.
  EXPECT_TRUE((*log)->SealedSegments().empty());
  ASSERT_TRUE((*log)->Rotate().ok());
  ASSERT_EQ((*log)->SealedSegments().size(), 1u);

  const Result<std::vector<FeedbackEvent>> events = (*log)->ReplayAll();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].seq, 0u);
  EXPECT_EQ((*events)[0].type, FeedbackType::kPrediction);
  EXPECT_EQ((*events)[0].row, 3);
  EXPECT_EQ((*events)[0].label, 1);
  EXPECT_EQ((*events)[2].seq, 2u);
  EXPECT_EQ((*events)[2].type, FeedbackType::kLfVote);
  EXPECT_EQ((*events)[2].lf_id, 4);
  EXPECT_EQ((*log)->next_seq(), 3u);
}

TEST(EventLogTest, ReopenSealsTheOpenSegmentAndContinuesSequence) {
  const std::string dir = FreshDir("event_log_reopen");
  {
    auto log = OpenLog(dir);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
    }
    // Destroyed with an open, un-sealed segment — like a process exit.
  }
  auto reopened = OpenLog(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->next_seq(), 5u);
  ASSERT_EQ((*reopened)->SealedSegments().size(), 1u);
  ASSERT_TRUE(
      (*reopened)->Append(MakeEvent(FeedbackType::kExactLabel, 9, 0)).ok());
  ASSERT_TRUE((*reopened)->Rotate().ok());
  const Result<std::vector<FeedbackEvent>> events = (*reopened)->ReplayAll();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 6u);
  EXPECT_EQ(events->back().seq, 5u);
}

TEST(EventLogTest, TornTailIsTruncatedOnReopen) {
  const std::string dir = FreshDir("event_log_torn_tail");
  std::string segment;
  {
    auto log = OpenLog(dir);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
    }
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segment = entry.path().string();
  }
  ASSERT_FALSE(segment.empty());
  {
    // A crash mid-append leaves a final record without its newline.
    std::ofstream out(segment, std::ios::app | std::ios::binary);
    out << "evt 3 1 99 1 -1 #crc64 deadbeef";  // torn: no trailing '\n'
  }
  // Strict replay rejects the torn tail...
  const Result<SegmentReplay> strict =
      EventLog::ReplaySegment(segment, /*allow_torn_tail=*/false);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  // ...while Open() recovers: the tail is physically truncated, the three
  // durable records survive, and the sequence continues where it left off.
  auto reopened = OpenLog(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->next_seq(), 3u);
  const Result<std::vector<FeedbackEvent>> events = (*reopened)->ReplayAll();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  const Result<SegmentReplay> after =
      EventLog::ReplaySegment(segment, /*allow_torn_tail=*/false);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->truncated_records, 0);
}

TEST(EventLogTest, SegmentWithOnlyATornRecordIsRemovedOnReopen) {
  const std::string dir = FreshDir("event_log_torn_only");
  std::string torn;
  {
    auto log = OpenLog(dir);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
    }
    ASSERT_TRUE((*log)->Rotate().ok());
    ASSERT_TRUE(
        (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 2, 1)).ok());
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().string() != (*log)->SealedSegments()[0]) {
        torn = entry.path().string();
      }
    }
  }
  // A crash mid-append of the segment's first record: its only line is torn.
  ASSERT_FALSE(torn.empty());
  std::filesystem::resize_file(torn, std::filesystem::file_size(torn) - 1);

  auto reopened = OpenLog(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(torn));
  EXPECT_EQ((*reopened)->next_seq(), 2u);
  ASSERT_TRUE(
      (*reopened)->Append(MakeEvent(FeedbackType::kExactLabel, 3, 0)).ok());
  ASSERT_TRUE((*reopened)->Rotate().ok());
  const std::vector<std::string> sealed = (*reopened)->SealedSegments();
  ASSERT_EQ(sealed.size(), 2u);
  EXPECT_NE(sealed[1], torn);
  // ReplayAll is strict: no segment may carry a torn tail.
  const Result<std::vector<FeedbackEvent>> events = (*reopened)->ReplayAll();
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ(events->back().seq, 2u);
  EXPECT_EQ(events->back().row, 3);
}

TEST(EventLogTest, MidRecordBitFlipIsRejectedNotTruncated) {
  const std::string dir = FreshDir("event_log_bit_flip");
  auto log = OpenLog(dir);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
  }
  ASSERT_TRUE((*log)->Rotate().ok());
  const std::string segment = (*log)->SealedSegments()[0];

  std::string bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[bytes.size() / 2] ^= 0x04;  // a complete record's byte, not the tail
  {
    std::ofstream out(segment, std::ios::trunc | std::ios::binary);
    out << bytes;
  }

  // Corruption in the middle of the log is data loss the checksum must
  // surface — torn-tail recovery must NOT paper over it.
  const Result<SegmentReplay> strict =
      EventLog::ReplaySegment(segment, /*allow_torn_tail=*/false);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  const Result<SegmentReplay> lenient =
      EventLog::ReplaySegment(segment, /*allow_torn_tail=*/true);
  ASSERT_FALSE(lenient.ok());
  log->reset();
  auto reopened = OpenLog(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(EventLogTest, TornTailOnANonLastSegmentIsRejected) {
  const std::string dir = FreshDir("event_log_torn_middle");
  {
    auto log = OpenLog(dir, /*max_records=*/2);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
    }
    ASSERT_EQ((*log)->SealedSegments().size(), 2u);
    // Drop the first (sealed, non-last) segment's trailing newline: a torn
    // tail there cannot be a crash artifact — later segments were written
    // after it — so Open() must refuse rather than silently drop records.
    const std::string first = (*log)->SealedSegments()[0];
    std::filesystem::resize_file(first,
                                 std::filesystem::file_size(first) - 1);
  }
  auto reopened = OpenLog(dir, /*max_records=*/2);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(EventLogTest, MissingSegmentIsASequenceGap) {
  const std::string dir = FreshDir("event_log_gap");
  {
    auto log = OpenLog(dir, /*max_records=*/2);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
    }
    ASSERT_EQ((*log)->SealedSegments().size(), 3u);
    std::filesystem::remove((*log)->SealedSegments()[1]);
  }
  auto reopened = OpenLog(dir, /*max_records=*/2);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(EventLogTest, RotationNeverChangesTheReplay) {
  // The same events through small segments and through one big segment must
  // replay to the same digest — rotation is invisible to consumers.
  const std::string small_dir = FreshDir("event_log_rot_small");
  const std::string big_dir = FreshDir("event_log_rot_big");
  auto small = OpenLog(small_dir, /*max_records=*/3);
  auto big = OpenLog(big_dir, /*max_records=*/1024);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  for (int i = 0; i < 11; ++i) {
    const FeedbackEvent event =
        MakeEvent(i % 2 == 0 ? FeedbackType::kExactLabel
                             : FeedbackType::kLfVote,
                  i * 3, i % 4, i % 5);
    ASSERT_TRUE((*small)->Append(event).ok());
    ASSERT_TRUE((*big)->Append(event).ok());
  }
  ASSERT_TRUE((*small)->Rotate().ok());
  ASSERT_TRUE((*big)->Rotate().ok());
  EXPECT_GT((*small)->SealedSegments().size(), 1u);

  const Result<std::vector<FeedbackEvent>> from_small = (*small)->ReplayAll();
  const Result<std::vector<FeedbackEvent>> from_big = (*big)->ReplayAll();
  ASSERT_TRUE(from_small.ok());
  ASSERT_TRUE(from_big.ok());
  EXPECT_EQ(EventLog::ReplayDigest(*from_small),
            EventLog::ReplayDigest(*from_big));

  // ...and the digest survives a close + reopen of the rotated log.
  small->reset();
  auto reopened = OpenLog(small_dir, /*max_records=*/3);
  ASSERT_TRUE(reopened.ok());
  const Result<std::vector<FeedbackEvent>> after = (*reopened)->ReplayAll();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(EventLog::ReplayDigest(*after), EventLog::ReplayDigest(*from_big));
}

TEST(EventLogTest, InjectedAppendErrorIsCleanAndLeavesNoGap) {
  const std::string dir = FreshDir("event_log_fault_error");
  auto log = OpenLog(dir);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(MakeEvent(FeedbackType::kExactLabel, 0, 1)).ok());
  {
    FaultScope scope("eventlog.append", FaultKind::kError);
    const Result<uint64_t> rejected =
        (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 1, 1));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
    EXPECT_EQ(scope.fire_count(), 1);
  }
  // A failed append consumed nothing: the next one gets the next seq.
  const Result<uint64_t> seq =
      (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 2, 0));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 1u);
  ASSERT_TRUE((*log)->Rotate().ok());
  const Result<std::vector<FeedbackEvent>> events = (*log)->ReplayAll();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
}

TEST(EventLogTest, TornAppendPoisonsTheHandleUntilReopened) {
  const std::string dir = FreshDir("event_log_fault_torn");
  auto log = OpenLog(dir);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
  }
  {
    FaultSpec spec;
    spec.kind = FaultKind::kTruncateWrite;
    FaultScope scope("eventlog.append", spec);
    // The torn append itself reports success — a killed process reports
    // nothing, and the caller cannot tell.
    EXPECT_TRUE(
        (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 3, 1)).ok());
    EXPECT_EQ(scope.fire_count(), 1);
  }
  // But the handle knows it is no longer trustworthy.
  const Result<uint64_t> after =
      (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 4, 1));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*log)->Rotate().code(), StatusCode::kUnavailable);

  // Recovery is a fresh Open(): the torn record is gone, the three durable
  // ones survive, and appends resume.
  log->reset();
  auto reopened = OpenLog(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->next_seq(), 3u);
  ASSERT_TRUE(
      (*reopened)->Append(MakeEvent(FeedbackType::kExactLabel, 5, 0)).ok());
  ASSERT_TRUE((*reopened)->Rotate().ok());
  const Result<std::vector<FeedbackEvent>> events = (*reopened)->ReplayAll();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ(events->back().seq, 3u);
  EXPECT_EQ(events->back().row, 5);
}

TEST(EventLogTest, RealWriteFailurePoisonsTheHandleAndKeepsTheAckedPrefix) {
  const std::string dir = FreshDir("event_log_fsize_limit");
  auto log = OpenLog(dir);
  ASSERT_TRUE(log.ok());
  std::vector<int64_t> acked_rows;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
    acked_rows.push_back(i);
  }
  std::string segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segment = entry.path().string();
  }
  ASSERT_FALSE(segment.empty());
  const uintmax_t size = std::filesystem::file_size(segment);

  // A real I/O error, not an injected one: cap the file size a few bytes
  // past the open segment, so the next record only partly fits. SIGXFSZ is
  // ignored so the write fails with EFBIG instead of killing the process.
  const auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(size + 8);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Result<uint64_t> failed =
      (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 123456789, 1));
  const Result<uint64_t> after =
      (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 4, 1));
  log->reset();
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, previous_handler);

  // The record that did not reach the disk is not acknowledged, and the
  // handle refuses to append behind the partial record it left.
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);

  // A fresh Open() truncates the torn tail and replays exactly the
  // acknowledged records.
  auto reopened = OpenLog(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_seq(), acked_rows.size());
  const Result<std::vector<FeedbackEvent>> events = (*reopened)->ReplayAll();
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), acked_rows.size());
  for (size_t i = 0; i < acked_rows.size(); ++i) {
    EXPECT_EQ((*events)[i].seq, i);
    EXPECT_EQ((*events)[i].row, acked_rows[i]);
  }
}

/// Permission bits bind only an unprivileged process, so a test run as root
/// switches to "nobody" first. False when it cannot.
bool DropRootPrivileges() {
  if (::geteuid() != 0) return true;
  return ::setgid(65534) == 0 && ::setuid(65534) == 0;
}

/// Two acknowledged records in a sealed segment, then an append whose new
/// segment cannot be made durable: the log directory loses read permission,
/// so it can still be written but not opened for fsync. Returns 0 when the
/// append fails Internal, the handle is poisoned, and a reopened log
/// replays exactly the acknowledged records; another code names the step
/// that went wrong.
int AppendWithUnsyncableDirectory(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!DropRootPrivileges()) return 2;
  auto log = OpenLog(dir);
  if (!log.ok()) return 3;
  for (int i = 0; i < 2; ++i) {
    if (!(*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok()) {
      return 4;
    }
  }
  if (!(*log)->Rotate().ok()) return 5;
  fs::permissions(dir, fs::perms::owner_write | fs::perms::owner_exec);
  const Result<uint64_t> failed =
      (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 2, 1));
  const Result<uint64_t> after =
      (*log)->Append(MakeEvent(FeedbackType::kExactLabel, 3, 1));
  log->reset();
  fs::permissions(dir, fs::perms::owner_all);
  if (failed.ok() || failed.status().code() != StatusCode::kInternal) return 6;
  if (after.ok() || after.status().code() != StatusCode::kUnavailable) {
    return 7;
  }
  auto reopened = OpenLog(dir);
  if (!reopened.ok() || (*reopened)->next_seq() != 2) return 8;
  const Result<std::vector<FeedbackEvent>> events = (*reopened)->ReplayAll();
  if (!events.ok() || events->size() != 2) return 9;
  return 0;
}

TEST(EventLogTest, FailedDirectoryFsyncPoisonsTheHandle) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string base = FreshDir("event_log_dir_fsync");
  std::filesystem::create_directories(base);
  std::filesystem::permissions(base, std::filesystem::perms::all);
  // Runs in a child, which may give up root.
  EXPECT_EXIT(std::_Exit(AppendWithUnsyncableDirectory(base + "/log")),
              ::testing::ExitedWithCode(0), "");
}

TEST(EventLogTest, InjectedReplayCorruptionIsCaughtByTheChecksum) {
  const std::string dir = FreshDir("event_log_fault_corrupt");
  auto log = OpenLog(dir);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        (*log)->Append(MakeEvent(FeedbackType::kExactLabel, i, 1)).ok());
  }
  ASSERT_TRUE((*log)->Rotate().ok());
  const std::string segment = (*log)->SealedSegments()[0];
  {
    FaultScope scope("eventlog.replay", FaultKind::kCorrupt);
    const Result<SegmentReplay> replay =
        EventLog::ReplaySegment(segment, /*allow_torn_tail=*/false);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(scope.fire_count(), 1);
  }
  // The bytes on disk were never touched: a clean replay still works.
  const Result<SegmentReplay> clean =
      EventLog::ReplaySegment(segment, /*allow_torn_tail=*/false);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->events.size(), 8u);
}

}  // namespace
}  // namespace activedp
