#ifndef ACTIVEDP_ONLINE_EVENT_LOG_H_
#define ACTIVEDP_ONLINE_EVENT_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/result.h"

namespace activedp {

/// Durable feedback log for the LearnGuard continuous-learning loop
/// (DESIGN.md §12). Prediction events and user feedback (exact labels, LF
/// votes) are appended to segment files under a directory, one checksummed
/// record per line, fsync'd per append. Sealed segments are the unit the
/// retrainer consumes and the unit the quarantine buffer sidelines.
///
/// Durability contract:
///   - Every record line carries its own FNV-1a checksum; replay rejects any
///     mid-file corruption (bit flips, edited records, sequence gaps) with
///     InvalidArgument.
///   - A torn *tail* — the final record of the final line cut short by a
///     crash mid-append — is not corruption: recovery truncates it and
///     continues from the last durable record (the same semantics a
///     write-ahead log gives).
///   - Replay is deterministic: the same segment bytes always yield the same
///     events in the same order, summarised by ReplayDigest().

/// What a feedback event describes.
enum class FeedbackType {
  /// The service served a prediction for `row` (label = what it answered).
  kPrediction = 0,
  /// A user supplied the exact label for `row` — ground truth, full weight.
  kExactLabel = 1,
  /// A labelling-function-style vote for `row` — noisy, reduced weight.
  kLfVote = 2,
};

std::string_view FeedbackTypeToString(FeedbackType type);

/// One record in the log. `seq` is assigned by Append and is strictly
/// increasing across segment rotations; replay verifies it has no gaps.
struct FeedbackEvent {
  uint64_t seq = 0;
  FeedbackType type = FeedbackType::kPrediction;
  /// Row index into the corpus the serving stack was exported over.
  int64_t row = -1;
  /// Class label (meaning depends on `type`); -1 when not applicable.
  int label = -1;
  /// Identifier of the LF that voted (kLfVote only); -1 otherwise.
  int lf_id = -1;
};

/// Result of replaying one segment file.
struct SegmentReplay {
  std::vector<FeedbackEvent> events;
  /// 1 if a torn tail was truncated during recovery, else 0. Torn tails are
  /// only legal on the *last* segment of a log; Open() enforces that.
  int truncated_records = 0;
  /// Byte length of the valid prefix (everything before a torn tail) —
  /// what Open() physically truncates the file back to during recovery.
  size_t valid_bytes = 0;
};

struct EventLogOptions {
  /// Rotate to a new segment file once the open one holds this many records.
  int max_records_per_segment = 1024;
};

/// Append-side + replay-side handle on one log directory. Thread-safe:
/// Append may be called concurrently with itself and with replay of sealed
/// segments (an open segment is never replayed).
///
/// Fault sites (honored kinds in parentheses):
///   "eventlog.append"  (kError, kTruncateWrite) — kTruncateWrite writes a
///       torn half-record and reports success, as a crash mid-append would;
///       the instance then refuses further appends (Unavailable) because the
///       process that tore the record is, semantically, dead. Recovery is
///       Open()ing a fresh instance, which truncates the torn tail.
///   "eventlog.replay"  (kError, kCorrupt) — the bit flip lands before
///       per-record checksum verification, so the real detection path must
///       reject it.
class EventLog {
 public:
  /// Opens (creating if needed) the log at `dir`. Existing segments are
  /// sealed and replayed to recover the next sequence number; a torn tail on
  /// the last segment is truncated away, corruption anywhere else is
  /// InvalidArgument. New appends go to a fresh segment.
  static Result<std::unique_ptr<EventLog>> Open(
      const std::string& dir, const EventLogOptions& options = {});

  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Durably appends one event; assigns and returns its sequence number.
  /// The record is flushed and fsync'd before returning, and a segment's
  /// directory entry is fsync'd when the segment is created. A failed write,
  /// flush or fsync (file or directory) returns Internal and poisons the
  /// handle (Unavailable from then on), so a partial record can only ever be
  /// the segment's tail.
  Result<uint64_t> Append(const FeedbackEvent& event);

  /// Seals the open segment (if it has any records) so it becomes visible to
  /// SealedSegments()/ReplayAll(); the next Append starts a new one.
  Status Rotate();

  /// Paths of all sealed segments, oldest first. Never includes the segment
  /// currently accepting appends.
  std::vector<std::string> SealedSegments() const;

  /// Replays one sealed segment file. `allow_torn_tail` permits a final
  /// truncated record (crash recovery); otherwise any short record is
  /// InvalidArgument.
  static Result<SegmentReplay> ReplaySegment(const std::string& path,
                                             bool allow_torn_tail = false);

  /// Replays every sealed segment in order, verifying the sequence numbers
  /// are contiguous across segment boundaries.
  Result<std::vector<FeedbackEvent>> ReplayAll() const;

  /// FNV-1a digest over a replayed event stream — the determinism gate for
  /// segment-rotation replay.
  static uint64_t ReplayDigest(const std::vector<FeedbackEvent>& events);

  /// Next sequence number Append would assign.
  uint64_t next_seq() const;

  const std::string& dir() const { return dir_; }

 private:
  EventLog(std::string dir, EventLogOptions options, uint64_t next_seq,
           int next_segment_index);

  /// Opens a new segment file for appending and fsyncs the log directory;
  /// a failed directory fsync poisons the handle (caller holds mutex_).
  Status OpenSegmentLocked();
  /// Seals the open segment (caller holds mutex_).
  Status SealSegmentLocked();
  /// fflush + fsync of the open segment; false on either failure.
  bool SyncSegmentLocked();

  const std::string dir_;
  const EventLogOptions options_;

  mutable std::mutex mutex_;
  uint64_t next_seq_;
  int next_segment_index_;
  std::FILE* segment_file_ = nullptr;
  std::string segment_path_;
  int segment_records_ = 0;
  std::vector<std::string> sealed_segments_;
  /// Set after a torn append (kTruncateWrite fire) or a failed write, flush,
  /// fsync, directory fsync or seal: the segment may end in a partial record
  /// or not be durably named, so further appends are refused until a fresh
  /// Open() recovers it.
  bool poisoned_ = false;
};

}  // namespace activedp

#endif  // ACTIVEDP_ONLINE_EVENT_LOG_H_
