#include "online/event_log.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/check.h"
#include "util/fault.h"

namespace activedp {
namespace {

constexpr char kSegmentPrefix[] = "segment-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kRecordChecksumSep[] = " #crc64 ";

std::string SegmentName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08d%s", kSegmentPrefix, index,
                kSegmentSuffix);
  return buf;
}

/// Parses "<dir>/segment-NNNNNNNN.log" -> NNNNNNNN, or -1 if not a segment.
int SegmentIndex(const std::string& filename) {
  const size_t prefix_len = sizeof(kSegmentPrefix) - 1;
  const size_t suffix_len = sizeof(kSegmentSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len) return -1;
  if (filename.compare(0, prefix_len, kSegmentPrefix) != 0) return -1;
  if (filename.compare(filename.size() - suffix_len, suffix_len,
                       kSegmentSuffix) != 0) {
    return -1;
  }
  int index = 0;
  for (size_t i = prefix_len; i < filename.size() - suffix_len; ++i) {
    char c = filename[i];
    if (c < '0' || c > '9') return -1;
    index = index * 10 + (c - '0');
  }
  return index;
}

std::string FormatRecord(const FeedbackEvent& event) {
  std::ostringstream payload;
  payload << "evt " << event.seq << ' ' << static_cast<int>(event.type) << ' '
          << event.row << ' ' << event.label << ' ' << event.lf_id;
  std::string line = payload.str();
  line += kRecordChecksumSep;
  line += ContentChecksum(payload.str());
  line += '\n';
  return line;
}

Status ParseRecord(const std::string& line, const std::string& path,
                   FeedbackEvent* out) {
  size_t sep = line.rfind(kRecordChecksumSep);
  if (sep == std::string::npos) {
    return Status::InvalidArgument("event-log record missing checksum in " +
                                   path);
  }
  std::string payload = line.substr(0, sep);
  std::string crc = line.substr(sep + sizeof(kRecordChecksumSep) - 1);
  if (ContentChecksum(payload) != crc) {
    return Status::InvalidArgument("event-log record checksum mismatch in " +
                                   path);
  }
  uint64_t seq = 0;
  int type = -1;
  int64_t row = -1;
  int label = -1;
  int lf_id = -1;
  char trailing = '\0';
  int parsed =
      std::sscanf(payload.c_str(), "evt %" SCNu64 " %d %" SCNd64 " %d %d%c",
                  &seq, &type, &row, &label, &lf_id, &trailing);
  if (parsed != 5) {
    return Status::InvalidArgument("malformed event-log record in " + path +
                                   ": " + payload);
  }
  if (type < 0 || type > static_cast<int>(FeedbackType::kLfVote)) {
    return Status::InvalidArgument("event-log record with unknown type " +
                                   std::to_string(type) + " in " + path);
  }
  out->seq = seq;
  out->type = static_cast<FeedbackType>(type);
  out->row = row;
  out->label = label;
  out->lf_id = lf_id;
  return Status::Ok();
}

}  // namespace

std::string_view FeedbackTypeToString(FeedbackType type) {
  switch (type) {
    case FeedbackType::kPrediction:
      return "prediction";
    case FeedbackType::kExactLabel:
      return "exact_label";
    case FeedbackType::kLfVote:
      return "lf_vote";
  }
  return "unknown";
}

EventLog::EventLog(std::string dir, EventLogOptions options, uint64_t next_seq,
                   int next_segment_index)
    : dir_(std::move(dir)),
      options_(options),
      next_seq_(next_seq),
      next_segment_index_(next_segment_index) {}

EventLog::~EventLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment_file_ != nullptr) {
    // Flush but leave the segment un-sealed on disk: a process that dies with
    // an open segment relies on the next Open() to seal and recover it, and
    // clean destruction should behave no better than a crash does.
    std::fflush(segment_file_);
    ::fsync(::fileno(segment_file_));
    std::fclose(segment_file_);
    segment_file_ = nullptr;
  }
}

Result<std::unique_ptr<EventLog>> EventLog::Open(
    const std::string& dir, const EventLogOptions& options) {
  if (options.max_records_per_segment <= 0) {
    return Status::InvalidArgument(
        "EventLogOptions.max_records_per_segment must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create event-log dir " + dir + ": " +
                            ec.message());
  }

  // Every segment already on disk — including one left open by a crashed or
  // destroyed writer — is sealed; appends always start a fresh segment.
  std::vector<std::pair<int, std::string>> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    int index = SegmentIndex(entry.path().filename().string());
    if (index >= 0) segments.emplace_back(index, entry.path().string());
  }
  if (ec) {
    return Status::Internal("cannot list event-log dir " + dir + ": " +
                            ec.message());
  }
  std::sort(segments.begin(), segments.end());

  uint64_t next_seq = 0;
  int next_segment_index = 0;
  std::vector<std::string> sealed;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i].second;
    const bool is_last = (i + 1 == segments.size());
    ASSIGN_OR_RETURN(SegmentReplay replay,
                     ReplaySegment(path, /*allow_torn_tail=*/is_last));
    if (replay.truncated_records > 0) {
      // Physically drop the torn tail so later replays are strict.
      std::filesystem::resize_file(path, replay.valid_bytes, ec);
      if (ec) {
        return Status::Internal("cannot truncate torn event-log tail of " +
                                path + ": " + ec.message());
      }
      // Made durable before anything is appended after it: otherwise a
      // crash could restore the torn line in what is by then a non-last
      // segment, which strict replay rejects.
      const Status synced = SyncPath(path);
      if (!synced.ok()) {
        return Status::Internal("cannot make truncated event-log segment " +
                                path + " durable: " + synced.message());
      }
    }
    if (!replay.events.empty()) {
      if (next_seq > 0 && replay.events.front().seq != next_seq) {
        return Status::InvalidArgument(
            "event-log sequence gap entering " + path + ": expected " +
            std::to_string(next_seq) + ", found " +
            std::to_string(replay.events.front().seq));
      }
      next_seq = replay.events.back().seq + 1;
      sealed.push_back(path);
    } else {
      // A segment reduced to nothing by tail recovery carries no events;
      // remove it so replay never sees an empty file, and make the removal
      // durable so a crash cannot bring the file back.
      std::filesystem::remove(path, ec);
      if (ec) {
        return Status::Internal("cannot remove empty event-log segment " +
                                path + ": " + ec.message());
      }
      const Status synced = SyncPath(dir);
      if (!synced.ok()) {
        return Status::Internal("cannot make removal of " + path +
                                " durable: " + synced.message());
      }
    }
    next_segment_index = segments[i].first + 1;
  }

  std::unique_ptr<EventLog> log(
      new EventLog(dir, options, next_seq, next_segment_index));
  log->sealed_segments_ = std::move(sealed);
  return log;
}

Status EventLog::OpenSegmentLocked() {
  segment_path_ =
      (std::filesystem::path(dir_) / SegmentName(next_segment_index_)).string();
  ++next_segment_index_;
  segment_file_ = std::fopen(segment_path_.c_str(), "wb");
  if (segment_file_ == nullptr) {
    return Status::Internal("cannot open event-log segment " + segment_path_);
  }
  segment_records_ = 0;
  // A record is acknowledged only once its segment's directory entry is
  // durable too. Without it, nothing may be appended to this segment.
  const Status synced = SyncPath(dir_);
  if (!synced.ok()) {
    poisoned_ = true;
    return Status::Internal("cannot make event-log segment " + segment_path_ +
                            " durable: " + synced.message());
  }
  return Status::Ok();
}

bool EventLog::SyncSegmentLocked() {
  return std::fflush(segment_file_) == 0 &&
         ::fsync(::fileno(segment_file_)) == 0;
}

Status EventLog::SealSegmentLocked() {
  if (segment_file_ == nullptr) return Status::Ok();
  const bool synced = SyncSegmentLocked();
  const bool closed = std::fclose(segment_file_) == 0;
  segment_file_ = nullptr;
  if (!synced || !closed) {
    poisoned_ = true;
    return Status::Internal("cannot seal event-log segment " + segment_path_);
  }
  // A segment is opened only by Append, which either writes a record to it
  // or poisons the log (failed directory fsync, failed or torn write), and
  // a poisoned log is never sealed: every sealed segment holds a record.
  DCHECK(segment_records_ > 0);
  sealed_segments_.push_back(segment_path_);
  segment_records_ = 0;
  return Status::Ok();
}

Result<uint64_t> EventLog::Append(const FeedbackEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (poisoned_) {
    return Status::Unavailable(
        "event log poisoned by a torn or failed append; Open() a fresh "
        "instance to recover");
  }
  FaultKind fault = CheckFault(
      "eventlog.append", {FaultKind::kError, FaultKind::kTruncateWrite});
  if (fault == FaultKind::kError) {
    return Status::Internal("eventlog.append: injected fault");
  }
  if (segment_file_ == nullptr) RETURN_IF_ERROR(OpenSegmentLocked());

  FeedbackEvent record = event;
  record.seq = next_seq_;
  std::string line = FormatRecord(record);
  size_t to_write = line.size();
  if (fault == FaultKind::kTruncateWrite) {
    // Simulate a crash mid-append: half the record reaches the disk and the
    // writer is gone. The call still reports success (a killed process never
    // reports anything), but this handle refuses all further work — the
    // recovery path is Open(), which truncates the torn tail.
    to_write /= 2;
    poisoned_ = true;
  }
  if (std::fwrite(line.data(), 1, to_write, segment_file_) != to_write ||
      !SyncSegmentLocked()) {
    // Part of the record may be on disk. Appending after it would bury a
    // torn line mid-segment, where Open()'s tail recovery does not look.
    poisoned_ = true;
    return Status::Internal("cannot durably append to event-log segment " +
                            segment_path_);
  }
  next_seq_ = record.seq + 1;
  ++segment_records_;
  if (!poisoned_ && segment_records_ >= options_.max_records_per_segment) {
    RETURN_IF_ERROR(SealSegmentLocked());
  }
  return record.seq;
}

Status EventLog::Rotate() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (poisoned_) {
    return Status::Unavailable(
        "event log poisoned by a torn or failed append; Open() a fresh "
        "instance to recover");
  }
  return SealSegmentLocked();
}

std::vector<std::string> EventLog::SealedSegments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sealed_segments_;
}

uint64_t EventLog::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

Result<SegmentReplay> EventLog::ReplaySegment(const std::string& path,
                                              bool allow_torn_tail) {
  FaultKind fault =
      CheckFault("eventlog.replay", {FaultKind::kError, FaultKind::kCorrupt});
  if (fault == FaultKind::kError) {
    return Status::Internal("eventlog.replay: injected fault reading " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot read event-log segment " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string content = buffer.str();
  if (fault == FaultKind::kCorrupt && !content.empty()) {
    // The flip lands before per-record verification, so the genuine checksum
    // path must be what rejects it.
    content[content.size() / 3] ^= 0x01;
  }

  SegmentReplay out;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t newline = content.find('\n', pos);
    if (newline == std::string::npos) {
      // A record without its terminating newline can only be a tail the
      // writer never finished; a complete record always ends in '\n'.
      if (!allow_torn_tail) {
        return Status::InvalidArgument("torn record at end of " + path);
      }
      out.truncated_records = 1;
      return out;
    }
    std::string line = content.substr(pos, newline - pos);
    FeedbackEvent event;
    RETURN_IF_ERROR(ParseRecord(line, path, &event));
    if (!out.events.empty() && event.seq != out.events.back().seq + 1) {
      return Status::InvalidArgument(
          "event-log sequence gap in " + path + ": expected " +
          std::to_string(out.events.back().seq + 1) + ", found " +
          std::to_string(event.seq));
    }
    out.events.push_back(event);
    pos = newline + 1;
    out.valid_bytes = pos;
  }
  return out;
}

Result<std::vector<FeedbackEvent>> EventLog::ReplayAll() const {
  std::vector<std::string> segments = SealedSegments();
  std::vector<FeedbackEvent> all;
  for (const std::string& path : segments) {
    ASSIGN_OR_RETURN(SegmentReplay replay,
                     ReplaySegment(path, /*allow_torn_tail=*/false));
    for (const FeedbackEvent& event : replay.events) {
      if (!all.empty() && event.seq != all.back().seq + 1) {
        return Status::InvalidArgument(
            "event-log sequence gap across segments at " + path);
      }
      all.push_back(event);
    }
  }
  return all;
}

uint64_t EventLog::ReplayDigest(const std::vector<FeedbackEvent>& events) {
  uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  for (const FeedbackEvent& event : events) {
    mix(event.seq);
    mix(static_cast<uint64_t>(static_cast<int>(event.type)));
    mix(static_cast<uint64_t>(event.row));
    mix(static_cast<uint64_t>(static_cast<int64_t>(event.label)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(event.lf_id)));
  }
  return hash;
}

}  // namespace activedp
