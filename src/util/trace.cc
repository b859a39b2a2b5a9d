#include "util/trace.h"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include "util/atomic_file.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace activedp {
namespace {

/// The calling thread's logical lane; one thread drives one track at a
/// time, which is what makes (track, seq) deterministic.
thread_local int g_track = 0;
/// Open-span seqs on this thread, innermost last (spans are strictly
/// nested per thread by RAII).
thread_local std::vector<int64_t> g_span_stack;
/// This thread's registered buffer in Tracer::Global() (buffers are never
/// freed, so the cached pointer stays valid for the process lifetime).
thread_local Tracer::ThreadBuffer* g_buffer = nullptr;

/// The installed TraceSink, if any. Acquire/release so a thread that
/// observes the sink also observes its construction.
std::atomic<TraceSink*> g_trace_sink{nullptr};

/// Raw steady-clock micros for sink-side span timing (no tracer epoch —
/// sinks only ever take differences or keep their own clock).
int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetTraceSink(TraceSink* sink) {
  g_trace_sink.store(sink, std::memory_order_release);
}

TraceSink* ActiveTraceSink() {
  return g_trace_sink.load(std::memory_order_acquire);
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->spans.clear();
    buffer->events.clear();
  }
  track_seq_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  epoch_us_.store(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count(),
                  std::memory_order_relaxed);
  // Release pairs with the acquire load in enabled(): a thread that observes
  // enabled() == true also observes the epoch stored above.
  enabled_.store(true, std::memory_order_release);
}

Tracer::ThreadBuffer* Tracer::GetThreadBuffer() {
  if (g_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    g_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return g_buffer;
}

int64_t Tracer::NextSeq(int track) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++track_seq_[track];
}

int64_t Tracer::NowMicros() const {
  const int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return now_us - epoch_us_.load(std::memory_order_relaxed);
}

RunTrace Tracer::Collect() {
  RunTrace trace;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    trace.spans.insert(trace.spans.end(), buffer->spans.begin(),
                       buffer->spans.end());
    trace.events.insert(trace.events.end(), buffer->events.begin(),
                        buffer->events.end());
  }
  const auto by_track_seq = [](const auto& a, const auto& b) {
    return a.track != b.track ? a.track < b.track : a.seq < b.seq;
  };
  std::sort(trace.spans.begin(), trace.spans.end(), by_track_seq);
  std::sort(trace.events.begin(), trace.events.end(), by_track_seq);
  return trace;
}

// ------------------------------------------------------------- tracks ----

TraceTrackScope::TraceTrackScope(int track) : previous_(g_track) {
  g_track = track;
}

TraceTrackScope::~TraceTrackScope() { g_track = previous_; }

int TraceTrackScope::CurrentTrack() { return g_track; }

// -------------------------------------------------------------- spans ----

TraceSpan::TraceSpan(std::string_view stage) {
  if (ActiveTraceSink() != nullptr) {
    sink_stage_ = std::string(stage);
    sink_start_us_ = SteadyNowMicros();
  }
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  buffer_ = tracer.GetThreadBuffer();
  seq_ = tracer.NextSeq(g_track);
  generation_ = tracer.generation();
  TraceSpanRecord record;
  record.track = g_track;
  record.seq = seq_;
  record.parent_seq = g_span_stack.empty() ? -1 : g_span_stack.back();
  record.depth = static_cast<int>(g_span_stack.size());
  record.stage = std::string(stage);
  record.ts_us = tracer.NowMicros();
  start_us_ = record.ts_us;
  {
    std::lock_guard<std::mutex> lock(buffer_->mutex);
    index_ = buffer_->spans.size();
    buffer_->spans.push_back(std::move(record));
  }
  g_span_stack.push_back(seq_);
  active_ = true;
}

TraceSpan::~TraceSpan() {
  if (sink_start_us_ >= 0) {
    if (TraceSink* sink = ActiveTraceSink()) {
      sink->OnSpanEnd(sink_stage_, sink_start_us_,
                      std::max<int64_t>(0, SteadyNowMicros() - sink_start_us_));
    }
  }
  if (!active_) return;
  g_span_stack.pop_back();
  Tracer& tracer = Tracer::Global();
  const int64_t dur = tracer.NowMicros() - start_us_;
  std::lock_guard<std::mutex> lock(buffer_->mutex);
  // A reset while this span was open cleared the buffer; never write a
  // stale index.
  if (tracer.generation() == generation_ && index_ < buffer_->spans.size()) {
    buffer_->spans[index_].dur_us = dur < 0 ? 0 : dur;
  }
}

void TraceSpan::AddArg(std::string_view key, int64_t value) {
  if (!active_) return;
  std::lock_guard<std::mutex> lock(buffer_->mutex);
  if (Tracer::Global().generation() == generation_ &&
      index_ < buffer_->spans.size()) {
    buffer_->spans[index_].args.emplace_back(std::string(key), value);
  }
}

void TraceInstant(std::string_view category, std::string_view name,
                  std::string_view detail) {
  if (TraceSink* sink = ActiveTraceSink()) {
    sink->OnInstant(category, name, detail);
  }
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  Tracer::ThreadBuffer* buffer = tracer.GetThreadBuffer();
  TraceEventRecord record;
  record.track = g_track;
  record.seq = tracer.NextSeq(g_track);
  record.category = std::string(category);
  record.name = std::string(name);
  record.detail = std::string(detail);
  record.ts_us = tracer.NowMicros();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(std::move(record));
}

// ------------------------------------------------------------ exports ----

std::string RunTrace::ToJsonl() const {
  std::ostringstream out;
  // Merge spans and events into one (track, seq)-ordered stream so the line
  // order itself is deterministic.
  size_t s = 0;
  size_t e = 0;
  const auto span_first = [&]() {
    if (s >= spans.size()) return false;
    if (e >= events.size()) return true;
    if (spans[s].track != events[e].track) {
      return spans[s].track < events[e].track;
    }
    return spans[s].seq < events[e].seq;
  };
  while (s < spans.size() || e < events.size()) {
    if (span_first()) {
      const TraceSpanRecord& r = spans[s++];
      out << "{\"type\": \"span\", \"track\": " << r.track
          << ", \"seq\": " << r.seq << ", \"parent\": " << r.parent_seq
          << ", \"depth\": " << r.depth << ", \"stage\": \""
          << JsonEscape(r.stage) << "\", \"args\": {";
      for (size_t i = 0; i < r.args.size(); ++i) {
        if (i > 0) out << ", ";
        out << "\"" << JsonEscape(r.args[i].first)
            << "\": " << r.args[i].second;
      }
      out << "}, \"ts_us\": " << r.ts_us << ", \"dur_us\": " << r.dur_us
          << "}\n";
    } else {
      const TraceEventRecord& r = events[e++];
      out << "{\"type\": \"event\", \"track\": " << r.track
          << ", \"seq\": " << r.seq << ", \"category\": \""
          << JsonEscape(r.category) << "\", \"name\": \""
          << JsonEscape(r.name) << "\", \"detail\": \""
          << JsonEscape(r.detail) << "\", \"ts_us\": " << r.ts_us << "}\n";
    }
  }
  return out.str();
}

std::string RunTrace::ToChromeJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const TraceSpanRecord& r : spans) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": \"" << JsonEscape(r.stage)
        << "\", \"cat\": \"stage\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
        << r.track << ", \"ts\": " << r.ts_us
        << ", \"dur\": " << (r.dur_us < 0 ? 0 : r.dur_us) << ", \"args\": {";
    out << "\"seq\": " << r.seq;
    for (const auto& [key, value] : r.args) {
      out << ", \"" << JsonEscape(key) << "\": " << value;
    }
    out << "}}";
  }
  for (const TraceEventRecord& r : events) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": \"" << JsonEscape(r.name) << "\", \"cat\": \""
        << JsonEscape(r.category)
        << "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": " << r.track
        << ", \"ts\": " << r.ts_us << ", \"args\": {\"detail\": \""
        << JsonEscape(r.detail) << "\"}}";
  }
  out << "\n]}\n";
  return out.str();
}

TraceSummary RunTrace::Summary() const {
  TraceSummary summary;
  std::map<std::string, TraceStageStats> stages;
  for (const TraceSpanRecord& r : spans) {
    TraceStageStats& stats = stages[r.stage];
    stats.stage = r.stage;
    ++stats.count;
    if (r.dur_us > 0) stats.total_seconds += r.dur_us * 1e-6;
  }
  for (auto& [name, stats] : stages) summary.stages.push_back(stats);
  std::sort(summary.stages.begin(), summary.stages.end(),
            [](const TraceStageStats& a, const TraceStageStats& b) {
              if (a.total_seconds != b.total_seconds) {
                return a.total_seconds > b.total_seconds;
              }
              return a.stage < b.stage;
            });
  std::map<std::string, int64_t> categories;
  for (const TraceEventRecord& r : events) ++categories[r.category];
  summary.event_counts.assign(categories.begin(), categories.end());
  summary.num_spans = static_cast<int64_t>(spans.size());
  summary.num_events = static_cast<int64_t>(events.size());
  return summary;
}

std::string TraceSummary::ToString() const {
  std::ostringstream out;
  out << "stage                             count      seconds\n";
  for (const TraceStageStats& s : stages) {
    out << std::left << std::setw(32) << s.stage << std::right << std::setw(7)
        << s.count << std::setw(13) << std::fixed << std::setprecision(4)
        << s.total_seconds << "\n";
  }
  out << "spans: " << num_spans << ", events:";
  if (event_counts.empty()) out << " none";
  for (const auto& [category, count] : event_counts) {
    out << " " << category << "=" << count;
  }
  out << "\n";
  return out.str();
}

std::string TraceSummary::ToJson() const {
  std::ostringstream out;
  out << "{\"stages\": [";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"stage\": \"" << JsonEscape(stages[i].stage)
        << "\", \"count\": " << stages[i].count
        << ", \"seconds\": " << stages[i].total_seconds << "}";
  }
  out << "], \"events\": {";
  for (size_t i = 0; i < event_counts.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << JsonEscape(event_counts[i].first)
        << "\": " << event_counts[i].second;
  }
  out << "}, \"num_spans\": " << num_spans
      << ", \"num_events\": " << num_events << "}";
  return out.str();
}

Status WriteRunTrace(const RunTrace& trace, const std::string& dir,
                     const std::string& stem) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create trace dir " + dir + ": " +
                            ec.message());
  }
  const std::string base = dir + "/" + stem;
  RETURN_IF_ERROR(AtomicWriteFile(base + ".trace.jsonl", trace.ToJsonl()));
  RETURN_IF_ERROR(
      AtomicWriteFile(base + ".trace.chrome.json", trace.ToChromeJson()));
  std::ostringstream summary;
  summary << "{\"summary\": " << trace.Summary().ToJson()
          << ", \"metrics\": " << MetricsRegistry::Global().ToJson() << "}\n";
  return AtomicWriteFile(base + ".trace.summary.json", summary.str());
}

}  // namespace activedp
