#ifndef ACTIVEDP_UTIL_TRACE_H_
#define ACTIVEDP_UTIL_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace activedp {

/// RunTrace: one structured timeline for the whole pipeline (DESIGN.md §9).
///
/// The tracer records two record kinds into per-thread buffers:
///
///   spans    RAII-timed stage executions (TraceSpan) with nesting
///   events   instants folded in from the existing silos: retries
///            (util/retry), degradations (core/recovery), fault-site fires
///            (util/fault), solver non-convergence, deadline trips
///
/// Determinism contract: every record carries a (track, seq) identity —
/// `track` is the logical lane (the seed ordinal under RunExperiment, 0
/// otherwise) and `seq` a per-track counter drawn at record creation. A
/// track is only ever driven by one thread at a time, so (track, seq) is a
/// pure function of the run's control flow: two runs at the same seed
/// produce identical traces *modulo the timestamp fields* (`ts_us`,
/// `dur_us`), which is what tests/trace_test.cc asserts. Records created on
/// compute-pool worker threads would break this (workers interleave
/// nondeterministically), so stages span at the *caller* level and workers
/// only touch util/metrics.h atomics.
///
/// Cost contract: when the runtime flag is off (the default) a TraceSpan
/// constructor is one acquire atomic load and no allocation.

/// One completed (or still-open) stage execution.
struct TraceSpanRecord {
  int track = 0;
  int64_t seq = 0;
  int64_t parent_seq = -1;  // seq of the enclosing span on this track
  int depth = 0;
  std::string stage;
  /// Timestamp fields — the only fields allowed to differ between same-seed
  /// runs. Microseconds since the tracer's epoch; duration -1 = still open.
  int64_t ts_us = 0;
  int64_t dur_us = -1;
  /// Deterministic integer annotations (iteration counts, sizes, 0/1
  /// convergence flags) recorded via TraceSpan::AddArg.
  std::vector<std::pair<std::string, int64_t>> args;
};

/// One instant event folded in from a silo.
struct TraceEventRecord {
  int track = 0;
  int64_t seq = 0;
  /// "retry" | "degradation" | "fault" | "convergence" | "deadline".
  std::string category;
  /// Site or stage name, e.g. "label_model.fit".
  std::string name;
  std::string detail;
  int64_t ts_us = 0;  // timestamp field
};

/// Per-stage aggregate over a RunTrace (wall time is *inclusive* of nested
/// spans; it answers "where did the time go" per stage name).
struct TraceStageStats {
  std::string stage;
  int64_t count = 0;
  double total_seconds = 0.0;
};

struct TraceSummary {
  std::vector<TraceStageStats> stages;  // sorted by total_seconds descending
  std::vector<std::pair<std::string, int64_t>> event_counts;  // by category
  int64_t num_spans = 0;
  int64_t num_events = 0;

  /// Aligned human-readable table (chaos_matrix prints this).
  std::string ToString() const;
  std::string ToJson() const;
};

/// A collected run timeline, merged from the per-thread buffers into the
/// deterministic (track, seq) order.
struct RunTrace {
  std::vector<TraceSpanRecord> spans;
  std::vector<TraceEventRecord> events;

  /// One JSON object per line, spans and events interleaved in (track, seq)
  /// order. Identical between same-seed runs after stripping ts_us/dur_us.
  std::string ToJsonl() const;
  /// Chrome trace_event JSON ({"traceEvents": [...]}), loadable in
  /// chrome://tracing and Perfetto; spans are "X" events, instants "i".
  std::string ToChromeJson() const;
  TraceSummary Summary() const;
};

/// Writes `<dir>/<stem>.trace.jsonl`, `<dir>/<stem>.trace.chrome.json` and
/// `<dir>/<stem>.trace.summary.json` (summary + a Global metrics snapshot)
/// via AtomicWriteFile. Creates `dir` if needed.
Status WriteRunTrace(const RunTrace& trace, const std::string& dir,
                     const std::string& stem);

/// Observer of the span/instant stream, *independent* of the tracer's
/// enabled state: a registered sink sees every TraceInstant and every
/// TraceSpan end even while the full tracer is off. This is how the flight
/// recorder (src/obs) taps existing call sites without util depending on
/// obs — the recorder implements this interface and installs itself via
/// SetTraceSink. Callbacks run inline on the recording thread and must be
/// cheap and non-blocking. Timestamps passed to OnSpanEnd are raw
/// steady-clock micros with no particular epoch; sinks needing wall
/// alignment keep their own clock.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnInstant(std::string_view category, std::string_view name,
                         std::string_view detail) = 0;
  virtual void OnSpanEnd(std::string_view stage, int64_t start_us,
                         int64_t dur_us) = 0;
};

/// Installs (or with nullptr, removes) the process-wide sink. The sink is
/// borrowed: the caller keeps it alive until after SetTraceSink(nullptr)
/// returns. Cost when no sink is installed: one relaxed-ish atomic load
/// per TraceSpan / TraceInstant.
void SetTraceSink(TraceSink* sink);
TraceSink* ActiveTraceSink();

/// The process-wide tracer. Arm with Enable() (resets buffers and the
/// timestamp epoch), run the pipeline, then Collect(). Enable/Collect must
/// not race with open spans — bracket whole runs, as RunExperiment does for
/// `ExperimentSpec.policy.trace_dir`.
class Tracer {
 public:
  static Tracer& Global();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Clears all buffers, resets per-track sequence counters and the epoch,
  /// and arms the tracer.
  void Enable();
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  /// Acquire pairs with Enable()'s release store so a thread that observes
  /// enabled() == true also observes the epoch written before it.
  bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Merges every thread's records into (track, seq) order. Safe to call
  /// with the tracer still enabled as long as no spans are open.
  RunTrace Collect();

  // --- Internal plumbing for TraceSpan / TraceInstant (treat as private;
  // exposed because the RAII types live outside the class). ---
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<TraceSpanRecord> spans;
    std::vector<TraceEventRecord> events;
  };
  ThreadBuffer* GetThreadBuffer();
  int64_t NextSeq(int track);
  int64_t NowMicros() const;
  int64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{false};
  /// Bumped by Enable() so a span that straddles a reset never writes a
  /// stale buffer index.
  std::atomic<int64_t> generation_{0};
  /// steady_clock microseconds at the last Enable(). Atomic because
  /// NowMicros() reads it from recording threads while Enable() resets it
  /// (the reset race the generation guard already tolerates for buffers).
  std::atomic<int64_t> epoch_us_{0};
  mutable std::mutex mutex_;  // guards buffers_ and track_seq_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<int, int64_t> track_seq_;
};

/// Sets the calling thread's trace track for its lifetime (restores the
/// previous track on destruction). RunExperiment opens one per seed so
/// parallel seeds land on separate, deterministic lanes.
class TraceTrackScope {
 public:
  explicit TraceTrackScope(int track);
  ~TraceTrackScope();

  TraceTrackScope(const TraceTrackScope&) = delete;
  TraceTrackScope& operator=(const TraceTrackScope&) = delete;

  /// The calling thread's current track (0 outside any scope).
  static int CurrentTrack();

 private:
  int previous_;
};

/// RAII stage span: records (track, seq, parent, depth, stage) at
/// construction and the duration at destruction — including destruction by
/// exception unwinding, so a throwing stage still closes its span. A
/// disabled tracer makes construction a single relaxed load.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view stage);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a deterministic integer annotation (iteration counts, sizes,
  /// 0/1 flags). No-op on an inactive span.
  void AddArg(std::string_view key, int64_t value);

  bool active() const { return active_; }

 private:
  bool active_ = false;
  Tracer::ThreadBuffer* buffer_ = nullptr;
  size_t index_ = 0;
  int64_t seq_ = 0;
  int64_t generation_ = 0;
  int64_t start_us_ = 0;
  /// Sink-side timing, valid whenever a TraceSink was installed at
  /// construction — works with the tracer disabled.
  std::string sink_stage_;
  int64_t sink_start_us_ = -1;
};

/// Records one instant event on the calling thread's track. This is the
/// funnel the silos fold through: util/retry, core/recovery, util/fault and
/// the solvers call it at their existing record points.
void TraceInstant(std::string_view category, std::string_view name,
                  std::string_view detail);

}  // namespace activedp

#endif  // ACTIVEDP_UTIL_TRACE_H_
