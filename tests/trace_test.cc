// RunTrace tracer tests (util/trace.h): span nesting and exception
// unwinding, the (track, seq) determinism contract across thread counts,
// JSONL / Chrome trace_event syntactic validity, and the end-to-end promise
// that two same-seed experiments produce identical traces modulo timestamps.
//
// Every test arms the process-wide Tracer::Global() and disables it before
// returning, so the suite leaves no tracing cost behind for other tests.

#include "util/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "util/csv.h"
#include "util/metrics.h"

namespace activedp {
namespace {

// Removes the timestamp fields — the only fields allowed to differ between
// same-seed runs per the determinism contract in util/trace.h.
std::string StripTimestamps(const std::string& text) {
  static const std::regex kTimestamp(
      "\"(ts_us|dur_us|ts|dur)\": -?[0-9]+");
  return std::regex_replace(text, kTimestamp, "\"$1\": _");
}

// Minimal recursive-descent JSON syntax checker — enough to prove the
// exported text is well-formed without pulling in a JSON dependency.
class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker checker(text);
    checker.SkipWs();
    if (!checker.Value()) return false;
    checker.SkipWs();
    return checker.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        pos_ += 2;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(TraceTest, DisabledTracerRecordsNothingAndSpansAreInactive) {
  Tracer::Global().Disable();
  {
    TraceSpan span("never.recorded");
    EXPECT_FALSE(span.active());
    span.AddArg("ignored", 1);
    TraceInstant("retry", "never", "recorded");
  }
  Tracer::Global().Enable();
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(trace.events.empty());
}

TEST(TraceTest, SpanNestingRecordsParentSeqAndDepth) {
  Tracer::Global().Enable();
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
      { TraceSpan leaf("leaf"); }
    }
    { TraceSpan sibling("sibling"); }
  }
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();

  ASSERT_EQ(trace.spans.size(), 4u);
  const TraceSpanRecord& outer = trace.spans[0];
  const TraceSpanRecord& inner = trace.spans[1];
  const TraceSpanRecord& leaf = trace.spans[2];
  const TraceSpanRecord& sibling = trace.spans[3];
  EXPECT_EQ(outer.stage, "outer");
  EXPECT_EQ(outer.parent_seq, -1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.parent_seq, outer.seq);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(leaf.parent_seq, inner.seq);
  EXPECT_EQ(leaf.depth, 2);
  EXPECT_EQ(sibling.parent_seq, outer.seq);
  EXPECT_EQ(sibling.depth, 1);
  // All spans closed: durations recorded.
  for (const TraceSpanRecord& span : trace.spans) {
    EXPECT_GE(span.dur_us, 0) << span.stage;
  }
  // Sequences are 1-based and strictly increasing in construction order.
  EXPECT_EQ(outer.seq, 1);
  EXPECT_EQ(inner.seq, 2);
  EXPECT_EQ(leaf.seq, 3);
  EXPECT_EQ(sibling.seq, 4);
}

TEST(TraceTest, ExceptionUnwindingClosesOpenSpans) {
  Tracer::Global().Enable();
  try {
    TraceSpan outer("throwing.outer");
    TraceSpan inner("throwing.inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // The stack unwound cleanly: a new root span nests at depth 0 again.
  { TraceSpan after("after.throw"); }
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();

  ASSERT_EQ(trace.spans.size(), 3u);
  for (const TraceSpanRecord& span : trace.spans) {
    EXPECT_GE(span.dur_us, 0) << span.stage << " left open";
  }
  EXPECT_EQ(trace.spans[2].stage, "after.throw");
  EXPECT_EQ(trace.spans[2].depth, 0);
  EXPECT_EQ(trace.spans[2].parent_seq, -1);
}

TEST(TraceTest, ArgsAndInstantsShareTheTrackSequence) {
  Tracer::Global().Enable();
  {
    TraceSpan span("stage.with.args");
    span.AddArg("iteration", 7);
    TraceInstant("retry", "stage.with.args", "transient failure");
    span.AddArg("converged", 1);
  }
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();

  ASSERT_EQ(trace.spans.size(), 1u);
  ASSERT_EQ(trace.events.size(), 1u);
  ASSERT_EQ(trace.spans[0].args.size(), 2u);
  EXPECT_EQ(trace.spans[0].args[0].first, "iteration");
  EXPECT_EQ(trace.spans[0].args[0].second, 7);
  EXPECT_EQ(trace.spans[0].args[1].first, "converged");
  EXPECT_EQ(trace.spans[0].args[1].second, 1);
  EXPECT_EQ(trace.events[0].category, "retry");
  EXPECT_EQ(trace.events[0].detail, "transient failure");
  // The event drew the next seq after the span on the same track.
  EXPECT_EQ(trace.events[0].track, trace.spans[0].track);
  EXPECT_EQ(trace.events[0].seq, trace.spans[0].seq + 1);
}

// The deterministic workload each track runs in the merge test below.
void TrackWorkload(int track) {
  TraceTrackScope scope(track);
  TraceSpan outer("work.outer");
  outer.AddArg("track", track);
  for (int i = 0; i < 3; ++i) {
    TraceSpan inner("work.inner");
    inner.AddArg("i", i);
    if (i == 1) TraceInstant("fault", "work.inner", "injected");
  }
}

TEST(TraceTest, MergeIsDeterministicAcrossOneVsFourThreads) {
  constexpr int kTracks = 4;

  // Serial: one thread drives all four tracks in order.
  Tracer::Global().Enable();
  for (int t = 0; t < kTracks; ++t) TrackWorkload(t);
  const RunTrace serial = Tracer::Global().Collect();

  // Parallel: four threads, one per track, interleaving freely. The merge
  // sorts by (track, seq), so the collected trace must match the serial one
  // exactly after stripping timestamps.
  Tracer::Global().Enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < kTracks; ++t) {
    threads.emplace_back(TrackWorkload, t);
  }
  for (std::thread& thread : threads) thread.join();
  const RunTrace parallel = Tracer::Global().Collect();
  Tracer::Global().Disable();

  EXPECT_EQ(serial.spans.size(), parallel.spans.size());
  EXPECT_EQ(serial.events.size(), parallel.events.size());
  EXPECT_EQ(StripTimestamps(serial.ToJsonl()),
            StripTimestamps(parallel.ToJsonl()));
}

TEST(TraceTest, JsonlAndChromeExportsAreWellFormed) {
  Tracer::Global().Enable();
  {
    TraceSpan span("stage \"quoted\"\nnewline");
    span.AddArg("n", 42);
    TraceInstant("degradation", "stage\\back", "reason -> fallback\t(tab)");
  }
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();

  // Every JSONL line is one standalone JSON object, escapes included.
  const std::vector<std::string> lines = SplitLines(trace.ToJsonl());
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonChecker::Valid(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"type\": \"span\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\": \"event\""), std::string::npos);
  // Timestamp fields are serialized last so tests (and diff tools) can
  // strip them with a regex without re-ordering keys.
  EXPECT_GT(lines[0].find("\"ts_us\""), lines[0].find("\"args\""));

  // The Chrome export is one JSON document with the trace_event envelope.
  const std::string chrome = trace.ToChromeJson();
  EXPECT_TRUE(JsonChecker::Valid(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"i\""), std::string::npos);

  // The summary JSON is valid too.
  EXPECT_TRUE(JsonChecker::Valid(trace.Summary().ToJson()));
}

TEST(TraceTest, SummaryAggregatesByStageAndCategory) {
  Tracer::Global().Enable();
  for (int i = 0; i < 3; ++i) {
    TraceSpan span("repeated.stage");
  }
  { TraceSpan span("single.stage"); }
  TraceInstant("retry", "a", "x");
  TraceInstant("retry", "b", "y");
  TraceInstant("fault", "c", "z");
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();

  const TraceSummary summary = trace.Summary();
  EXPECT_EQ(summary.num_spans, 4);
  EXPECT_EQ(summary.num_events, 3);
  int64_t repeated = 0;
  int64_t retries = 0;
  for (const TraceStageStats& stats : summary.stages) {
    if (stats.stage == "repeated.stage") repeated = stats.count;
  }
  for (const auto& [category, count] : summary.event_counts) {
    if (category == "retry") retries = count;
  }
  EXPECT_EQ(repeated, 3);
  EXPECT_EQ(retries, 2);
  EXPECT_FALSE(summary.ToString().empty());
}

TEST(TraceTest, EnableWhileSpanOpenDoesNotCorruptTheNewGeneration) {
  Tracer::Global().Enable();
  {
    TraceSpan stale("stale.span");
    Tracer::Global().Enable();  // reset mid-span: bumps the generation
    // The stale span's destructor must not write into the fresh buffer.
  }
  { TraceSpan fresh("fresh.span"); }
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();

  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].stage, "fresh.span");
  EXPECT_GE(trace.spans[0].dur_us, 0);
}

// Same-seed experiments must emit byte-identical trace files modulo the
// timestamp fields — the ISSUE's acceptance bar for the whole tentpole.
TEST(TraceTest, SameSeedExperimentTracesIdenticalModuloTimestamps) {
  ExperimentSpec spec;
  spec.dataset = "youtube";
  spec.framework = FrameworkType::kActiveDp;
  spec.protocol.iterations = 20;
  spec.protocol.eval_every = 10;
  spec.data_scale = 0.2;
  spec.num_seeds = 2;
  spec.base_seed = 7;

  spec.policy.trace_dir = testing::TempDir() + "/trace_a";
  ASSERT_TRUE(RunExperiment(spec).ok());
  spec.policy.trace_dir = testing::TempDir() + "/trace_b";
  ASSERT_TRUE(RunExperiment(spec).ok());

  const std::string stem = "/youtube-activedp";
  Result<std::string> a =
      ReadFile(testing::TempDir() + "/trace_a" + stem + ".trace.jsonl");
  Result<std::string> b =
      ReadFile(testing::TempDir() + "/trace_b" + stem + ".trace.jsonl");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->empty());
  EXPECT_EQ(StripTimestamps(*a), StripTimestamps(*b));

  // Every protocol stage shows up in the timeline.
  for (const char* stage :
       {"experiment.seed", "dataset.make", "protocol.round", "protocol.eval",
        "end_model.fit", "activedp.step", "sampler.select", "oracle.create_lf",
        "lf.apply", "al_model.fit", "label_model.fit",
        "label_model.predict"}) {
    EXPECT_NE(a->find(std::string("\"stage\": \"") + stage + "\""),
              std::string::npos)
        << "missing stage " << stage;
  }

  // Both seeds recorded on their own tracks.
  EXPECT_NE(a->find("\"track\": 0"), std::string::npos);
  EXPECT_NE(a->find("\"track\": 1"), std::string::npos);

  // Each JSONL line parses; the Chrome companion file is one JSON document.
  for (const std::string& line : SplitLines(*a)) {
    ASSERT_TRUE(JsonChecker::Valid(line)) << line;
  }
  Result<std::string> chrome =
      ReadFile(testing::TempDir() + "/trace_a" + stem + ".trace.chrome.json");
  ASSERT_TRUE(chrome.ok());
  EXPECT_TRUE(JsonChecker::Valid(*chrome));
  Result<std::string> summary =
      ReadFile(testing::TempDir() + "/trace_a" + stem + ".trace.summary.json");
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(JsonChecker::Valid(*summary));
  EXPECT_NE(summary->find("\"metrics\""), std::string::npos);
}

// Hammer for the TSan preset: concurrent spans, args, instants and metrics
// from many threads, with a mid-flight Enable() reset thrown in.
TEST(TraceTest, ConcurrentRecordingIsThreadSafe) {
  Tracer::Global().Enable();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t]() {
      TraceTrackScope scope(t);
      for (int i = 0; i < 200; ++i) {
        TraceSpan span("hammer.stage");
        span.AddArg("i", i);
        if (i % 7 == 0) TraceInstant("retry", "hammer", "contend");
        MetricsRegistry::Global().counter("hammer.count").Increment();
      }
    });
  }
  // Reset concurrently with the writers: generation guard must hold.
  Tracer::Global().Enable();
  for (std::thread& thread : threads) thread.join();
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();
  // No structural guarantees after the reset race — only memory safety and
  // that whatever survived is well-formed.
  for (const TraceSpanRecord& span : trace.spans) {
    EXPECT_EQ(span.stage, "hammer.stage");
  }
}

}  // namespace
}  // namespace activedp
