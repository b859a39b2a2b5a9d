// ActiveDP benchmark driver: one process runs one workload.
//
//   step-text / step-tabular   full interactive ActiveDP sessions (the wait
//                              between a labelling user's questions)
//   serve-mix                  open-loop multi-tenant serving through a
//                              2-shard ShardRouter
//
// run.py runs one process per run. Flags:
//   --workload NAME --seed N --seconds S --trace 0|1 --setup-reps R, and for
//   the step workloads the parameters that differ between them (--dataset,
//   --scale, --label-accuracy-floor), all from spec.json. Every other
//   parameter is a constant below; spec.json documents them.
//
// The shared machine runs in slow spells of a second or more, in which the
// same work takes 10-30% longer. So every timed unit of work is repeated far
// apart in time and the best of its repeats is kept (bench_stats.h BestOf):
// each step of a session seed, and each full serving batch. Open-loop
// latency cannot be repeated that way; its percentiles are medians over
// windows spread across the run.
//
// With --trace 0 the tracer stays off and the last stdout line carries the
// end-to-end metrics; with --trace 1 untraced and traced passes alternate
// and the last line carries the per-layer metrics plus the tracing
// overhead. Lines above it, prefixed "#", are the human-readable report.
// The process exits 1 when any correctness check fails.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "core/activedp.h"
#include "core/end_model.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "serve/serve_config.h"
#include "serve/shard_router.h"
#include "serve/snapshot_export.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using activedp::ActiveDp;
using activedp::ActiveDpOptions;
using activedp::DataSplit;
using activedp::Example;
using activedp::FrameworkContext;
using activedp::MetricsRegistry;
using activedp::MetricsSnapshot;
using activedp::PredictionDigest;
using activedp::ModelSnapshot;
using activedp::Rng;
using activedp::ServedPrediction;
using activedp::Status;
using activedp::Tracer;
using activedp::TraceSpan;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------- parameters ----

/// The corpus (and serve-mix's trained tenants) is fixed per workload, as in
/// one labelling project; --seed drives the session or the traffic.
constexpr uint64_t kDatasetSeed = 1;
/// Steps per session: 200 puts ten samples beyond the p95.
constexpr int kSessionSteps = 200;
/// Each session seed runs this many times; a step's time is the best of them.
constexpr int kRepeats = 3;
/// Session seeds per run: one per this many seconds of --seconds (a seed's
/// repeats take about 14 s on IMDB at scale 1.0).
constexpr double kSecondsPerSeed = 15.0;

/// serve-mix: the two tenants, trained with ActiveDP and exported.
struct TenantSpec {
  const char* kind;
  const char* dataset;
  double scale;
  int steps;
};
constexpr TenantSpec kTenantSpecs[] = {{"text", "imdb", 0.25, 100},
                                       {"tabular", "occupancy", 0.25, 100}};
/// Fixed open-loop rates: the 2 ms batching timer sets latency at the low
/// rate, batches fill at the high one.
constexpr double kLowRps = 2000.0;
constexpr double kHighRps = 50000.0;
/// Range and resolution of the serve_max_rps bisection.
constexpr double kMaxRpsCap = 400000.0;
constexpr double kMinRpsFloor = 500.0;
constexpr double kBisectResolution = 0.04;
constexpr int kBisectProbes = 7;
/// Shares of --seconds: the low rate runs in three equal segments (start,
/// middle and end of the run), the high rate once, and the rest is split
/// evenly over the bisection probes.
constexpr double kLowShare = 0.5;
constexpr double kHighShare = 0.2;
/// Full batches timed off the load path after every phase, for the guarded
/// serve compute metrics; a batch's service time is the best of its passes.
constexpr int kServiceBatches = 2000;

// ------------------------------------------------------------ flags ----

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
        std::exit(2);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  double Num(const std::string& key) const { return std::stod(Str(key)); }
  int Int(const std::string& key) const { return std::stoi(Str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

// ----------------------------------------------------------- report ----

/// FNV-1a over the bit patterns of what it is fed (the perf_bench digest).
class Fnv {
 public:
  void Add(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// Collects the run's verdicts and metrics and prints the final JSON line.
class Report {
 public:
  /// One human-readable line ("# name value unit  note").
  void Line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    std::printf("# %-36s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  void Note(const std::string& text) { std::printf("# %s\n", text.c_str()); }

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "correctness check failed: %s\n", what.c_str());
    }
  }

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }

  /// A per-layer metric of a traced run, printed and put in the result.
  /// run.py checks the names against BENCHMARK.json and reports 0 for the
  /// layers a workload does not exercise.
  void Layer(const std::string& name, double value, const std::string& unit) {
    Line(name, value, unit);
    Metric(name, value, unit);
  }

  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_ && attempted_ > 0; }

  void PrintJson() const {
    std::ostringstream out;
    out.precision(12);
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      double v = metrics_[i].second.first;
      if (!std::isfinite(v)) v = 1e9;  // a failed measurement, kept JSON-valid
      out << (i > 0 ? ", " : "") << "\"" << metrics_[i].first
          << "\": {\"value\": " << v << ", \"unit\": \""
          << metrics_[i].second.second << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  }

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// ------------------------------------------------------ trace reading ----

/// Per-stage totals over collected traces, with self time computed by the
/// benchmark (bench_stats.h SelfTimes) and the driver's "bench.*" spans as
/// roots.
class SpanStats {
 public:
  void Add(const activedp::RunTrace& trace) {
    std::vector<SpanNode> nodes;
    nodes.reserve(trace.spans.size());
    for (const auto& s : trace.spans) {
      nodes.push_back({s.seq, s.parent_seq, s.stage, s.ts_us,
                       s.dur_us < 0 ? 0 : s.dur_us});
    }
    const std::vector<int64_t> self = SelfTimes(nodes);
    std::map<int64_t, size_t> index;
    for (size_t i = 0; i < nodes.size(); ++i) index[nodes[i].id] = i;
    for (size_t i = 0; i < nodes.size(); ++i) {
      Stage& stage = stages_[nodes[i].stage];
      ++stage.count;
      stage.total_us += nodes[i].dur_us;
      stage.self_us += self[i];
      // Inclusive time per (stage, ancestor) pair, for stages that run under
      // several callers (metal.fit under label_pick vs label_model.fit).
      for (int64_t p = nodes[i].parent; p >= 0;) {
        const auto it = index.find(p);
        if (it == index.end()) break;
        under_us_[nodes[i].stage + "<" + nodes[it->second].stage] +=
            nodes[i].dur_us;
        p = nodes[it->second].parent;
      }
    }
    for (const auto& s : trace.spans) {
      for (const auto& [key, value] : s.args) {
        args_[s.stage + "." + key] += value;
      }
    }
  }

  int64_t count(const std::string& stage) const {
    const auto it = stages_.find(stage);
    return it == stages_.end() ? 0 : it->second.count;
  }
  double total_ms(const std::string& stage) const {
    const auto it = stages_.find(stage);
    return it == stages_.end() ? 0.0 : it->second.total_us / 1000.0;
  }
  double self_ms(const std::string& stage) const {
    const auto it = stages_.find(stage);
    return it == stages_.end() ? 0.0 : it->second.self_us / 1000.0;
  }
  /// Inclusive ms of `stage` spans that ran anywhere under `ancestor`.
  double under_ms(const std::string& stage, const std::string& ancestor) const {
    const auto it = under_us_.find(stage + "<" + ancestor);
    return it == under_us_.end() ? 0.0 : it->second / 1000.0;
  }
  int64_t arg_sum(const std::string& stage, const std::string& key) const {
    const auto it = args_.find(stage + "." + key);
    return it == args_.end() ? 0 : it->second;
  }

 private:
  struct Stage {
    int64_t count = 0;
    int64_t total_us = 0;
    int64_t self_us = 0;
  };
  std::map<std::string, Stage> stages_;
  std::map<std::string, int64_t> under_us_;
  std::map<std::string, int64_t> args_;
};

/// Sum of a counter family over every label set.
int64_t CounterFamily(const MetricsSnapshot& snap, const std::string& name) {
  int64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

/// The part of an unlabelled histogram observed between two snapshots.
struct HistogramDelta {
  std::vector<double> bounds;
  std::vector<int64_t> counts;
  int64_t count = 0;
  double sum = 0.0;

  double mean() const { return count > 0 ? sum / count : 0.0; }
  double Quantile(double q) const {
    return activedp::HistogramQuantile(bounds, counts, q);
  }
};

HistogramDelta DeltaOf(const MetricsSnapshot& before,
                       const MetricsSnapshot& after, const std::string& name) {
  HistogramDelta d;
  const auto* a = after.FindHistogram(name);
  if (a == nullptr) return d;
  const auto* b = before.FindHistogram(name);
  d.bounds = a->bounds;
  d.counts = a->counts;
  d.count = a->count;
  d.sum = a->sum;
  if (b != nullptr) {
    for (size_t i = 0; i < d.counts.size(); ++i) d.counts[i] -= b->counts[i];
    d.count -= b->count;
    d.sum -= b->sum;
  }
  return d;
}

// ------------------------------------------------------------ set-up ----

/// A generated dataset and its featurized context (the context points into
/// the split, so both live together).
struct Prepared {
  std::unique_ptr<DataSplit> split;
  std::unique_ptr<FrameworkContext> context;
  double generate_s = 0.0;
  double featurize_s = 0.0;
};

Prepared Prepare(const std::string& dataset, double scale, uint64_t seed) {
  Prepared p;
  Clock::time_point t0 = Clock::now();
  {
    TraceSpan span("bench.make_dataset");
    activedp::Result<DataSplit> split =
        activedp::MakeZooDataset(dataset, scale, seed);
    if (!split.ok()) {
      std::fprintf(stderr, "MakeZooDataset(%s): %s\n", dataset.c_str(),
                   split.status().ToString().c_str());
      std::exit(1);
    }
    p.split = std::make_unique<DataSplit>(std::move(*split));
  }
  p.generate_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    TraceSpan span("bench.context_build");
    p.context = std::make_unique<FrameworkContext>(
        FrameworkContext::Build(*p.split));
  }
  p.featurize_s = SecondsSince(t0);
  return p;
}

uint64_t FeatureDigest(const FrameworkContext& context) {
  Fnv fnv;
  for (const auto& row : context.train_features) {
    for (int k = 0; k < row.nnz(); ++k) {
      fnv.Add(row.indices[k]);
      fnv.Add(row.values[k]);
    }
  }
  return fnv.digest();
}

// ---------------------------------------------------- step workloads ----

struct SessionResult {
  std::vector<double> step_ms;
  std::vector<bool> answered;  // the step produced an LF
  int failed_steps = 0;
  int lfs = 0;
  double labels_s = 0.0;
  double end_model_s = 0.0;
  double label_accuracy = 0.0;
  double label_coverage = 0.0;
  double test_accuracy = 0.0;
  bool end_model_ok = false;
  int nonempty_labels = 0;
  uint64_t digest = 0;
};

/// One interactive session: `steps` ActiveDp::Step calls (each one user
/// question), then the training labels (ConFusion) and the end model.
SessionResult RunSession(const Prepared& data, uint64_t seed, int steps) {
  SessionResult r;
  ActiveDpOptions options;
  options.seed = seed;
  ActiveDp pipeline(*data.context, options);
  r.step_ms.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    const size_t lfs = pipeline.lfs().size();
    const size_t recoveries = pipeline.recovery().size();
    const size_t retries = pipeline.retry_log().size();
    const Clock::time_point t0 = Clock::now();
    Status status;
    {
      TraceSpan span("bench.step");
      status = pipeline.Step();
    }
    r.step_ms.push_back(SecondsSince(t0) * 1000.0);
    r.answered.push_back(pipeline.lfs().size() > lfs);
    if (!status.ok() || pipeline.recovery().size() != recoveries ||
        pipeline.retry_log().size() != retries) {
      ++r.failed_steps;
    }
  }
  r.lfs = static_cast<int>(pipeline.lfs().size());

  Clock::time_point t0 = Clock::now();
  std::vector<std::vector<double>> labels;
  {
    TraceSpan span("bench.training_labels");
    labels = pipeline.CurrentTrainingLabels();
  }
  r.labels_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    TraceSpan span("bench.end_model");
    const FrameworkContext& ctx = *data.context;
    activedp::Result<activedp::LogisticRegression> model =
        activedp::TrainEndModel(ctx.train_features, labels, ctx.num_classes,
                                ctx.feature_dim, activedp::EndModelOptions{});
    r.end_model_ok = model.ok();
    if (model.ok()) {
      r.test_accuracy = activedp::EvaluateAccuracy(*model, ctx.test_features,
                                                   ctx.test_labels);
    }
  }
  r.end_model_s = SecondsSince(t0);

  const activedp::LabelQuality quality =
      activedp::MeasureLabelQuality(labels, data.split->train);
  r.label_accuracy = quality.accuracy;
  r.label_coverage = quality.coverage;
  Fnv fnv;
  for (const auto& row : labels) {
    if (!row.empty()) ++r.nonempty_labels;
    fnv.Add(static_cast<int>(row.size()));
    for (double v : row) fnv.Add(v);
  }
  r.digest = fnv.digest();
  return r;
}

/// The repeats of one session seed, reduced to one timing per step: the best
/// of the repeats (BestOf), and likewise for the training labels and the end
/// model. The repeats did identical work (checked through their digests).
struct BestSession {
  std::vector<double> step_ms;
  std::vector<bool> answered;
  double session_s = 0.0;  // all steps + training labels + end model
};

BestSession Best(const std::vector<SessionResult>& repeats) {
  BestSession b;
  std::vector<std::vector<double>> steps;
  double labels_s = repeats.front().labels_s;
  double end_model_s = repeats.front().end_model_s;
  for (const SessionResult& r : repeats) {
    steps.push_back(r.step_ms);
    labels_s = std::min(labels_s, r.labels_s);
    end_model_s = std::min(end_model_s, r.end_model_s);
  }
  b.step_ms = BestOf(steps);
  b.answered = repeats.front().answered;
  for (double ms : b.step_ms) b.session_s += ms / 1000.0;
  b.session_s += labels_s + end_model_s;
  return b;
}

int RunStepWorkload(const Flags& flags, Report& report) {
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Int("trace") != 0;
  const std::string dataset = flags.Str("dataset");
  const double scale = flags.Num("scale");
  const int steps = kSessionSteps;
  const int setup_reps = flags.Int("setup-reps");
  const double floor = flags.Num("label-accuracy-floor");

  // Set-up: generate + featurize, repeated; the median is setup_s and every
  // repetition must featurize bit-identically.
  std::vector<double> setup_s, generate_ms, featurize_ms;
  Prepared data;
  uint64_t feature_digest = 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    data = Prepared{};  // free the previous copy before building the next
    const Clock::time_point t0 = Clock::now();
    data = Prepare(dataset, scale, kDatasetSeed);
    setup_s.push_back(SecondsSince(t0));
    generate_ms.push_back(data.generate_s * 1000.0);
    featurize_ms.push_back(data.featurize_s * 1000.0);
    const uint64_t digest = FeatureDigest(*data.context);
    if (rep == 0) feature_digest = digest;
    report.Check(digest == feature_digest,
                 "set-up repetition featurized differently");
  }

  // A fixed amount of work per run: one session seed per kSecondsPerSeed of
  // --seconds (session seed seed * 1000 + i), each run kRepeats times in
  // rounds over all seeds, so the repeats of a seed lie far apart in time.
  // With tracing, every session is followed by a traced twin; the per-layer
  // numbers come from the traced sessions and the tracing overhead is the
  // gap between the two.
  const int seeds =
      std::max(1, static_cast<int>(std::lround(seconds / kSecondsPerSeed)));
  report.Note(dataset + " scale " + std::to_string(scale) + ": train " +
              std::to_string(data.split->train.size()) + " rows, dim " +
              std::to_string(data.context->feature_dim) + ", " +
              std::to_string(seeds) + " session seeds x " +
              std::to_string(kRepeats) + " repeats of " +
              std::to_string(steps) + " steps");
  std::vector<std::vector<SessionResult>> plain(seeds), traced(seeds);
  SpanStats spans;
  int64_t lr_epochs = 0, metal_fits = 0;
  for (int round = 0; round < kRepeats; ++round) {
    for (int i = 0; i < seeds; ++i) {
      const uint64_t session_seed = seed * 1000 + i;
      plain[i].push_back(RunSession(data, session_seed, steps));
      if (!trace) continue;
      const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
      Tracer::Global().Enable();
      traced[i].push_back(RunSession(data, session_seed, steps));
      spans.Add(Tracer::Global().Collect());
      Tracer::Global().Disable();
      const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
      lr_epochs += after.counter_value("lr.epochs") -
                   before.counter_value("lr.epochs");
      metal_fits += after.counter_value("metal.fits") -
                    before.counter_value("metal.fits");
    }
  }

  // Correctness: no step fails or degrades, every session labels rows well
  // enough, and every session of one seed (repeat or traced twin) did the
  // same work: same training-label digest, same answered steps.
  int64_t attempted = 0, failed = 0;
  for (int i = 0; i < seeds; ++i) {
    std::vector<SessionResult> all = plain[i];
    all.insert(all.end(), traced[i].begin(), traced[i].end());
    for (const SessionResult& s : all) {
      attempted += static_cast<int64_t>(s.step_ms.size());
      failed += s.failed_steps;
      report.Check(s.end_model_ok, "end model failed to train");
      report.Check(s.nonempty_labels > 0, "no training row received a label");
      report.Check(s.label_accuracy > floor,
                   "label accuracy below the floor in spec.json");
      report.Check(s.digest == all.front().digest &&
                       s.answered == all.front().answered,
                   "sessions with the same seed labelled differently");
    }
    report.Note("digest training-labels-" + std::to_string(seed * 1000 + i) +
                " " + Hex(all.front().digest) + " (" +
                std::to_string(all.size()) + " sessions agree)");
  }
  report.Count(attempted, failed);
  report.Check(failed == 0, "a step failed or degraded");

  // Statistics over the best-of-repeats step times of all seeds, pooled.
  std::vector<double> all_ms, answered_ms, late_ms, test_acc, label_acc,
      label_cov;
  double session_s = 0.0;
  std::vector<BestSession> best_traced;
  for (int i = 0; i < seeds; ++i) {
    const BestSession b = Best(plain[i]);
    for (int t = 0; t < steps; ++t) {
      all_ms.push_back(b.step_ms[t]);
      if (b.answered[t]) answered_ms.push_back(b.step_ms[t]);
      if (t >= steps - steps / 4) late_ms.push_back(b.step_ms[t]);
    }
    session_s += b.session_s;
    const SessionResult& s = plain[i].front();
    test_acc.push_back(s.test_accuracy);
    label_acc.push_back(s.label_accuracy);
    label_cov.push_back(s.label_coverage);
    if (trace) best_traced.push_back(Best(traced[i]));
  }
  session_s /= seeds;
  report.Check(!answered_ms.empty(), "no step produced an LF");
  report.Check(TailResolved(static_cast<int64_t>(all_ms.size()), 95.0),
               "too few steps for a p95 with ten samples beyond it");
  const std::string per = "best of " + std::to_string(kRepeats) +
                          " repeats per step, " + std::to_string(seeds) +
                          " seeds pooled";
  report.Line("setup_s", Median(setup_s), "s",
              "median of " + std::to_string(setup_reps) + " set-ups");
  report.Line("peak_rss_mb", PeakRssMb(), "MB");
  report.Line("fail_ratio", static_cast<double>(failed) / attempted, "ratio",
              std::to_string(failed) + "/" + std::to_string(attempted) +
                  " steps failed or degraded");
  report.Line("step_p50_ms", Median(all_ms), "ms",
              std::to_string(all_ms.size()) + " steps, " + per);
  report.Line("step_answered_p50_ms", Median(answered_ms), "ms",
              std::to_string(answered_ms.size()) +
                  " steps that produced an LF, " + per);
  report.Line("step_p95_ms", Quantile(all_ms, 0.95), "ms",
              std::to_string(SamplesBeyond(all_ms.size(), 95.0)) +
                  " beyond, " + per);
  report.Line("step_late_p50_ms", Median(late_ms), "ms",
              std::to_string(late_ms.size()) + " last-quarter steps, " + per);
  report.Line("session_s", session_s, "s", "mean over seeds, " + per);
  report.Line("label_accuracy", Median(label_acc), "ratio",
              "floor " + std::to_string(floor));
  report.Line("label_coverage", Median(label_cov), "ratio");
  report.Line("test_accuracy", Median(test_acc), "ratio");

  if (!trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("p50_ms", Median(answered_ms), "ms");
    report.Metric("tail_ms", Quantile(all_ms, 0.95), "ms");
    report.Metric("loaded_p50_ms", Median(late_ms), "ms");
    report.Metric("throughput_per_s", steps / session_s, "1/s");
    report.Metric("accuracy", Median(test_acc), "ratio");
    return 0;
  }
  const SessionResult& first = plain.front().front();

  // Per-layer numbers from the traced sessions: mean per step (or per
  // session for the once-per-session stages).
  const double traced_sessions = static_cast<double>(seeds) * kRepeats;
  const double traced_steps = traced_sessions * steps;
  report.Layer("active.select_ms",
               spans.total_ms("sampler.select") / traced_steps, "ms");
  report.Layer("lf.apply_ms", spans.total_ms("lf.apply") / traced_steps, "ms");
  report.Layer("lf.oracle_ms",
               spans.total_ms("oracle.create_lf") / traced_steps, "ms");
  report.Layer("ml.al_fit_ms", spans.self_ms("al_model.fit") / traced_steps,
               "ms");
  report.Layer("ml.lr_fit_ms",
               spans.under_ms("lr.fit", "activedp.step") / traced_steps, "ms");
  report.Layer("ml.lr_epochs_per_fit",
               spans.count("lr.fit") > 0
                   ? static_cast<double>(lr_epochs) / spans.count("lr.fit")
                   : 0.0,
               "count");
  report.Layer("core.label_pick.self_ms",
               spans.self_ms("label_pick") / traced_steps, "ms");
  report.Layer("labelmodel.fit_ms",
               spans.total_ms("label_model.fit") / traced_steps, "ms");
  report.Layer("labelmodel.validation_fit_ms",
               spans.under_ms("metal.fit", "label_pick") / traced_steps, "ms");
  report.Layer("labelmodel.predict_ms",
               spans.total_ms("label_model.predict") / traced_steps, "ms");
  report.Layer("labelmodel.fits_per_step", metal_fits / traced_steps, "count");
  report.Layer("core.step.self_ms",
               spans.self_ms("activedp.step") / traced_steps, "ms");
  // The step curve by session quarter, from the best-of-repeats traced step
  // times.
  for (int q = 0; q < 4; ++q) {
    std::vector<double> quarter;
    for (const BestSession& b : best_traced) {
      for (int t = q * steps / 4; t < (q + 1) * steps / 4; ++t) {
        quarter.push_back(b.step_ms[t]);
      }
    }
    report.Layer("core.step.p50_ms.q" + std::to_string(q + 1), Median(quarter),
                 "ms");
  }
  report.Layer("lf.response_ratio", static_cast<double>(first.lfs) / steps,
               "ratio");
  const int64_t offered = spans.arg_sum("label_pick", "num_lfs");
  report.Layer(
      "core.label_pick.kept_ratio",
      offered > 0
          ? static_cast<double>(spans.arg_sum("label_pick", "kept")) / offered
          : 0.0,
      "ratio");
  report.Layer("core.confusion_ms",
               spans.total_ms("confusion") / traced_sessions, "ms");
  report.Layer("core.end_model_ms",
               spans.total_ms("bench.end_model") / traced_sessions, "ms");
  report.Layer("data.generate_ms", Median(generate_ms), "ms");
  report.Layer("ml.featurize_ms", Median(featurize_ms), "ms");
  report.Layer("quality.label_accuracy", first.label_accuracy, "ratio");
  report.Layer("quality.label_coverage", first.label_coverage, "ratio");
  double traced_session_s = 0.0;
  for (const BestSession& b : best_traced) traced_session_s += b.session_s;
  traced_session_s /= seeds;
  const double overhead_s = traced_session_s - session_s;
  report.Layer("trace.overhead_ms", overhead_s * 1000.0, "ms");
  report.Layer("trace.overhead_pct", 100.0 * overhead_s / session_s, "%");
  report.Note("tracing overhead: traced session_s " +
              std::to_string(traced_session_s) + " vs untraced " +
              std::to_string(session_s) + ", both " + per);
  return 0;
}

// --------------------------------------------------- serve workload ----

/// One serving tenant: its data, its exported snapshot, and the expected
/// reply digest of every held-out test row.
struct Tenant {
  std::string id;
  std::string kind;  // "text" | "tabular"
  Prepared data;
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::vector<uint64_t> expected;
  std::vector<int> expected_label;
  std::vector<int> truth;
};

/// Generates, featurizes, runs the spec's ActiveDP steps and exports the
/// snapshot. Returns false when any step or the export fails.
bool TrainTenant(Tenant& tenant, const TenantSpec& spec) {
  tenant.kind = spec.kind;
  tenant.data = Prepare(spec.dataset, spec.scale, kDatasetSeed);
  ActiveDpOptions options;
  options.seed = kDatasetSeed;
  ActiveDp pipeline(*tenant.data.context, options);
  for (int t = 0; t < spec.steps; ++t) {
    TraceSpan span("bench.step");
    if (!pipeline.Step().ok()) return false;
  }
  TraceSpan span("bench.export");
  activedp::Result<ModelSnapshot> snapshot =
      activedp::ExportSnapshot(pipeline, *tenant.data.context);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "ExportSnapshot: %s\n",
                 snapshot.status().ToString().c_str());
    return false;
  }
  tenant.snapshot = std::make_shared<const ModelSnapshot>(std::move(*snapshot));
  return true;
}

/// Offline reference for every test row (ModelSnapshot::Predict), computed
/// off the load path. Returns a digest over all of them.
uint64_t ComputeExpected(Tenant& tenant, Report& report) {
  const activedp::Dataset& test = tenant.data.split->test;
  tenant.expected.assign(test.size(), 0);
  tenant.expected_label.assign(test.size(), activedp::kAbstain);
  tenant.truth.assign(test.size(), 0);
  Fnv fnv;
  for (int i = 0; i < test.size(); ++i) {
    activedp::Result<ServedPrediction> p = tenant.snapshot->Predict(test.example(i));
    report.Check(p.ok(), "offline Predict failed on a test row");
    if (!p.ok()) continue;
    tenant.expected[i] = PredictionDigest(*p);
    tenant.expected_label[i] = p->label;
    tenant.truth[i] = test.example(i).label;
    fnv.Add(tenant.expected[i]);
  }
  return fnv.digest();
}

/// Shared between the generator and the reply callbacks of one phase; the
/// callbacks hold it by shared_ptr so a straggler can never outlive it.
struct PhaseState {
  explicit PhaseState(size_t n)
      : due_ns(n), issued_ns(n), done_ns(n, -1), ok(n, 0), digest(n, 0),
        tenant(n), row(n) {}
  std::vector<int64_t> due_ns, issued_ns, done_ns;
  std::vector<uint8_t> ok;
  std::vector<uint64_t> digest;
  std::vector<int> tenant, row;
  std::atomic<int64_t> completed{0};
  Clock::time_point epoch;

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
  }
};

struct PhaseResult {
  PhaseOutcome outcome;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t mismatches = 0;
  int64_t correct_labels = 0;
  double wall_ms = 0.0;
  /// Fewest requests in one window (each percentile is per window).
  int64_t min_window_samples = 0;
  int windows = 0;
  std::vector<double> window_p50_ms, window_p90_ms, window_p99_ms;
};

/// One open-loop phase of `seconds` over a 50/50 tenant mix of held-out test
/// rows: Poisson arrivals at `rate`; every arrival due by "now" is issued on
/// each wake-up and each latency is timed from its due time.
///
/// Percentiles are the median over equal windows of the phase.
PhaseResult RunPhase(activedp::ShardRouter& router, std::vector<Tenant>& tenants,
                     double rate, double seconds, uint64_t seed,
                     bool span_admission) {
  const size_t n = static_cast<size_t>(std::max(1.0, rate * seconds));
  // As many windows as keep >= 1,200 expected requests in each (a p99 needs
  // 1,000 for ten samples beyond it), at most ten.
  const int windows =
      static_cast<int>(std::clamp<size_t>(n / 1200, 1, 10));
  auto state = std::make_shared<PhaseState>(n);
  Rng rng(seed);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    state->due_ns[i] = static_cast<int64_t>(t * 1e9);
    state->tenant[i] = rng.UniformInt(static_cast<int>(tenants.size()));
    state->row[i] =
        rng.UniformInt(tenants[state->tenant[i]].data.split->test.size());
  }

  state->epoch = Clock::now() + std::chrono::milliseconds(1);
  const auto issue = [&](size_t i) {
    const Tenant& tenant = tenants[state->tenant[i]];
    activedp::ServeRequest request;
    request.tenant_id = tenant.id;
    request.example = tenant.data.split->test.example(state->row[i]);
    state->issued_ns[i] = state->Now();
    auto done = [state, i](activedp::ServeReply reply) {
      state->done_ns[i] = state->Now();
      if (reply.ok()) {
        state->ok[i] = 1;
        state->digest[i] = PredictionDigest(reply.prediction);
      }
      state->completed.fetch_add(1, std::memory_order_release);
    };
    if (span_admission) {
      TraceSpan span("bench.admit");
      router.PredictWithCallback(std::move(request), std::move(done));
    } else {
      router.PredictWithCallback(std::move(request), std::move(done));
    }
  };
  size_t next = 0;
  while (next < n) {
    int64_t now = state->Now();
    while (next < n && state->due_ns[next] <= now) {
      issue(next++);
      now = state->Now();
    }
    if (next >= n) break;
    // Sleep through long gaps only. Waking an idle virtual CPU can take
    // milliseconds, so short gaps are spun through; a yield could also hand
    // the core to a dispatcher for a whole time slice. Either would make
    // the generator, not the program, miss the schedule.
    const int64_t wait_ns = state->due_ns[next] - now;
    if (wait_ns > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns - 100000));
    }
  }
  // Drain: every reply must come back; a stuck one counts as failed.
  const Clock::time_point drain_start = Clock::now();
  while (state->completed.load(std::memory_order_acquire) <
             static_cast<int64_t>(n) &&
         SecondsSince(drain_start) < 20.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Statistics per window of due time, then the median over windows: a
  // scheduling hiccup of the shared machine spoils one window, not the phase.
  PhaseResult r;
  const bool all_back =
      state->completed.load(std::memory_order_acquire) == static_cast<int64_t>(n);
  PhaseOutcome& o = r.outcome;
  o.sent = static_cast<int64_t>(n);
  const double window_ns = std::max(1.0, seconds * 1e9 / windows);
  std::vector<std::vector<double>> late_ms(windows), latency_ms(windows);
  int64_t last_done = 0;
  for (size_t i = 0; i < n; ++i) {
    const int w = std::min(windows - 1,
                           static_cast<int>(state->due_ns[i] / window_ns));
    late_ms[w].push_back((state->issued_ns[i] - state->due_ns[i]) / 1e6);
    const bool back = all_back || state->done_ns[i] >= 0;
    if (back && state->ok[i]) {
      ++o.succeeded;
      latency_ms[w].push_back((state->done_ns[i] - state->due_ns[i]) / 1e6);
      const Tenant& tenant = tenants[state->tenant[i]];
      if (state->digest[i] != tenant.expected[state->row[i]]) ++r.mismatches;
      if (tenant.expected_label[state->row[i]] == tenant.truth[state->row[i]]) {
        ++r.correct_labels;
      }
    } else {
      ++o.failed;
      // A failed or refused request counts as missing the limit.
      latency_ms[w].push_back(std::numeric_limits<double>::infinity());
    }
    if (back) last_done = std::max(last_done, state->done_ns[i]);
  }
  std::vector<double> p50s, p90s, p99s, late_p99s;
  r.min_window_samples = static_cast<int64_t>(n);
  for (int w = 0; w < windows; ++w) {
    r.min_window_samples =
        std::min<int64_t>(r.min_window_samples, latency_ms[w].size());
    p50s.push_back(Median(latency_ms[w]));
    p90s.push_back(Quantile(latency_ms[w], 0.90));
    p99s.push_back(Quantile(latency_ms[w], 0.99));
    late_p99s.push_back(Quantile(late_ms[w], 0.99));
  }
  r.window_p50_ms = p50s;
  r.window_p90_ms = p90s;
  r.window_p99_ms = p99s;
  r.windows = windows;
  r.p50_ms = Median(p50s);
  r.p99_ms = Median(p99s);
  o.latency_p99_ms = r.p99_ms;
  o.generator_late_p99_ms = Median(late_p99s);
  o.drain_ms = all_back ? (last_done - state->due_ns[n - 1]) / 1e6
                        : std::numeric_limits<double>::infinity();
  r.wall_ms = state->due_ns[n - 1] / 1e6;
  return r;
}

std::string PhaseSummary(const std::string& name, double rate,
                         const PhaseResult& r, const PhaseLimits& limits) {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "phase %-6s %8.0f rps: sent %lld ok %lld failed %lld, p50 "
                "%.3f ms p99 %.3f ms, generator late p99 %.3f ms, drain %.3f "
                "ms -> %s",
                name.c_str(), rate, static_cast<long long>(r.outcome.sent),
                static_cast<long long>(r.outcome.succeeded),
                static_cast<long long>(r.outcome.failed), r.p50_ms, r.p99_ms,
                r.outcome.generator_late_p99_ms, r.outcome.drain_ms,
                PhaseMeetsLimit(r.outcome, limits) ? "met" : "not met");
  std::string out = buffer;
  out += "; window p99s";
  for (double v : r.window_p99_ms) out += " " + std::to_string(v).substr(0, 5);
  return out;
}

/// Work done on one batch of test rows; returns the rows it handled.
using BatchWork =
    std::function<size_t(const Tenant&, const std::vector<Example>&)>;

size_t PredictRows(const Tenant& tenant, const std::vector<Example>& batch) {
  return tenant.snapshot->PredictBatch(batch).size();
}

size_t FeaturizeRows(const Tenant& tenant, const std::vector<Example>& batch) {
  size_t rows = 0;
  for (const Example& e : batch) {
    tenant.data.context->featurizer->Transform(e);
    ++rows;
  }
  return rows;
}

/// One batch of held-out test rows of one tenant.
struct RowBatch {
  const Tenant* tenant;
  std::vector<int> rows;
};

/// `batches` batches of `batch_size` rows drawn from `seed`, cycling
/// through `tenants`.
std::vector<RowBatch> DrawBatches(const std::vector<const Tenant*>& tenants,
                                  int batch_size, int batches, uint64_t seed) {
  Rng rng(seed);
  std::vector<RowBatch> out(batches);
  for (int b = 0; b < batches; ++b) {
    out[b].tenant = tenants[b % tenants.size()];
    const int n = out[b].tenant->data.split->test.size();
    for (int i = 0; i < batch_size; ++i) out[b].rows.push_back(rng.UniformInt(n));
  }
  return out;
}

/// Milliseconds of `work` on each batch, timed off the load path. With
/// PredictBatch this is what a dispatcher spends per batch once it is
/// formed, without the queueing and thread wake-ups that make served
/// latency follow the host's scheduling.
std::vector<double> TimeBatchesMs(const std::vector<RowBatch>& batches,
                                  const BatchWork& work) {
  std::vector<double> ms;
  std::vector<Example> batch;
  for (const RowBatch& b : batches) {
    const activedp::Dataset& test = b.tenant->data.split->test;
    batch.clear();
    for (int row : b.rows) batch.push_back(test.example(row));
    const Clock::time_point t0 = Clock::now();
    if (work(*b.tenant, batch) != batch.size()) std::abort();
    ms.push_back(SecondsSince(t0) * 1000.0);
  }
  return ms;
}

/// Pooled windows of several runs of one rate: the median over all their
/// windows of each percentile, and the fewest requests in one window.
struct PooledPhases {
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0;
  int windows = 0;
  int64_t min_window_samples = 0;
};

PooledPhases Pool(const std::vector<PhaseResult>& phases) {
  std::vector<double> p50s, p90s, p99s;
  PooledPhases pooled;
  pooled.min_window_samples = std::numeric_limits<int64_t>::max();
  for (const PhaseResult& r : phases) {
    p50s.insert(p50s.end(), r.window_p50_ms.begin(), r.window_p50_ms.end());
    p90s.insert(p90s.end(), r.window_p90_ms.begin(), r.window_p90_ms.end());
    p99s.insert(p99s.end(), r.window_p99_ms.begin(), r.window_p99_ms.end());
    pooled.min_window_samples =
        std::min(pooled.min_window_samples, r.min_window_samples);
  }
  pooled.p50_ms = Median(p50s);
  pooled.p90_ms = Median(p90s);
  pooled.p99_ms = Median(p99s);
  pooled.windows = static_cast<int>(p50s.size());
  return pooled;
}

int RunServeWorkload(const Flags& flags, Report& report) {
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Int("trace") != 0;
  const int setup_reps = flags.Int("setup-reps");
  const PhaseLimits limits;  // p99 <= 5 ms, generator lateness p99 < 1 ms

  // Set-up: train and export both tenants, repeated; the median is setup_s
  // and every repetition must export snapshots that answer every test row
  // identically. The last one serves.
  std::vector<double> setup_s;
  std::vector<Tenant> tenants;
  std::vector<uint64_t> snapshot_digests;
  for (int rep = 0; rep < setup_reps; ++rep) {
    tenants.clear();  // free the previous set-up before building the next
    tenants.resize(2);
    const Clock::time_point setup_start = Clock::now();
    const bool trained = TrainTenant(tenants[0], kTenantSpecs[0]) &&
                         TrainTenant(tenants[1], kTenantSpecs[1]);
    setup_s.push_back(SecondsSince(setup_start));
    report.Check(trained, "tenant training or export failed");
    if (!trained) {
      report.PrintJson();
      return 1;
    }
    for (size_t k = 0; k < tenants.size(); ++k) {
      const uint64_t digest = ComputeExpected(tenants[k], report);
      if (rep == 0) snapshot_digests.push_back(digest);
      report.Check(digest == snapshot_digests[k],
                   "set-up repetition exported a different snapshot");
    }
  }
  for (size_t k = 0; k < tenants.size(); ++k) {
    report.Note("digest snapshot-" + tenants[k].kind + " " +
                Hex(snapshot_digests[k]) + " (" + std::to_string(setup_reps) +
                " set-ups agree)");
  }

  // Tenant ids that the router places on different shards.
  auto config = activedp::ServeConfigBuilder().Build();
  if (!config.ok()) {
    std::fprintf(stderr, "serve config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  const int shards = config->router.num_shards;
  const int vnodes = config->router.virtual_nodes;
  tenants[0].id = "tenant-text";
  const int text_shard =
      activedp::ShardRouter::ShardForKey(tenants[0].id, shards, vnodes);
  for (int k = 0;; ++k) {
    tenants[1].id = "tenant-tabular-" + std::to_string(k);
    if (activedp::ShardRouter::ShardForKey(tenants[1].id, shards, vnodes) !=
        text_shard) {
      break;
    }
  }
  activedp::ShardRouter router(*config);
  for (const Tenant& t : tenants) {
    report.Check(router.AddTenant(t.id).ok(), "AddTenant failed");
    report.Check(router.SetTenantSnapshot(t.id, t.snapshot).ok(),
                 "SetTenantSnapshot failed");
    report.Note("tenant " + t.id + " (" + t.kind + ", " +
                std::to_string(t.snapshot->state().lfs.size()) + " LFs, dim " +
                std::to_string(t.snapshot->feature_dim()) + ", test rows " +
                std::to_string(t.data.split->test.size()) + ") on shard " +
                std::to_string(router.ShardFor(t.id)));
  }
  // The program's footprint: set-up plus the loaded router, before the
  // benchmark's own per-request bookkeeping grows with the probed rates.
  const double peak_rss_mb = PeakRssMb();

  int64_t attempted = 0, failed = 0, mismatches = 0;
  uint64_t phase_seed = seed * 1000003ULL;
  auto run = [&](const std::string& name, double rate, double phase_s,
                 bool spans) {
    PhaseResult r = RunPhase(router, tenants, rate, phase_s, ++phase_seed,
                             spans);
    attempted += r.outcome.sent;
    failed += r.outcome.failed;
    mismatches += r.mismatches;
    report.Note(PhaseSummary(name, rate, r, limits));
    return r;
  };
  // One of the three low-rate segments.
  const double low_s = std::max(0.2, kLowShare * seconds / 3);
  const double high_s = std::max(0.2, kHighShare * seconds);

  if (!trace) {
    // Full batches for the service-time passes, one pass after every phase.
    const int full_batch = config->service.max_batch_size;
    const std::vector<RowBatch> service_batches = DrawBatches(
        {&tenants[0], &tenants[1]}, full_batch, kServiceBatches, seed);
    std::vector<std::vector<double>> service_passes;
    const auto phase = [&](const std::string& name, double rate,
                           double phase_s) {
      PhaseResult r = run(name, rate, phase_s, false);
      service_passes.push_back(TimeBatchesMs(service_batches, PredictRows));
      return r;
    };
    // The low rate at the start, the middle and the end of the run.
    std::vector<PhaseResult> lows;
    lows.push_back(phase("low", kLowRps, low_s));
    const PhaseResult high = phase("high", kHighRps, high_s);
    lows.push_back(phase("low", kLowRps, low_s));
    // Bisect above the highest fixed rate that was met (below the low rate,
    // down to the floor, when neither was; the floor itself is not probed).
    // Probes above capacity are expected to fail, so only the fixed rates
    // count toward attempted/failed.
    const double probe_s = std::max(
        0.2, (1.0 - kLowShare - kHighShare) * seconds / kBisectProbes);
    const bool high_met = PhaseMeetsLimit(high.outcome, limits);
    const bool low_met = PhaseMeetsLimit(lows[0].outcome, limits) &&
                         PhaseMeetsLimit(lows[1].outcome, limits);
    const double max_rps = BisectMaxRate(
        high_met ? kHighRps : (low_met ? kLowRps : kMinRpsFloor),
        high_met ? kMaxRpsCap : (low_met ? kHighRps : kLowRps),
        kBisectResolution, kBisectProbes, [&](double rate) {
          return PhaseMeetsLimit(phase("probe", rate, probe_s).outcome, limits);
        });
    lows.push_back(phase("low", kLowRps, low_s));

    int64_t fixed_sent = high.outcome.sent, fixed_failed = high.outcome.failed;
    int64_t served = high.outcome.succeeded, correct = high.correct_labels;
    for (const PhaseResult& r : lows) {
      fixed_sent += r.outcome.sent;
      fixed_failed += r.outcome.failed;
      served += r.outcome.succeeded;
      correct += r.correct_labels;
    }
    report.Count(fixed_sent, fixed_failed);
    report.Check(fixed_failed == 0,
                 std::to_string(fixed_failed) +
                     " requests failed or were refused at the fixed rates");
    report.Check(mismatches == 0,
                 std::to_string(mismatches) +
                     " served replies differ from ModelSnapshot::Predict");
    const double accuracy =
        served > 0 ? static_cast<double>(correct) / served : 0.0;
    const PooledPhases low = Pool(lows);
    const PooledPhases high_pooled = Pool({high});
    report.Check(TailResolved(low.min_window_samples, 99.0) &&
                     TailResolved(high_pooled.min_window_samples, 99.0),
                 "too few requests for a p99 with ten samples beyond it");

    const std::vector<double> service_ms = BestOf(service_passes);
    const double service_p50 = Median(service_ms);
    const double service_p90 = Quantile(service_ms, 0.90);
    // Rows per second at the median service time (a mean would follow the
    // few batches whose every pass met a slow spell).
    const double compute_rps = full_batch * 1000.0 / service_p50;

    report.Line("setup_s", Median(setup_s), "s",
                "median of " + std::to_string(setup_reps) + " set-ups");
    report.Line("peak_rss_mb", peak_rss_mb, "MB", "through set-up");
    report.Line("fail_ratio", static_cast<double>(fixed_failed) / fixed_sent,
                "ratio", "fixed-rate phases");
    const auto n_note = [](const PooledPhases& p) {
      return "median of " + std::to_string(p.windows) + " windows, >= " +
             std::to_string(p.min_window_samples) + " requests and " +
             std::to_string(SamplesBeyond(p.min_window_samples, 99.0)) +
             " beyond p99 each";
    };
    report.Line("serve_p50_ms.low", low.p50_ms, "ms", n_note(low));
    report.Line("serve_p90_ms.low", low.p90_ms, "ms", n_note(low));
    report.Line("serve_p99_ms.low", low.p99_ms, "ms", n_note(low));
    report.Line("serve_p50_ms.high", high_pooled.p50_ms, "ms",
                n_note(high_pooled));
    report.Line("serve_p99_ms.high", high_pooled.p99_ms, "ms",
                n_note(high_pooled));
    report.Line("serve_max_rps", max_rps, "1/s",
                "open-loop bisection, p99 <= " +
                    std::to_string(limits.latency_limit_ms) + " ms");
    report.Line("served_accuracy", accuracy, "ratio");
    const std::string service_note =
        std::to_string(service_ms.size()) + " batches of " +
        std::to_string(full_batch) + " rows, best of " +
        std::to_string(service_passes.size()) + " passes each";
    report.Line("serve_batch_service_p50_ms", service_p50, "ms", service_note);
    report.Line("serve_batch_service_p90_ms", service_p90, "ms",
                std::to_string(SamplesBeyond(service_ms.size(), 90.0)) +
                    " beyond, " + service_note);
    report.Line("serve_compute_rows_per_s", compute_rps, "1/s", service_note);
    report.Note("served == snapshot: " + std::to_string(mismatches) +
                " mismatches over " + std::to_string(attempted) +
                " requests");
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", peak_rss_mb, "MB");
    report.Metric("p50_ms", low.p50_ms, "ms");
    report.Metric("tail_ms", service_p90, "ms");
    report.Metric("loaded_p50_ms", service_p50, "ms");
    report.Metric("throughput_per_s", compute_rps, "1/s");
    report.Metric("accuracy", accuracy, "ratio");
    return 0;
  }

  // Traced run: an untraced low phase for the overhead baseline, then low and
  // high with the tracer on and the driver's admission spans.
  const PhaseResult plain_low = run("low", kLowRps, low_s, false);
  MetricsSnapshot m0 = MetricsRegistry::Global().Snapshot();
  Tracer::Global().Enable();
  const PhaseResult low = run("low", kLowRps, low_s, true);
  MetricsSnapshot m1 = MetricsRegistry::Global().Snapshot();
  const PhaseResult high = run("high", kHighRps, high_s, true);
  SpanStats spans;
  spans.Add(Tracer::Global().Collect());
  Tracer::Global().Disable();
  const MetricsSnapshot m2 = MetricsRegistry::Global().Snapshot();
  report.Count(attempted, failed);
  report.Check(failed == 0, std::to_string(failed) +
                                " requests failed or were refused at the "
                                "fixed rates");
  report.Check(mismatches == 0,
               std::to_string(mismatches) +
                   " served replies differ from ModelSnapshot::Predict");

  const HistogramDelta size_low = DeltaOf(m0, m1, "serve.batch_size");
  const HistogramDelta size_high = DeltaOf(m1, m2, "serve.batch_size");
  const HistogramDelta batch_low = DeltaOf(m0, m1, "serve.batch_latency_ms");
  const HistogramDelta batch_high = DeltaOf(m1, m2, "serve.batch_latency_ms");
  const int64_t admits = spans.count("bench.admit");
  report.Layer("serve.admit_us",
               admits > 0 ? spans.total_ms("bench.admit") * 1000.0 / admits
                          : 0.0,
               "us");
  report.Layer("serve.batch_size.mean.low", size_low.mean(), "count");
  report.Layer("serve.batch_size.mean.high", size_high.mean(), "count");
  // Derived, not measured per request: client latency minus batch compute.
  report.Layer("serve.queue_wait_ms.p50.low",
               low.p50_ms - batch_low.Quantile(0.5), "ms");
  report.Layer("serve.queue_wait_ms.p50.high",
               high.p50_ms - batch_high.Quantile(0.5), "ms");
  report.Layer("serve.batch_ms.p99.high", batch_high.Quantile(0.99), "ms");
  // PredictBatch and the featurizer at the mean high-rate batch size, off
  // the load path: median of 201 batches per tenant.
  const int mean_batch =
      std::max(1, static_cast<int>(std::lround(size_high.mean())));
  const auto median_ms = [&](const Tenant& tenant, const BatchWork& work) {
    return Median(
        TimeBatchesMs(DrawBatches({&tenant}, mean_batch, 201, seed), work));
  };
  const double text_predict_ms = median_ms(tenants[0], PredictRows);
  const double tabular_predict_ms = median_ms(tenants[1], PredictRows);
  report.Layer("serve.featurize_ms",
               (median_ms(tenants[0], FeaturizeRows) +
                median_ms(tenants[1], FeaturizeRows)) /
                   2.0,
               "ms");
  report.Layer("serve.predict_batch_ms",
               (text_predict_ms + tabular_predict_ms) / 2.0, "ms");
  report.Layer("serve.snapshot.predict_us_per_row.text",
               text_predict_ms * 1000.0 / mean_batch, "us");
  report.Layer("serve.snapshot.predict_us_per_row.tabular",
               tabular_predict_ms * 1000.0 / mean_batch, "us");
  report.Layer("serve.dispatcher_busy_ratio",
               batch_high.sum / (high.wall_ms * shards), "ratio");
  report.Layer("serve.shed",
               static_cast<double>(m2.counter_value("serve.shed") -
                                   m0.counter_value("serve.shed")),
               "count");
  report.Layer("serve.rejected",
               static_cast<double>(m2.counter_value("serve.rejected") -
                                   m0.counter_value("serve.rejected")),
               "count");
  report.Layer("serve.router.shed",
               static_cast<double>(CounterFamily(m2, "serve.router.shed") -
                                   CounterFamily(m0, "serve.router.shed")),
               "count");
  report.Layer("serve.generator_late_ms.p99",
               std::max(low.outcome.generator_late_p99_ms,
                        high.outcome.generator_late_p99_ms),
               "ms");
  report.Layer("data.generate_ms",
               (tenants[0].data.generate_s + tenants[1].data.generate_s) *
                   1000.0,
               "ms");
  report.Layer("ml.featurize_ms",
               (tenants[0].data.featurize_s + tenants[1].data.featurize_s) *
                   1000.0,
               "ms");
  report.Layer("trace.overhead_ms", low.p50_ms - plain_low.p50_ms, "ms");
  report.Layer("trace.overhead_pct",
               100.0 * (low.p50_ms - plain_low.p50_ms) / plain_low.p50_ms,
               "%");
  report.Note("tracing overhead: traced serve_p50_ms.low " +
              std::to_string(low.p50_ms) + " vs untraced " +
              std::to_string(plain_low.p50_ms) +
              "; queue_wait is derived (latency - batch compute)");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Flags flags(argc, argv);
  perfbench::Report report;
  // serve-mix is the one serving workload; the others are step workloads
  // and take their differing parameters as flags.
  const int rc = flags.Str("workload") == "serve-mix"
                     ? perfbench::RunServeWorkload(flags, report)
                     : perfbench::RunStepWorkload(flags, report);
  if (rc != 0) return rc;
  report.PrintJson();
  return report.correct() ? 0 : 1;
}
