#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.h"
#include "util/string_util.h"

namespace activedp {
namespace {

/// Error budget, floored so a 100% objective cannot divide by zero.
double ErrorBudget(double objective) {
  return std::max(1e-9, 1.0 - objective);
}

}  // namespace

std::string_view SloKindToString(SloKind kind) {
  switch (kind) {
    case SloKind::kAvailability:
      return "availability";
    case SloKind::kLatencyQuantile:
      return "latency_quantile";
    case SloKind::kSnapshotStaleness:
      return "snapshot_staleness";
    case SloKind::kRetrainFreshness:
      return "retrain_freshness";
  }
  return "unknown";
}

double HistogramCdf(const std::vector<double>& bounds,
                    const std::vector<int64_t>& counts, double x) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total <= 0) return 1.0;
  double at_or_below = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] <= 0) continue;
    if (b >= bounds.size()) {
      // Overflow bucket: no upper edge, so none of it is provably <= x.
      continue;
    }
    const double upper = bounds[b];
    const double lower = b == 0 ? std::min(0.0, bounds[0]) : bounds[b - 1];
    if (x >= upper) {
      at_or_below += static_cast<double>(counts[b]);
    } else if (x > lower) {
      at_or_below += static_cast<double>(counts[b]) * (x - lower) /
                     (upper - lower);
    }
  }
  return at_or_below / static_cast<double>(total);
}

bool SloStatus::all_met() const {
  for (const SloResult& result : results) {
    if (!result.met) return false;
  }
  return true;
}

std::string SloStatus::ToJson() const {
  std::ostringstream out;
  out << "{\"now_us\": " << now_us << ", \"samples\": " << samples
      << ", \"all_met\": " << (all_met() ? "true" : "false")
      << ", \"slos\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const SloResult& r = results[i];
    if (i > 0) out << ", ";
    out << "{\"name\": \"" << JsonEscape(r.name) << "\", \"kind\": \""
        << SloKindToString(r.kind) << "\", \"met\": "
        << (r.met ? "true" : "false") << ", \"burn_short\": " << r.burn_short
        << ", \"burn_long\": " << r.burn_long << ", \"value\": " << r.value
        << ", \"detail\": \"" << JsonEscape(r.detail) << "\"}";
  }
  out << "]}\n";
  return out.str();
}

SloEngine::SloEngine(std::vector<SloSpec> specs, MetricsRegistry* registry)
    : specs_(std::move(specs)),
      registry_(registry),
      max_window_us_([this] {
        double longest = 1.0;
        for (const SloSpec& spec : specs_) {
          longest = std::max(longest, spec.long_window_seconds);
          longest = std::max(longest, spec.short_window_seconds);
        }
        return static_cast<int64_t>(longest * 1e6);
      }()) {}

void SloEngine::Tick() {
  const int64_t now = ObsNowMicros();
  MetricsSnapshot snapshot = registry_->Snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  AppendSampleLocked(now, std::move(snapshot));
}

void SloEngine::TickWithSnapshot(int64_t now_us, MetricsSnapshot snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  AppendSampleLocked(now_us, std::move(snapshot));
}

void SloEngine::AppendSampleLocked(int64_t now_us, MetricsSnapshot snapshot) {
  if (!samples_.empty() && now_us < samples_.back().ts_us) {
    return;  // never let a stale clock reorder the sample sequence
  }
  samples_.push_back(Sample{now_us, std::move(snapshot)});
  // Keep one sample older than the longest window as the delta baseline.
  while (samples_.size() > 2 &&
         samples_[1].ts_us <= now_us - max_window_us_) {
    samples_.pop_front();
  }
}

const SloEngine::Sample* SloEngine::BaselineLocked(
    double window_seconds) const {
  if (samples_.size() < 2) return nullptr;
  const int64_t cutoff = samples_.back().ts_us -
                         static_cast<int64_t>(window_seconds * 1e6);
  const Sample* baseline = &samples_.front();
  for (const Sample& sample : samples_) {
    if (sample.ts_us > cutoff) break;
    baseline = &sample;
  }
  // The newest sample itself can never be the baseline of its own window.
  if (baseline == &samples_.back()) baseline = &samples_[samples_.size() - 2];
  return baseline;
}

SloResult SloEngine::EvaluateSpecLocked(const SloSpec& spec) const {
  SloResult result;
  result.name = spec.name;
  result.kind = spec.kind;

  if (spec.kind == SloKind::kSnapshotStaleness ||
      spec.kind == SloKind::kRetrainFreshness) {
    if (samples_.empty()) {
      result.detail = "no samples";
      return result;
    }
    const MetricsSnapshot& latest = samples_.back().snapshot;
    double age = 0.0;
    for (const MetricsSnapshot::GaugeSample& gauge : latest.gauges) {
      if (gauge.name == spec.age_gauge && gauge.labels.empty()) {
        age = gauge.value;
        break;
      }
    }
    result.value = age;
    result.met = age <= spec.max_age_seconds;
    result.detail = spec.age_gauge + "=" + FormatDouble(age, 3) +
                    "s (max " + FormatDouble(spec.max_age_seconds, 3) + "s)";
    return result;
  }

  const auto bad_fraction = [&](const Sample& base,
                                const Sample& latest) -> double {
    if (spec.kind == SloKind::kAvailability) {
      const int64_t total =
          latest.snapshot.counter_value(spec.total_counter) -
          base.snapshot.counter_value(spec.total_counter);
      if (total <= 0) return 0.0;
      int64_t bad = 0;
      for (const std::string& counter : spec.bad_counters) {
        bad += latest.snapshot.counter_value(counter) -
               base.snapshot.counter_value(counter);
      }
      bad = std::max<int64_t>(0, std::min<int64_t>(bad, total));
      return static_cast<double>(bad) / static_cast<double>(total);
    }
    // kLatencyQuantile: delta bucket counts between the two samples.
    const MetricsSnapshot::HistogramSample* now =
        latest.snapshot.FindHistogram(spec.histogram, spec.histogram_labels);
    if (now == nullptr) return 0.0;
    const MetricsSnapshot::HistogramSample* then =
        base.snapshot.FindHistogram(spec.histogram, spec.histogram_labels);
    std::vector<int64_t> delta = now->counts;
    if (then != nullptr && then->counts.size() == delta.size()) {
      for (size_t b = 0; b < delta.size(); ++b) {
        delta[b] = std::max<int64_t>(0, delta[b] - then->counts[b]);
      }
    }
    return 1.0 - HistogramCdf(now->bounds, delta, spec.latency_bound_ms);
  };

  const Sample* short_base = BaselineLocked(spec.short_window_seconds);
  const Sample* long_base = BaselineLocked(spec.long_window_seconds);
  if (short_base == nullptr || long_base == nullptr) {
    result.detail = "insufficient samples for burn windows";
    return result;
  }
  const Sample& latest = samples_.back();
  const double budget = ErrorBudget(spec.objective);
  result.burn_short = bad_fraction(*short_base, latest) / budget;
  result.burn_long = bad_fraction(*long_base, latest) / budget;
  result.value = result.burn_long * budget;
  result.met = !(result.burn_short > spec.burn_threshold &&
                 result.burn_long > spec.burn_threshold);
  result.detail = "burn short=" + FormatDouble(result.burn_short, 3) +
                  " long=" + FormatDouble(result.burn_long, 3) +
                  " (threshold " + FormatDouble(spec.burn_threshold, 3) + ")";
  return result;
}

SloStatus SloEngine::Evaluate() const {
  SloStatus status;
  std::lock_guard<std::mutex> lock(mutex_);
  status.now_us = samples_.empty() ? 0 : samples_.back().ts_us;
  status.samples = static_cast<int64_t>(samples_.size());
  status.results.reserve(specs_.size());
  for (const SloSpec& spec : specs_) {
    status.results.push_back(EvaluateSpecLocked(spec));
  }
  return status;
}

std::string SloEngine::StatusJson() const { return Evaluate().ToJson(); }

std::vector<SloSpec> DefaultServingSlos() {
  std::vector<SloSpec> specs;
  {
    SloSpec spec;
    spec.name = "serve-availability";
    spec.kind = SloKind::kAvailability;
    spec.objective = 0.99;
    spec.total_counter = "serve.requests";
    spec.bad_counters = {"serve.rejected", "serve.expired"};
    specs.push_back(std::move(spec));
  }
  {
    SloSpec spec;
    spec.name = "serve-batch-p99";
    spec.kind = SloKind::kLatencyQuantile;
    spec.objective = 0.99;
    spec.histogram = "serve.batch_latency_ms";
    spec.latency_bound_ms = 50.0;
    specs.push_back(std::move(spec));
  }
  {
    SloSpec spec;
    spec.name = "snapshot-staleness";
    spec.kind = SloKind::kSnapshotStaleness;
    spec.age_gauge = "serve.snapshot_age_seconds";
    spec.max_age_seconds = 600.0;
    specs.push_back(std::move(spec));
  }
  {
    SloSpec spec;
    spec.name = "retrain-freshness";
    spec.kind = SloKind::kRetrainFreshness;
    spec.age_gauge = "retrain.last_success_age_seconds";
    spec.max_age_seconds = 3600.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace activedp
