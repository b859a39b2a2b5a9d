#ifndef ACTIVEDP_OBS_SLO_H_
#define ACTIVEDP_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.h"

namespace activedp {

/// SLO burn-rate engine: the judging half of the OpsPlane (DESIGN.md §14).
///
/// The serving and learning loops emit counters, histograms and gauges that
/// nothing judged against a target. SloEngine holds declarative SloSpecs
/// and evaluates them over *deltas* of periodic MetricsSnapshot samples —
/// never over live instruments — so an evaluation is a pure function of the
/// sampled sequence and two evaluations at the same sample history agree
/// exactly.
///
/// Breach semantics follow multi-window burn rates: with objective p (the
/// target good fraction), the burn rate of a window is
///
///   burn = bad_fraction / (1 - p)
///
/// i.e. burn 1.0 consumes the error budget exactly at the sustainable
/// rate. A burn-rate SLO is breached only when BOTH the short window and
/// the long window burn above `burn_threshold` — the short window makes
/// the alert fast, the long window keeps a transient blip from paging.
/// Windows with no traffic (zero delta) burn 0 and stay met: no evidence
/// is not a breach. Staleness/freshness SLOs are instantaneous instead:
/// the latest sampled age gauge must sit under its bound.
enum class SloKind {
  /// Fraction of requests not rejected/expired, from counter deltas.
  kAvailability,
  /// Fraction of observations at or under `latency_bound_ms`, from
  /// histogram bucket deltas (interpolated CDF; overflow-bucket
  /// observations count as over-bound).
  kLatencyQuantile,
  /// The serving snapshot's age gauge stays under `max_age_seconds`.
  kSnapshotStaleness,
  /// The last successful retrain's age gauge stays under `max_age_seconds`.
  kRetrainFreshness,
};

std::string_view SloKindToString(SloKind kind);

struct SloSpec {
  std::string name;
  SloKind kind = SloKind::kAvailability;
  /// Target good fraction for burn-rate kinds (e.g. 0.999).
  double objective = 0.999;

  // kAvailability: good = total - sum(bad).
  std::string total_counter;
  std::vector<std::string> bad_counters;

  // kLatencyQuantile: the histogram series and the bound a request must
  // complete under for the objective fraction of traffic.
  std::string histogram;
  MetricLabels histogram_labels;
  double latency_bound_ms = 0.0;

  // kSnapshotStaleness / kRetrainFreshness: gauge holding an age in
  // seconds (whoever publishes/retrains maintains it).
  std::string age_gauge;
  double max_age_seconds = 0.0;

  // Burn-rate windows (ignored by the instantaneous kinds).
  double short_window_seconds = 5.0;
  double long_window_seconds = 60.0;
  double burn_threshold = 1.0;
};

struct SloResult {
  std::string name;
  SloKind kind = SloKind::kAvailability;
  bool met = true;
  double burn_short = 0.0;
  double burn_long = 0.0;
  /// Long-window bad fraction (burn kinds) or the sampled age in seconds
  /// (instantaneous kinds).
  double value = 0.0;
  std::string detail;
};

struct SloStatus {
  int64_t now_us = 0;
  int64_t samples = 0;
  std::vector<SloResult> results;

  bool all_met() const;
  std::string ToJson() const;
};

/// Interpolated CDF over histogram buckets: the fraction of observations
/// at or below `x`, linear within the bucket containing `x` (first bucket
/// lower edge min(0, bounds[0])). Observations in the overflow bucket
/// count as above any finite x. Empty histograms return 1.0 (no evidence
/// of lateness). Shared with tests; the quantile inverse lives in
/// util/metrics.h (HistogramQuantile).
double HistogramCdf(const std::vector<double>& bounds,
                    const std::vector<int64_t>& counts, double x);

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloSpec> specs,
                     MetricsRegistry* registry = &MetricsRegistry::Global());

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Takes one timestamped sample of the registry. Samples older than the
  /// longest window (plus one baseline sample) are pruned.
  void Tick();
  /// Deterministic variant for tests: caller supplies the clock and the
  /// snapshot, so an evaluation is reproducible bit-for-bit.
  void TickWithSnapshot(int64_t now_us, MetricsSnapshot snapshot);

  /// Evaluates every spec at the latest sample. With fewer than two
  /// samples all burn-rate SLOs report met (no deltas yet).
  SloStatus Evaluate() const;

  /// Evaluate() rendered as JSON.
  std::string StatusJson() const;

  const std::vector<SloSpec>& specs() const { return specs_; }

 private:
  struct Sample {
    int64_t ts_us = 0;
    MetricsSnapshot snapshot;
  };

  void AppendSampleLocked(int64_t now_us, MetricsSnapshot snapshot);
  SloResult EvaluateSpecLocked(const SloSpec& spec) const;
  /// Newest sample with ts_us <= now - window (or the oldest sample when
  /// history is shorter than the window). nullptr with < 2 samples.
  const Sample* BaselineLocked(double window_seconds) const;

  const std::vector<SloSpec> specs_;
  MetricsRegistry* const registry_;
  const int64_t max_window_us_;

  mutable std::mutex mutex_;
  std::deque<Sample> samples_;
};

/// The default serving SLOs: availability 99% (bad = rejected + expired),
/// p99 batch latency under 50ms, snapshot staleness under 10 minutes,
/// retrain freshness under 1 hour. The age gauges
/// ("serve.snapshot_age_seconds", "retrain.last_success_age_seconds") are
/// maintained by whoever loads snapshots / publishes retrains.
std::vector<SloSpec> DefaultServingSlos();

}  // namespace activedp

#endif  // ACTIVEDP_OBS_SLO_H_
