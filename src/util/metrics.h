#ifndef ACTIVEDP_UTIL_METRICS_H_
#define ACTIVEDP_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace activedp {

/// Process-wide metrics for the pipeline (the quantitative sibling of
/// util/trace.h's timeline). Three instrument kinds:
///
///   Counter    monotonically increasing int64 (solver sweeps, retries)
///   Gauge      last-written double (pool width, dataset size)
///   Histogram  fixed upper-bound buckets over doubles (backoff ms,
///              per-fit iteration counts)
///
/// All instruments are lock-free on the write path (relaxed atomics), so
/// parallel seeds and serving threads may increment them concurrently; the
/// *final* value of anything derived from deterministic quantities
/// (iteration counts, retry attempts) is itself deterministic regardless of
/// thread count.
/// Registration is mutex-guarded and instruments are never erased, so a
/// returned reference stays valid for the registry's lifetime.
///
/// Labels (DESIGN.md §14): every instrument may carry a small set of
/// key=value labels ("site", "snapshot", "kind", "phase"), giving one
/// *family* (base name) several independent series. Labels are strictly
/// low-cardinality: a family is capped at kMaxLabelSetsPerFamily distinct
/// label sets, and further sets fold into a single {overflow="true"}
/// series instead of growing the registry without bound — label values
/// must come from small closed sets (site names, fault kinds, phase
/// names), never from per-request data.

/// Sorted (key, value) pairs identifying one series within a family.
/// Callers may pass them unsorted; the registry canonicalizes.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Distinct label sets a family admits before folding into the
/// {overflow="true"} series (the unlabelled series does not count).
inline constexpr int kMaxLabelSetsPerFamily = 64;

class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram quantile by linear interpolation inside the bucket that
/// contains the target rank, shared by Histogram::Quantile and the SLO
/// engine's delta-histogram evaluation. `counts` has bounds.size() + 1
/// entries (the last is the overflow bucket).
///
/// Error bounds (documented contract): the result is exact whenever the
/// target rank falls on a bucket boundary; inside a bucket the error is at
/// most the bucket's width (upper − lower bound), because the true
/// observations could sit anywhere in it. The first bucket interpolates
/// from lower edge min(0, bounds[0]); a rank landing in the overflow
/// bucket returns bounds.back() — an underestimate, which is why bucket
/// layouts must put their last bound above any latency they need to
/// resolve. Returns 0 when the histogram is empty.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<int64_t>& counts, double q);

/// Histogram over fixed, sorted upper bounds: bucket i counts observations
/// v <= bounds[i] (first matching bucket); one implicit overflow bucket
/// catches everything above the last bound. Bounds are fixed at
/// registration, so two runs bucket identically.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  /// bounds().size() + 1 buckets; the last is the overflow bucket.
  int num_buckets() const { return static_cast<int>(bounds_.size()) + 1; }
  const std::vector<double>& bounds() const { return bounds_; }
  int64_t bucket_count(int bucket) const {
    return counts_[bucket].load(std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of observations. Concurrent observers may reassociate the floating
  /// additions; use counts for anything that must be bitwise deterministic.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// The q-quantile (q in [0, 1]) of the recorded distribution, from one
  /// coherent pass over the bucket counts (see HistogramQuantile for the
  /// interpolation rule and its error bounds). This is the *single source*
  /// for any percentile a report derives from this histogram, so a JSON
  /// summary and the exported bucket counts can never disagree.
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> counts_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// A coherent point-in-time copy of every instrument, taken under the
/// registry mutex with one atomic read per value. Within a histogram
/// sample, `count` is defined as the sum of the copied bucket counts, so
/// the buckets and the total can never disagree even while workers are
/// observing concurrently (the raw count_ atomic may briefly trail the
/// buckets mid-Observe). Exports (JSON, Prometheus text, incident dumps)
/// all render from a snapshot, never from live instruments.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    MetricLabels labels;
    int64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    MetricLabels labels;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    MetricLabels labels;
    std::vector<double> bounds;
    std::vector<int64_t> counts;  // bounds.size() + 1, overflow last
    int64_t count = 0;            // == sum of `counts`, by construction
    double sum = 0.0;

    double Quantile(double q) const {
      return HistogramQuantile(bounds, counts, q);
    }
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Deterministic JSON: series sorted by (name, labels); labelled series
  /// keyed "name{k=\"v\",...}", unlabelled ones by their plain name.
  std::string ToJson() const;

  /// Prometheus text exposition format (version 0.0.4): one family per
  /// # TYPE block, names sanitized to [a-zA-Z0-9_:] with an "activedp_"
  /// prefix, counters suffixed "_total", histograms expanded into
  /// cumulative "_bucket{le=...}" series plus "_sum" / "_count".
  std::string ToPrometheusText() const;

  /// Convenience readers over the snapshot (0 / nullptr when absent).
  int64_t counter_value(std::string_view name,
                        const MetricLabels& labels = {}) const;
  const HistogramSample* FindHistogram(
      std::string_view name, const MetricLabels& labels = {}) const;
};

/// Named instrument registry. `Global()` is the process-wide instance the
/// pipeline stages report into; local instances serve tests. Lookups are
/// mutex-guarded; cache the returned reference on hot paths.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is consulted only on first registration (must be sorted
  /// ascending); later calls with the same name return the existing
  /// histogram unchanged.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& upper_bounds);

  /// Labelled series within the family `name`. Labels are canonicalized
  /// (sorted by key); a family past kMaxLabelSetsPerFamily distinct sets
  /// returns its {overflow="true"} series instead of registering more.
  Counter& counter(std::string_view name, const MetricLabels& labels);
  Gauge& gauge(std::string_view name, const MetricLabels& labels);
  Histogram& histogram(std::string_view name, const MetricLabels& labels,
                       const std::vector<double>& upper_bounds);

  /// Zeroes every instrument's value; registrations (and references into the
  /// registry) survive. Call between runs that must not see each other.
  void ResetAll();

  /// Coherent copy of every instrument (see MetricsSnapshot).
  MetricsSnapshot Snapshot() const;

  /// Deterministic JSON snapshot: instruments sorted by name within
  /// "counters" / "gauges" / "histograms" objects. Rendered from
  /// Snapshot(), so a concurrent export is internally consistent.
  std::string ToJson() const;

  /// Prometheus text exposition of Snapshot() (MetricsSnapshot docs).
  std::string ToPrometheusText() const;

  /// Convenience snapshot readers (0 / empty when the name is unknown).
  int64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

 private:
  template <typename T>
  struct Series {
    std::string name;    // family (base) name
    MetricLabels labels;  // canonical (sorted by key); empty = unlabelled
    std::unique_ptr<T> instrument;
  };

  template <typename T>
  using SeriesMap = std::map<std::string, Series<T>, std::less<>>;

  /// Looks up / registers the series for (name, labels) in `series`,
  /// folding past-cap label sets into the family's overflow series.
  /// Caller holds mutex_. `make` builds a new instrument.
  template <typename T, typename MakeFn>
  T& SeriesFor(SeriesMap<T>& series, std::string_view name,
               const MetricLabels& labels, MakeFn make);

  mutable std::mutex mutex_;
  SeriesMap<Counter> counters_;
  SeriesMap<Gauge> gauges_;
  SeriesMap<Histogram> histograms_;
  /// Distinct labelled series per family name, across all three kinds —
  /// the low-cardinality enforcement state.
  std::map<std::string, int, std::less<>> family_cardinality_;
};

}  // namespace activedp

#endif  // ACTIVEDP_UTIL_METRICS_H_
