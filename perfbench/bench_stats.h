#ifndef ACTIVEDP_PERFBENCH_BENCH_STATS_H_
#define ACTIVEDP_PERFBENCH_BENCH_STATS_H_

// The benchmark's own arithmetic, kept free of library dependencies so
// bench_stats_test.cc can check it in isolation: percentiles and the
// "at least ten samples beyond" rule, the best of repeated timings, self
// time from a span tree, the open-loop phase verdict, and the rate
// bisection.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) by linear interpolation between closest ranks
/// (the "type 7" rule). 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Exact ranks return the sample itself, so an infinite sample (a failed
  // request) never turns a neighbouring rank into NaN.
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Per-position minimum over repeats of the same work: element i is the
/// fastest of the repeats' i-th timings. Repeats spread over a run rarely all
/// meet one of the shared machine's slow spells, so this keeps the cost of
/// the work and drops most of the spells. Positions past the shortest repeat
/// are dropped; no repeats give an empty result.
inline std::vector<double> BestOf(const std::vector<std::vector<double>>& repeats) {
  if (repeats.empty()) return {};
  size_t n = repeats.front().size();
  for (const auto& r : repeats) n = std::min(n, r.size());
  std::vector<double> best(repeats.front().begin(), repeats.front().begin() + n);
  for (const auto& r : repeats) {
    for (size_t i = 0; i < n; ++i) best[i] = std::min(best[i], r[i]);
  }
  return best;
}

/// Samples strictly above the p-th percentile (p in percent) of n samples:
/// n minus the ceil(n * p / 100) samples at or below it.
inline int64_t SamplesBeyond(int64_t n, double p) {
  const double at_or_below = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  return n - static_cast<int64_t>(at_or_below);
}

/// A tail percentile is reportable only when at least ten samples lie
/// beyond it.
inline bool TailResolved(int64_t n, double p) { return SamplesBeyond(n, p) >= 10; }

/// Length of the part of [lo, hi) covered by the union of `intervals`
/// (each [start, end)); overlapping intervals count once.
inline int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                             int64_t lo, int64_t hi) {
  for (auto& [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    const int64_t from = std::max(s, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

/// One closed span of a trace tree; `parent` is the id of the enclosing
/// span, or -1 for a root.
struct SpanNode {
  int64_t id = 0;
  int64_t parent = -1;
  std::string stage;
  int64_t start_us = 0;
  int64_t dur_us = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (grandchildren are already inside their
/// parent, and overlapping children count once). Indexed like `spans`.
inline std::vector<int64_t> SelfTimes(const std::vector<SpanNode>& spans) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanNode& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    children[it->second].push_back({s.start_us, s.start_us + s.dur_us});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_us;
    const int64_t hi = lo + spans[i].dur_us;
    self[i] = spans[i].dur_us - CoveredLength(children[i], lo, hi);
  }
  return self;
}

/// Outcome of one fixed-rate open-loop phase.
struct PhaseOutcome {
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;  // failed or refused
  /// Client latency percentile against the limit (ms, timed from due time).
  double latency_p99_ms = 0.0;
  /// How late the generator issued requests (issue time - due time), p99.
  double generator_late_p99_ms = 0.0;
  /// Time from the last due arrival until the last reply came back: a
  /// growing backlog shows up as a drain longer than the latency limit.
  double drain_ms = 0.0;
};

struct PhaseLimits {
  double latency_limit_ms = 5.0;
  double max_generator_late_ms = 1.0;
};

/// The generator kept up: it issued (almost) every request on time, so the
/// phase measured the program rather than the load generator.
inline bool GeneratorKeptUp(const PhaseOutcome& o, const PhaseLimits& l) {
  return o.generator_late_p99_ms < l.max_generator_late_ms;
}

/// No backlog was left when the schedule ended.
inline bool NoBacklog(const PhaseOutcome& o, const PhaseLimits& l) {
  return o.drain_ms <= l.latency_limit_ms;
}

/// A rate is met when every request succeeded, the latency percentile is
/// within the limit, no backlog remained, and the generator kept up.
inline bool PhaseMeetsLimit(const PhaseOutcome& o, const PhaseLimits& l) {
  return o.sent > 0 && o.failed == 0 && o.succeeded == o.sent &&
         o.latency_p99_ms <= l.latency_limit_ms && NoBacklog(o, l) &&
         GeneratorKeptUp(o, l);
}

/// Highest rate in [lo, hi] that `meets` accepts, by geometric bisection
/// until hi / lo <= 1 + resolution or `max_probes` probes ran. `lo` is
/// assumed met and `hi` is probed first (returned if met). Returns the
/// highest met rate seen; `probes` (optional) receives every probed rate.
inline double BisectMaxRate(double lo, double hi, double resolution,
                            int max_probes,
                            const std::function<bool(double)>& meets,
                            std::vector<double>* probes = nullptr) {
  int used = 0;
  auto probe = [&](double rate) {
    ++used;
    if (probes != nullptr) probes->push_back(rate);
    return meets(rate);
  };
  if (probe(hi)) return hi;
  while (hi / lo > 1.0 + resolution && used < max_probes) {
    const double mid = std::sqrt(lo * hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench

#endif  // ACTIVEDP_PERFBENCH_BENCH_STATS_H_
