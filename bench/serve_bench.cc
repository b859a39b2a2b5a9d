// Serving benchmark for the ServeDP stack: trains a small pipeline, exports
// a ModelSnapshot, and drives a PredictionService under closed-loop load
// (a fixed set of clients issuing back-to-back requests) and open-loop load
// (requests arriving at a target rate regardless of completions). Writes
// throughput, p50/p95/p99 latency and the observed micro-batch-size
// histogram to a JSON report (BENCH_serving.json).
//
// Determinism is asserted unconditionally: every
// served prediction is digested (FNV-1a over raw double bit patterns) and
// compared against the offline ConFusion aggregation, sweeping batch sizes,
// plus a hot-swap-under-load pass where each response must bitwise match
// one of the two published snapshots.
// Any mismatch fails the run with exit code 1.
//
//   ./build/bench/serve_bench --requests=2000 --clients=8 --rate=4000
//       --out=BENCH_serving.json
//
// --tenants=N switches to the TenantMesh storm (DESIGN.md §15): an open-loop
// multi-tenant storm against a ShardRouter with Zipf tenant popularity,
// mixed burst sizes, one deterministically-overloaded tenant, and a
// mid-storm per-tenant promote + forced rollback; per-tenant latency
// percentiles and the digest/isolation gate verdicts land in
// BENCH_serving_mt.json (see RunMultiTenantStorm below):
//
//   ./build/bench/serve_bench --tenants=6 --shards=3 --requests=600
//       --rate=2500 --out=BENCH_serving_mt.json
//
// Both modes are registered as ctests with LABELS serve at small smoke
// sizes (serve_bench and serve_mt_storm).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "serve/chaos_scenario.h"
#include "serve/model_snapshot.h"
#include "serve/prediction_service.h"
#include "serve/rollout.h"
#include "serve/serve_config.h"
#include "serve/serve_types.h"
#include "serve/shard_router.h"
#include "serve/snapshot_export.h"
#include "serve/snapshot_registry.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace activedp {
namespace {

class BitHasher {
 public:
  void Add(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    AddBits(bits);
  }
  void Add(int value) { AddBits(static_cast<uint64_t>(value)); }
  void Add(const ServedPrediction& prediction) {
    Add(prediction.label);
    Add(static_cast<int>(prediction.source));
    for (double p : prediction.proba) Add(p);
  }
  uint64_t digest() const { return hash_; }

 private:
  void AddBits(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string HexDigest(uint64_t digest) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

/// Latency percentiles over one load phase (all values in milliseconds).
/// p50/p95/p99 come from Histogram::Quantile over the labelled
/// serve.client_latency_ms{phase=...} series — the same buckets the JSON
/// and Prometheus exports publish, so the summary and the exported
/// histogram can never disagree (see HistogramQuantile in util/metrics.h
/// for the interpolation rule and its bucket-width error bounds). mean and
/// max are exact over the raw samples.
struct LatencyStats {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

/// Bucket bounds for the per-request client latency histograms. Finer than
/// the service's batch-latency buckets because quantiles interpolate within
/// a bucket: the quantile error is at most the containing bucket's width.
const std::vector<double>& ClientLatencyBounds() {
  static const std::vector<double> bounds = {
      0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 3, 5, 8, 12, 20, 50, 100, 250};
  return bounds;
}

Histogram& PhaseLatencyHistogram(const std::string& phase) {
  return MetricsRegistry::Global().histogram(
      "serve.client_latency_ms", {{"phase", phase}}, ClientLatencyBounds());
}

LatencyStats Summarize(const Histogram& histogram,
                       const std::vector<double>& latencies_ms) {
  LatencyStats stats;
  if (latencies_ms.empty()) return stats;
  stats.p50 = histogram.Quantile(0.50);
  stats.p95 = histogram.Quantile(0.95);
  stats.p99 = histogram.Quantile(0.99);
  double sum = 0.0;
  for (double v : latencies_ms) {
    sum += v;
    stats.max = std::max(stats.max, v);
  }
  stats.mean = sum / latencies_ms.size();
  return stats;
}

struct LoadResult {
  int requests = 0;
  int failures = 0;
  double seconds = 0.0;
  double throughput_rps = 0.0;
  LatencyStats latency;
};

/// Closed loop: `clients` threads, each issuing its share of `requests`
/// back-to-back (a new request only after the previous response). Measures
/// the service's sustainable throughput.
LoadResult RunClosedLoop(PredictionService& service, const Dataset& train,
                         int requests, int clients, SloEngine* slo) {
  LoadResult result;
  result.requests = requests;
  Histogram& histogram = PhaseLatencyHistogram("closed");
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<int> failures{0};
  Timer wall;
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      const int share = requests / clients + (c < requests % clients ? 1 : 0);
      latencies[c].reserve(share);
      for (int k = 0; k < share; ++k) {
        const int row = (c + k * clients) % train.size();
        Timer timer;
        const ServeReply served =
            service.Predict({.example = train.example(row)});
        const double elapsed_ms = timer.ElapsedMillis();
        histogram.Observe(elapsed_ms);
        latencies[c].push_back(elapsed_ms);
        if (!served.ok()) failures.fetch_add(1);
        if (slo != nullptr) slo->MaybeTick(0.25);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  result.seconds = wall.ElapsedSeconds();
  result.failures = failures.load();
  std::vector<double> all;
  all.reserve(requests);
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.throughput_rps =
      result.seconds > 0.0 ? requests / result.seconds : 0.0;
  result.latency = Summarize(histogram, all);
  return result;
}

/// Open loop: one issuing thread schedules arrivals at `rate` per second
/// (independent of completions — queueing delay shows up in the latency
/// tail) while a collector drains the futures in FIFO order, which is also
/// their completion order under the single dispatcher.
LoadResult RunOpenLoop(PredictionService& service, const Dataset& train,
                       int requests, double rate, SloEngine* slo) {
  using Clock = std::chrono::steady_clock;
  LoadResult result;
  result.requests = requests;
  std::vector<std::future<ServeReply>> futures(requests);
  std::vector<Clock::time_point> sent(requests);
  std::vector<double> latencies(requests, 0.0);
  std::atomic<int> issued{0};
  std::atomic<int> failures{0};

  Timer wall;
  const Clock::time_point start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));

  Histogram& histogram = PhaseLatencyHistogram("open");
  std::thread collector([&] {
    for (int i = 0; i < requests; ++i) {
      while (issued.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      const ServeReply served = futures[i].get();
      latencies[i] = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              sent[i])
                         .count();
      histogram.Observe(latencies[i]);
      if (!served.ok()) failures.fetch_add(1);
    }
  });
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(start + i * interval);
    sent[i] = Clock::now();
    futures[i] =
        service.PredictAsync({.example = train.example(i % train.size())});
    issued.store(i + 1, std::memory_order_release);
    if (slo != nullptr) slo->MaybeTick(0.25);
  }
  collector.join();
  result.seconds = wall.ElapsedSeconds();
  result.failures = failures.load();
  result.throughput_rps =
      result.seconds > 0.0 ? requests / result.seconds : 0.0;
  result.latency = Summarize(histogram, latencies);
  return result;
}

/// Served digest over the first `n` training rows at one batch size.
uint64_t ServedDigest(const std::shared_ptr<const ModelSnapshot>& snapshot,
                      const Dataset& train, int n, int batch_size) {
  PredictionServiceOptions options;
  options.max_batch_size = batch_size;
  options.max_queue_depth = n + 1;
  PredictionService service(options);
  service.LoadSnapshot(snapshot);
  std::vector<std::future<ServeReply>> futures;
  futures.reserve(n);
  for (int i = 0; i < n; ++i) {
    futures.push_back(service.PredictAsync({.example = train.example(i)}));
  }
  BitHasher hasher;
  for (int i = 0; i < n; ++i) {
    const ServeReply served = futures[i].get();
    if (!served.ok()) {
      LOG(Error) << "serve failed at row " << i << ": "
                 << served.status.ToString();
      return 0;
    }
    hasher.Add(served.prediction);
  }
  return hasher.digest();
}

/// Hot-swap gate: clients hammer the service while snapshots A and B are
/// swapped repeatedly; every response must bitwise match A's or B's offline
/// prediction for that row. Returns the number of mismatches.
int RunHotSwapGate(const std::shared_ptr<const ModelSnapshot>& a,
                   const std::shared_ptr<const ModelSnapshot>& b,
                   const Dataset& train, int requests, int clients,
                   int swaps) {
  PredictionServiceOptions options;
  options.max_batch_size = 8;
  PredictionService service(options);
  service.LoadSnapshot(a);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(clients);
  const int per_client = requests / clients;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (int k = 0; k < per_client; ++k) {
        const int row = (c * per_client + k) % train.size();
        const ServeReply served =
            service.Predict({.example = train.example(row)});
        if (!served.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const ServedPrediction& got = served.prediction;
        const Result<ServedPrediction> via_a = a->Predict(train.example(row));
        const Result<ServedPrediction> via_b = b->Predict(train.example(row));
        const bool matches_a = via_a.ok() && got.proba == via_a->proba &&
                               got.label == via_a->label;
        const bool matches_b = via_b.ok() && got.proba == via_b->proba &&
                               got.label == via_b->label;
        if (!matches_a && !matches_b) mismatches.fetch_add(1);
      }
    });
  }
  for (int swap = 0; swap < swaps; ++swap) {
    service.LoadSnapshot(swap % 2 == 0 ? b : a);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : workers) t.join();
  return mismatches.load();
}

void AppendLatency(std::ofstream& out, const LatencyStats& stats) {
  out << "{\"p50_ms\": " << stats.p50 << ", \"p95_ms\": " << stats.p95
      << ", \"p99_ms\": " << stats.p99 << ", \"mean_ms\": " << stats.mean
      << ", \"max_ms\": " << stats.max << "}";
}

void AppendHistogram(std::ofstream& out, const Histogram& histogram) {
  out << "[";
  for (int bucket = 0; bucket < histogram.num_buckets(); ++bucket) {
    if (bucket > 0) out << ", ";
    out << "{\"le\": ";
    if (bucket < static_cast<int>(histogram.bounds().size())) {
      out << histogram.bounds()[bucket];
    } else {
      out << "\"inf\"";
    }
    out << ", \"count\": " << histogram.bucket_count(bucket) << "}";
  }
  out << "]";
}

void AppendLoad(std::ofstream& out, const LoadResult& load) {
  out << "\"requests\": " << load.requests
      << ", \"failures\": " << load.failures
      << ", \"seconds\": " << load.seconds
      << ", \"throughput_rps\": " << load.throughput_rps
      << ", \"latency\": ";
  AppendLatency(out, load.latency);
}

void WriteJson(const std::string& path, const ModelSnapshot& snapshot,
               const Dataset& train, bool deterministic, int configs_checked,
               int hot_swap_requests, int hot_swap_mismatches,
               const LoadResult& closed, int clients, const LoadResult& open,
               double rate, const ServiceHealth& health, int incidents,
               bool slos_met) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  out << "  \"benchmark\": \"serving\",\n";
  out << "  \"dataset\": \"" << snapshot.state().dataset << "\",\n";
  out << "  \"train_examples\": " << train.size() << ",\n";
  out << "  \"snapshot\": {\"classes\": " << snapshot.num_classes()
      << ", \"dim\": " << snapshot.feature_dim()
      << ", \"lfs\": " << snapshot.state().lfs.size()
      << ", \"threshold\": " << snapshot.threshold()
      << ", \"has_end_model\": " << (snapshot.has_end_model() ? "true" : "false")
      << "},\n";
  out << "  \"determinism\": {\"passed\": "
      << (deterministic ? "true" : "false")
      << ", \"configs_checked\": " << configs_checked
      << ", \"hot_swap_requests\": " << hot_swap_requests
      << ", \"hot_swap_mismatches\": " << hot_swap_mismatches << "},\n";
  out << "  \"closed_loop\": {\"clients\": " << clients << ", ";
  AppendLoad(out, closed);
  out << "},\n";
  out << "  \"open_loop\": {\"target_rps\": " << rate << ", ";
  AppendLoad(out, open);
  out << "},\n";
  // The micro-batch-size and batch-latency distributions the dispatcher
  // actually observed during the two load phases (registry is reset before
  // them). Bounds mirror the service's own registration in
  // prediction_service.cc; the registry keeps the first-registered bounds
  // for an existing name, so these are documentation as much as defaults.
  const Histogram& sizes = MetricsRegistry::Global().histogram(
      "serve.batch_size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128});
  out << "  \"batch_size_histogram\": ";
  AppendHistogram(out, sizes);
  out << ",\n";
  const Histogram& latencies = MetricsRegistry::Global().histogram(
      "serve.batch_latency_ms",
      {0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1, 2, 5, 10, 25, 50, 100});
  out << "  \"batch_latency_ms_histogram\": ";
  AppendHistogram(out, latencies);
  out << ",\n";
  out << "  \"batches\": "
      << MetricsRegistry::Global().counter_value("serve.batches") << ",\n";
  out << "  \"served_requests\": "
      << MetricsRegistry::Global().counter_value("serve.requests") << ",\n";
  // Health probe captured at the end of the load phases, just before
  // Shutdown — what a monitoring scrape of the service would have seen.
  out << "  \"health\": {\"ok\": " << (health.ok ? "true" : "false")
      << ", \"shutdown\": " << (health.shutdown ? "true" : "false")
      << ", \"has_snapshot\": " << (health.has_snapshot ? "true" : "false")
      << ", \"queue_depth\": " << health.queue_depth
      << ", \"estimated_queue_delay_ms\": " << health.estimated_queue_delay_ms
      << ", \"breaker_trips\": " << health.breaker_trips << "},\n";
  // Flight-recorder dumps produced during the load phases (a clean run must
  // report zero) and the SLO verdict from the exported burn-rate status.
  out << "  \"incidents\": " << incidents << ",\n";
  out << "  \"slos_met\": " << (slos_met ? "true" : "false") << "\n";
  out << "}\n";
}

// ---------------------------------------------------------------------------
// Multi-tenant storm (--tenants=N): an open-loop storm against a ShardRouter
// (DESIGN.md §15) with Zipf tenant popularity and mixed burst sizes. Gates,
// all hard failures:
//   * per-tenant served == offline bitwise (PredictionDigest per row);
//   * per-tenant response digests identical across client thread counts —
//     routing and replies are a pure function of the schedule;
//   * isolation: one tenant driven into overload sheds every one of its own
//     storm requests with a structured RejectInfo (and a priority=1 probe
//     still gets through), while every other tenant completes with zero
//     failures and zero sheds;
//   * a mid-storm per-tenant staged rollout: one tenant promotes, another is
//     forced into rollback via the "rollout.canary" fault site — both
//     instants land in the RunTrace tagged with their tenant, the rollback
//     fires exactly one flight-recorder incident, and no other tenant's
//     snapshot moves.
// Per-tenant p50/p95/p99 and the gate verdicts land in BENCH_serving_mt.json.

struct StormSlot {
  int tenant = 0;
  int row = 0;
};

/// Deterministic open-loop schedule: Zipf(1.1) tenant popularity, burst
/// sizes 1..8, rows assigned per tenant by that tenant's own counter, so a
/// tenant's row sequence never depends on the other tenants' draws.
std::vector<StormSlot> BuildStormSchedule(int tenants, int requests,
                                          int trace_rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(tenants);
  for (int t = 0; t < tenants; ++t) {
    weights[t] = 1.0 / std::pow(t + 1.0, 1.1);
  }
  std::vector<int> next_row(tenants, 0);
  std::vector<StormSlot> slots;
  slots.reserve(requests);
  while (static_cast<int>(slots.size()) < requests) {
    const int tenant = rng.Discrete(weights);
    const int burst = rng.UniformInt(1, 8);
    for (int b = 0; b < burst && static_cast<int>(slots.size()) < requests;
         ++b) {
      slots.push_back({tenant, next_row[tenant]++ % trace_rows});
    }
  }
  return slots;
}

struct StormTenant {
  std::string id;
  /// Offline digests of the snapshot this tenant should currently serve.
  const std::vector<uint64_t>* expected = nullptr;
  bool noisy = false;
};

struct TenantOutcome {
  int64_t issued = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  /// Hard errors, i.e. anything that is neither a completion nor a
  /// structured shed. Must stay 0 for every tenant.
  int64_t failures = 0;
  int64_t digest_mismatches = 0;
  /// Sheds whose RejectInfo was missing or malformed (no reason, hint < 1ms).
  int64_t malformed_rejects = 0;
  /// FNV-1a over (row, PredictionDigest) of completed requests, folded in
  /// schedule order — identical across client thread counts by contract.
  uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<double> latencies_ms;
};

void FoldDigest(uint64_t& hash, uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
}

/// Issues schedule slots [begin, end) open-loop at `rate` across
/// `client_threads` issuing threads (thread c takes slots where
/// i % client_threads == c, paced on the global index, so the aggregate
/// arrival process is thread-count-independent) and folds the replies into
/// per-tenant outcomes in schedule order.
std::vector<TenantOutcome> RunStormSlots(ShardRouter& router,
                                         const std::vector<StormSlot>& slots,
                                         size_t begin, size_t end,
                                         const std::vector<Example>& trace,
                                         const std::vector<StormTenant>& tenants,
                                         int client_threads, double rate) {
  using Clock = std::chrono::steady_clock;
  const size_t n = end - begin;
  std::vector<std::optional<ServeReply>> replies(n);
  std::vector<double> latencies(n, 0.0);
  std::atomic<size_t> completed{0};
  const Clock::time_point start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  std::vector<std::thread> issuers;
  issuers.reserve(client_threads);
  for (int c = 0; c < client_threads; ++c) {
    issuers.emplace_back([&, c] {
      for (size_t i = c; i < n; i += client_threads) {
        std::this_thread::sleep_until(start + i * interval);
        const StormSlot& slot = slots[begin + i];
        ServeRequest request;
        request.tenant_id = tenants[slot.tenant].id;
        request.example = trace[slot.row];
        Timer timer;
        router.PredictWithCallback(
            std::move(request),
            [&replies, &latencies, &completed, i, timer](ServeReply reply) {
              latencies[i] = timer.ElapsedMillis();
              replies[i] = std::move(reply);
              completed.fetch_add(1, std::memory_order_release);
            });
      }
    });
  }
  for (std::thread& t : issuers) t.join();
  while (completed.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<TenantOutcome> outcomes(tenants.size());
  for (size_t i = 0; i < n; ++i) {
    const StormSlot& slot = slots[begin + i];
    const StormTenant& tenant = tenants[slot.tenant];
    TenantOutcome& outcome = outcomes[slot.tenant];
    ++outcome.issued;
    CHECK(replies[i].has_value());
    const ServeReply& reply = *replies[i];
    if (reply.ok()) {
      ++outcome.completed;
      outcome.latencies_ms.push_back(latencies[i]);
      const uint64_t digest = PredictionDigest(reply.prediction);
      if (digest != (*tenant.expected)[slot.row]) ++outcome.digest_mismatches;
      FoldDigest(outcome.digest, static_cast<uint64_t>(slot.row));
      FoldDigest(outcome.digest, digest);
    } else if (reply.reject.has_value()) {
      ++outcome.shed;
      const RejectInfo& info = *reply.reject;
      if (info.reason == RejectReason::kNone || info.retry_after_ms < 1.0 ||
          info.queue_depth < 0) {
        ++outcome.malformed_rejects;
      }
    } else {
      ++outcome.failures;
    }
  }
  return outcomes;
}

int RunMultiTenantStorm(FlagParser& flags) {
  const int num_tenants = flags.GetInt("tenants");
  const int num_shards = flags.GetInt("shards");
  const int requests = flags.GetInt("requests");
  const double rate = flags.GetDouble("rate");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const std::string trace_dir = flags.GetString("trace-dir");
  if (num_tenants < 5) {
    std::fprintf(stderr, "--tenants must be >= 5 (noisy + promote + rollback "
                         "+ at least two bystanders)\n");
    return 2;
  }
  std::vector<int> storm_threads;
  for (const std::string& part : Split(flags.GetString("storm-threads"), ',')) {
    if (!part.empty()) storm_threads.push_back(std::stoi(part));
  }
  CHECK(!storm_threads.empty());

  // Fixture: two snapshots (A early, B later) saved to disk for the tenant
  // registries, plus the offline per-row digests both gates compare against.
  const int kTraceRows = 64;
  Result<ServeChaosFixture> built = BuildServeChaosFixture(
      trace_dir + "/serve-mt-fixture", "youtube", flags.GetDouble("scale"),
      seed, /*steps_a=*/12, /*steps_b=*/6, kTraceRows);
  if (!built.ok()) {
    std::fprintf(stderr, "fixture: %s\n", built.status().ToString().c_str());
    return 2;
  }
  const ServeChaosFixture& fixture = *built;

  // Cast: tenant 1 (second-most popular under Zipf) is the noisy one; 2
  // promotes A -> B mid-storm; 3 is forced into a canary rollback; everyone
  // else alternates A/B and must never be perturbed.
  const int kNoisy = 1, kPromote = 2, kRollback = 3;
  std::vector<StormTenant> cast(num_tenants);
  for (int t = 0; t < num_tenants; ++t) {
    cast[t].id = "tenant-" + std::to_string(t);
    cast[t].noisy = (t == kNoisy);
    const bool serves_b =
        (t % 2 == 1) && t != kNoisy && t != kPromote && t != kRollback;
    cast[t].expected = serves_b ? &fixture.digests_b : &fixture.digests_a;
  }
  const std::vector<StormSlot> slots =
      BuildStormSchedule(num_tenants, requests, kTraceRows, seed + 101);
  const size_t half = slots.size() / 2;

  bool passed = true;
  const auto fail = [&passed](const std::string& why) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    passed = false;
  };

  TenantLimits default_limits;
  default_limits.deadline_budget_ms = 5000.0;
  TenantLimits noisy_limits = default_limits;
  // Below the router's EWMA sample floor: once the warm-up seeds the
  // tenant's EWMA, every priority-0 request from it sheds deterministically
  // (estimate = (in_flight + 1) x EWMA > limit always) — which is what keeps
  // the thread-independence digest gate exact under overload.
  noisy_limits.max_queue_delay_ms = 0.0001;

  const auto build_router = [&]() -> std::unique_ptr<ShardRouter> {
    Result<ServeConfig> config = ServeConfigBuilder()
                                     .set_num_shards(num_shards)
                                     .set_virtual_nodes(64)
                                     .set_max_batch_size(8)
                                     .set_max_queue_depth(requests + 1)
                                     .set_default_tenant_limits(default_limits)
                                     .Build();
    CHECK(config.ok()) << config.status().ToString();
    auto router = std::make_unique<ShardRouter>(*std::move(config));
    for (int t = 0; t < num_tenants; ++t) {
      const Status added = cast[t].noisy
                               ? router->AddTenant(cast[t].id, noisy_limits)
                               : router->AddTenant(cast[t].id);
      CHECK(added.ok()) << added.ToString();
      const auto snapshot = cast[t].expected == &fixture.digests_b
                                ? fixture.snapshot_b
                                : fixture.snapshot_a;
      CHECK(router->SetTenantSnapshot(cast[t].id, snapshot).ok());
    }
    // Warm the noisy tenant's EWMA (priority=1 bypasses its shedder) so its
    // overload behaviour is deterministic from the first storm slot on.
    for (int k = 0; k < 4; ++k) {
      ServeRequest warm;
      warm.tenant_id = cast[kNoisy].id;
      warm.example = fixture.trace[k];
      warm.priority = 1;
      const ServeReply reply = router->Predict(std::move(warm));
      CHECK(reply.ok()) << reply.status.ToString();
    }
    return router;
  };

  // Checks shared by every storm pass: bitwise-correct completions, zero
  // hard failures, structured sheds confined to the noisy tenant (which
  // sheds *all* of its storm traffic).
  const auto check_outcomes = [&](const std::vector<TenantOutcome>& outcomes,
                                  const std::string& pass) {
    for (int t = 0; t < num_tenants; ++t) {
      const TenantOutcome& outcome = outcomes[t];
      if (outcome.failures > 0) {
        fail(pass + ": " + cast[t].id + " had " +
             std::to_string(outcome.failures) + " hard failures");
      }
      if (outcome.digest_mismatches > 0) {
        fail(pass + ": " + cast[t].id + " served " +
             std::to_string(outcome.digest_mismatches) +
             " responses diverging from its offline digests");
      }
      if (outcome.malformed_rejects > 0) {
        fail(pass + ": " + cast[t].id + " got " +
             std::to_string(outcome.malformed_rejects) +
             " rejections without a structured RejectInfo");
      }
      if (cast[t].noisy) {
        if (outcome.issued > 0 && outcome.shed != outcome.issued) {
          fail(pass + ": noisy tenant shed " + std::to_string(outcome.shed) +
               " of " + std::to_string(outcome.issued) + " storm requests "
               "(expected all: its EWMA shedder is warm)");
        }
      } else if (outcome.shed > 0) {
        fail(pass + ": " + cast[t].id + " lost " +
             std::to_string(outcome.shed) +
             " requests to another tenant's overload");
      }
    }
  };

  // -- Gate 1: routing / reply determinism across client thread counts -----
  std::vector<uint64_t> reference_digests;
  for (size_t run = 0; run < storm_threads.size(); ++run) {
    const int threads = storm_threads[run];
    std::unique_ptr<ShardRouter> router = build_router();
    const std::vector<TenantOutcome> outcomes = RunStormSlots(
        *router, slots, 0, slots.size(), fixture.trace, cast, threads, rate);
    router->Shutdown();
    check_outcomes(outcomes, "sweep threads=" + std::to_string(threads));
    std::vector<uint64_t> digests(num_tenants);
    for (int t = 0; t < num_tenants; ++t) digests[t] = outcomes[t].digest;
    if (run == 0) {
      reference_digests = digests;
    } else if (digests != reference_digests) {
      fail("per-tenant digests differ between storm client thread counts " +
           std::to_string(storm_threads[0]) + " and " +
           std::to_string(threads));
    }
    LOG(Info) << "storm sweep threads=" << threads << ": "
              << slots.size() << " slots, digests "
              << (run == 0 || digests == reference_digests ? "stable"
                                                           : "DIVERGED");
  }
  const bool thread_independent = passed;

  // -- Gate 2: the measured storm with mid-storm per-tenant rollouts -------
  MetricsRegistry::Global().ResetAll();
  std::string incident_root = flags.GetString("incident-dir");
  if (incident_root.empty()) incident_root = trace_dir + "/incidents-serve-mt";
  std::filesystem::remove_all(incident_root);
  FlightRecorderOptions recorder_options;
  recorder_options.incident_dir = incident_root;
  FlightRecorder::Global().Enable(recorder_options);
  Tracer::Global().Enable();

  // Per-tenant registries for the two rollout tenants, seeded A(active) ->
  // B(candidate) from the fixture's on-disk snapshots.
  const auto open_registry = [&](const std::string& tag) {
    const std::string manifest = fixture.dir + "/mt-" + tag + ".manifest";
    std::remove(manifest.c_str());
    return SnapshotRegistry::Open(manifest);
  };
  Result<SnapshotRegistry> promote_registry = open_registry("promote");
  Result<SnapshotRegistry> rollback_registry = open_registry("rollback");
  CHECK(promote_registry.ok() && rollback_registry.ok());
  const auto seed_registry = [&](SnapshotRegistry& registry) {
    const int64_t id_a =
        *registry.Register(fixture.snapshot_a_path, -1, "baseline");
    CHECK(registry.Activate(id_a).ok());
    return *registry.Register(fixture.snapshot_b_path, id_a, "candidate");
  };
  const int64_t promote_candidate = seed_registry(*promote_registry);
  const int64_t rollback_candidate = seed_registry(*rollback_registry);

  std::unique_ptr<ShardRouter> router = build_router();
  CHECK(router->AttachTenantRegistry(cast[kPromote].id, &*promote_registry)
            .ok());
  CHECK(router->AttachTenantRegistry(cast[kRollback].id, &*rollback_registry)
            .ok());

  const int storm_clients = storm_threads.back();
  const std::vector<TenantOutcome> first_half = RunStormSlots(
      *router, slots, 0, half, fixture.trace, cast, storm_clients, rate);
  check_outcomes(first_half, "storm first half");

  // Overload bypass probe: a priority request from the shedding tenant must
  // still get through, bitwise correct.
  {
    ServeRequest probe;
    probe.tenant_id = cast[kNoisy].id;
    probe.example = fixture.trace[0];
    probe.priority = 1;
    const ServeReply reply = router->Predict(std::move(probe));
    if (!reply.ok() ||
        PredictionDigest(reply.prediction) != (*cast[kNoisy].expected)[0]) {
      fail("priority=1 probe from the overloaded tenant did not serve "
           "bitwise-correctly");
    }
  }

  RolloutOptions rollout_options;
  rollout_options.window = 48;
  rollout_options.canary_fraction = 0.25;
  rollout_options.min_canary_samples = 4;
  rollout_options.seed = 13;
  rollout_options.client_threads = 2;

  const Result<RolloutReport> promoted = RunTenantStagedRollout(
      *router, cast[kPromote].id, promote_candidate, fixture.trace,
      rollout_options);
  if (!promoted.ok() || promoted->decision != RolloutDecision::kPromote) {
    fail("mid-storm promote for " + cast[kPromote].id + " did not promote: " +
         (promoted.ok() ? promoted->Summary() : promoted.status().ToString()));
  }
  cast[kPromote].expected = &fixture.digests_b;

  Result<RolloutReport> rolled_back(Status::Internal("rollout never ran"));
  {
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    FaultScope scope("rollout.canary", spec);
    rolled_back = RunTenantStagedRollout(*router, cast[kRollback].id,
                                         rollback_candidate, fixture.trace,
                                         rollout_options);
  }
  if (!rolled_back.ok() ||
      rolled_back->decision != RolloutDecision::kRollback) {
    fail("forced rollback for " + cast[kRollback].id + " did not roll back: " +
         (rolled_back.ok() ? rolled_back->Summary()
                           : rolled_back.status().ToString()));
  }
  if (promote_registry->active_id() !=
      std::optional<int64_t>(promote_candidate)) {
    fail("promote registry did not activate the candidate");
  }
  if (!rollback_registry->Get(rollback_candidate).ok() ||
      rollback_registry->Get(rollback_candidate)->status !=
          SnapshotStatus::kFailed) {
    fail("rollback registry did not condemn the candidate");
  }

  // Second half: the promoted tenant must now serve B bitwise; the
  // rolled-back tenant and every bystander must still serve exactly what
  // they served before.
  const std::vector<TenantOutcome> second_half =
      RunStormSlots(*router, slots, half, slots.size(), fixture.trace, cast,
                    storm_clients, rate);
  check_outcomes(second_half, "storm second half");

  const Status health = router->CheckHealth();
  if (!health.ok()) fail("router unhealthy after the storm: " +
                         health.ToString());
  std::vector<TenantStats> stats(num_tenants);
  for (int t = 0; t < num_tenants; ++t) {
    Result<TenantStats> tenant_stats = router->StatsFor(cast[t].id);
    CHECK(tenant_stats.ok());
    stats[t] = *tenant_stats;
  }
  router->Shutdown();

  const RunTrace run_trace = Tracer::Global().Collect();
  Tracer::Global().Disable();
  FlightRecorder::Global().Disable();

  // Rollout instants must be in the timeline, tagged with their tenant.
  int promote_instants = 0, rollback_instants = 0;
  for (const TraceEventRecord& event : run_trace.events) {
    if (event.category != "serve.rollout") continue;
    if (event.name == "promote" &&
        event.detail.find(cast[kPromote].id) != std::string::npos) {
      ++promote_instants;
    }
    if (event.name == "rollback" &&
        event.detail.find(cast[kRollback].id) != std::string::npos) {
      ++rollback_instants;
    }
  }
  if (promote_instants != 1) {
    fail("expected exactly 1 tagged promote instant, saw " +
         std::to_string(promote_instants));
  }
  if (rollback_instants != 1) {
    fail("expected exactly 1 tagged rollback instant, saw " +
         std::to_string(rollback_instants));
  }
  // The forced rollback is the storm's only incident: one verified dump.
  const IncidentCheck incidents = CheckIncidentDumps(
      incident_root, IncidentPolicy::kExactlyOne, "rollout.rollback");
  for (const std::string& failure : incidents.failures) fail(failure);

  // -- Report ---------------------------------------------------------------
  std::ofstream out(flags.GetString("out"), std::ios::trunc);
  out << "{\n";
  out << "  \"benchmark\": \"serving_mt\",\n";
  out << "  \"tenants\": " << num_tenants << ",\n";
  out << "  \"shards\": " << num_shards << ",\n";
  out << "  \"requests\": " << slots.size() << ",\n";
  out << "  \"trace_rows\": " << kTraceRows << ",\n";
  out << "  \"target_rps\": " << rate << ",\n";
  out << "  \"thread_counts\": [";
  for (size_t i = 0; i < storm_threads.size(); ++i) {
    out << (i ? ", " : "") << storm_threads[i];
  }
  out << "],\n";
  out << "  \"thread_independent\": "
      << (thread_independent ? "true" : "false") << ",\n";
  out << "  \"rollout\": {\"promoted_tenant\": \"" << cast[kPromote].id
      << "\", \"rolled_back_tenant\": \"" << cast[kRollback].id
      << "\", \"promote_instants\": " << promote_instants
      << ", \"rollback_instants\": " << rollback_instants << "},\n";
  out << "  \"incidents\": " << incidents.dumps << ",\n";
  out << "  \"noisy_tenant\": \"" << cast[kNoisy].id << "\",\n";
  out << "  \"per_tenant\": [\n";
  for (int t = 0; t < num_tenants; ++t) {
    TenantOutcome merged = first_half[t];
    const TenantOutcome& tail = second_half[t];
    merged.issued += tail.issued;
    merged.completed += tail.completed;
    merged.shed += tail.shed;
    merged.failures += tail.failures;
    merged.digest_mismatches += tail.digest_mismatches;
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               tail.latencies_ms.begin(),
                               tail.latencies_ms.end());
    FoldDigest(merged.digest, tail.digest);
    const Histogram& histogram = MetricsRegistry::Global().histogram(
        "serve.router.latency_ms", {{"tenant", cast[t].id}},
        {0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1, 2, 5, 10, 25, 50, 100, 250});
    const LatencyStats latency = Summarize(histogram, merged.latencies_ms);
    out << "    {\"tenant\": \"" << cast[t].id << "\", \"shard\": "
        << stats[t].shard << ", \"issued\": " << merged.issued
        << ", \"completed\": " << merged.completed
        << ", \"shed\": " << merged.shed
        << ", \"failures\": " << merged.failures
        << ", \"digest_mismatches\": " << merged.digest_mismatches
        << ", \"digest\": \"" << HexDigest(merged.digest)
        << "\", \"latency\": ";
    AppendLatency(out, latency);
    out << "}" << (t + 1 < num_tenants ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"passed\": " << (passed ? "true" : "false") << "\n";
  out << "}\n";
  out.close();

  std::printf("wrote %s (%d tenants / %d shards, %zu requests, "
              "thread_independent: %s, incidents: %d, passed: %s)\n",
              flags.GetString("out").c_str(), num_tenants, num_shards,
              slots.size(), thread_independent ? "yes" : "no", incidents.dumps,
              passed ? "yes" : "no");
  return passed ? 0 : 1;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("scale", "0.15", "zoo dataset subsample fraction");
  flags.AddFlag("steps", "20", "AL steps before the first snapshot export");
  flags.AddFlag("requests", "800", "requests per load phase");
  flags.AddFlag("clients", "4", "closed-loop client threads");
  flags.AddFlag("rate", "2000", "open-loop arrival rate (requests/second)");
  flags.AddFlag("batch", "32", "service max batch size for the load phases");
  flags.AddFlag("out", "BENCH_serving.json", "JSON report path");
  flags.AddFlag("seed", "7", "dataset split / pipeline seed");
  flags.AddFlag("tenants", "0", "run the multi-tenant ShardRouter storm with "
                                "this many tenants instead of the classic "
                                "single-service bench (>= 5)");
  flags.AddFlag("shards", "3", "router shards for the multi-tenant storm");
  flags.AddFlag("storm-threads", "1,4",
                "comma-separated client thread counts for the storm's "
                "routing-determinism sweep");
  flags.AddFlag("trace-dir", "bench-archive",
                "directory the SLO status / Prometheus exports land in");
  flags.AddFlag("incident-dir", "",
                "flight-recorder dump root (default "
                "<trace-dir>/incidents-serve-bench); wiped at startup — a "
                "clean run must end with it empty");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;
  if (flags.GetInt("tenants") > 0) return RunMultiTenantStorm(flags);

  // -- Train a pipeline and export two snapshots (A mid-run, B later) -----
  const int seed = flags.GetInt("seed");
  Result<DataSplit> split =
      MakeZooDataset("youtube", flags.GetDouble("scale"), seed);
  if (!split.ok()) {
    std::fprintf(stderr, "dataset: %s\n", split.status().ToString().c_str());
    return 2;
  }
  const FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions options;
  options.seed = seed + 16;
  ActiveDp pipeline(context, options);
  const int steps = flags.GetInt("steps");
  for (int t = 0; t < steps; ++t) {
    const Status status = pipeline.Step();
    if (!status.ok()) {
      std::fprintf(stderr, "step %d: %s\n", t, status.ToString().c_str());
      return 2;
    }
  }
  Result<ModelSnapshot> early = ExportSnapshot(pipeline, context);
  if (!early.ok()) {
    std::fprintf(stderr, "export: %s\n", early.status().ToString().c_str());
    return 2;
  }
  const auto snapshot_a =
      std::make_shared<const ModelSnapshot>(std::move(*early));
  for (int t = 0; t < std::max(1, steps / 2); ++t) {
    const Status status = pipeline.Step();
    if (!status.ok()) {
      std::fprintf(stderr, "step: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  Result<ModelSnapshot> late = ExportSnapshot(pipeline, context);
  if (!late.ok()) {
    std::fprintf(stderr, "export: %s\n", late.status().ToString().c_str());
    return 2;
  }
  const auto snapshot_b =
      std::make_shared<const ModelSnapshot>(std::move(*late));
  const Dataset& train = split->train;
  LOG(Info) << "snapshot: " << snapshot_a->state().lfs.size() << " LFs, dim "
            << snapshot_a->feature_dim() << ", train " << train.size();

  // -- Determinism gate ---------------------------------------------------
  // Reference digest: single-row offline predictions.
  const int gate_rows = std::min(train.size(), 96);
  BitHasher reference;
  for (int i = 0; i < gate_rows; ++i) {
    const Result<ServedPrediction> offline =
        snapshot_a->Predict(train.example(i));
    if (!offline.ok()) {
      std::fprintf(stderr, "offline predict: %s\n",
                   offline.status().ToString().c_str());
      return 2;
    }
    reference.Add(*offline);
  }

  bool deterministic = true;
  int configs_checked = 0;
  for (int batch_size : {1, 8, 32}) {
    const uint64_t digest =
        ServedDigest(snapshot_a, train, gate_rows, batch_size);
    ++configs_checked;
    if (digest != reference.digest()) {
      deterministic = false;
      std::fprintf(stderr,
                   "FAIL: served digest differs at batch=%d (%s vs offline "
                   "%s)\n",
                   batch_size, HexDigest(digest).c_str(),
                   HexDigest(reference.digest()).c_str());
    }
  }

  // Hot swap under full load.
  const int hot_swap_requests = std::min(flags.GetInt("requests"), 400);
  const int hot_swap_mismatches =
      RunHotSwapGate(snapshot_a, snapshot_b, train, hot_swap_requests,
                     flags.GetInt("clients"), /*swaps=*/20);
  if (hot_swap_mismatches > 0) {
    deterministic = false;
    std::fprintf(stderr, "FAIL: %d hot-swap responses matched neither "
                         "snapshot\n", hot_swap_mismatches);
  }

  // -- Load phases (metrics reset so the histogram covers only these) -----
  MetricsRegistry::Global().ResetAll();

  // OpsPlane: flight recorder armed with the burst triggers enabled so a
  // false fire would be caught (the clean-run gate below demands zero
  // dumps), and a burn-rate SLO engine sampling the registry during load.
  const std::string trace_dir = flags.GetString("trace-dir");
  std::string incident_root = flags.GetString("incident-dir");
  if (incident_root.empty()) {
    incident_root = trace_dir + "/incidents-serve-bench";
  }
  std::filesystem::remove_all(incident_root);
  FlightRecorderOptions recorder_options;
  recorder_options.incident_dir = incident_root;
  FlightRecorder::Global().Enable(recorder_options);

  SloEngine slo(DefaultServingSlos());
  PredictionServiceOptions serve_options;
  serve_options.max_batch_size = flags.GetInt("batch");
  serve_options.shed_burst_threshold = 64;
  serve_options.deadline_storm_threshold = 64;
  PredictionService service(serve_options);
  service.AttachSloEngine(&slo);
  service.LoadSnapshot(snapshot_a);

  const int requests = flags.GetInt("requests");
  const int clients = flags.GetInt("clients");
  const double rate = flags.GetDouble("rate");
  slo.Tick();  // baseline sample: burn rates are deltas against this
  const LoadResult closed =
      RunClosedLoop(service, train, requests, clients, &slo);
  LOG(Info) << "closed loop: " << closed.throughput_rps << " rps, p50 "
            << closed.latency.p50 << "ms p99 " << closed.latency.p99 << "ms";
  const LoadResult open = RunOpenLoop(service, train, requests, rate, &slo);
  LOG(Info) << "open loop: " << open.throughput_rps << " rps (target " << rate
            << "), p50 " << open.latency.p50 << "ms p99 " << open.latency.p99
            << "ms";
  slo.Tick();  // final sample so the evaluation covers the whole load
  const ServiceHealth health = service.Health();
  if (!health.ok || !health.has_snapshot) {
    std::fprintf(stderr, "FAIL: service unhealthy after the load phases\n");
    deterministic = false;
  }
  service.Shutdown();
  service.AttachSloEngine(nullptr);
  FlightRecorder::Global().Disable();

  // Clean-run incident gate: no breaker trip, shed burst, or deadline storm
  // should have fired, so the dump root must be empty.
  const IncidentCheck incidents =
      CheckIncidentDumps(incident_root, IncidentPolicy::kNone);
  for (const std::string& failure : incidents.failures) {
    std::fprintf(stderr, "FAIL: clean run: %s\n", failure.c_str());
    deterministic = false;
  }

  // SLO status + Prometheus exposition, archived next to the trace exports.
  const SloStatus slo_status = slo.Evaluate();
  const bool slos_met = slo_status.all_met();
  std::filesystem::create_directories(trace_dir);
  const Status slo_written =
      slo.ExportStatus(trace_dir + "/BENCH_serving.slo.json");
  const Status prom_written =
      AtomicWriteFile(trace_dir + "/BENCH_serving.prom",
                      MetricsRegistry::Global().ToPrometheusText());
  if (!slo_written.ok() || !prom_written.ok()) {
    std::fprintf(stderr, "FAIL: status export failed\n");
    deterministic = false;
  }
  if (!slos_met) {
    for (const SloResult& result : slo_status.results) {
      if (result.met) continue;
      std::fprintf(stderr, "FAIL: SLO breached on a clean run: %s (%s)\n",
                   result.name.c_str(), result.detail.c_str());
    }
    deterministic = false;
  }

  WriteJson(flags.GetString("out"), *snapshot_a, train, deterministic,
            configs_checked, hot_swap_requests, hot_swap_mismatches, closed,
            clients, open, rate, health, incidents.dumps, slos_met);
  std::printf("wrote %s (closed %0.0f rps, open %0.0f rps, deterministic: "
              "%s, incidents: %d, slos_met: %s)\n",
              flags.GetString("out").c_str(), closed.throughput_rps,
              open.throughput_rps, deterministic ? "yes" : "no",
              incidents.dumps, slos_met ? "yes" : "no");
  if (closed.failures + open.failures > 0) {
    std::fprintf(stderr, "FAIL: %d load-phase requests failed\n",
                 closed.failures + open.failures);
    return 1;
  }
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace activedp

int main(int argc, char** argv) { return activedp::Main(argc, argv); }
