#include "serve/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "online/event_log.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace activedp {
namespace {

/// Floor for the EWMA per-request service-time sample. Batches on tiny
/// snapshots finish in microseconds; without a floor the estimated queue
/// delay rounds to ~0 and the shedder can never engage, which makes the
/// overload tests timing-dependent.
constexpr double kMinRequestMsSample = 0.0005;
/// EWMA smoothing: new = (1 - alpha) * old + alpha * sample.
constexpr double kEwmaAlpha = 0.2;
/// Bounded sleep injected by the "serve.predict" kLatencySpike fault site.
constexpr double kLatencySpikeMs = 20.0;

/// One series of the serve.stage_ms family. The low end resolves the
/// microsecond-scale batches of an idle service; the high end keeps a
/// latency-spiked or backlogged queue wait out of the overflow bucket.
Histogram& StageHistogram(MetricsRegistry& registry, const char* stage) {
  return registry.histogram("serve.stage_ms", {{"stage", stage}},
                            {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                             0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250});
}

double MillisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct ServeMetrics {
  Counter& requests;
  Counter& rejected;
  Counter& expired;
  Counter& shed;
  Counter& breaker_trips;
  Counter& batches;
  Counter& swaps;
  Counter& feedback;
  Histogram& batch_size;
  Histogram& batch_latency_ms;
  // serve.stage_ms{stage}: one observation per batched request and stage.
  Histogram& stage_queue_ms;
  Histogram& stage_compute_ms;
  Histogram& stage_reply_ms;

  static ServeMetrics& Get() {
    static ServeMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      return new ServeMetrics{
          registry.counter("serve.requests"),
          registry.counter("serve.rejected"),
          registry.counter("serve.expired"),
          registry.counter("serve.shed"),
          registry.counter("serve.breaker_trips"),
          registry.counter("serve.batches"),
          registry.counter("serve.swaps"),
          registry.counter("serve.feedback"),
          // Bounds track the configured max batch (32 by default): fine
          // steps through the realistic 1..32 range, then two overflow
          // buckets so a raised max_batch_size still resolves.
          registry.histogram("serve.batch_size",
                             {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128}),
          // Real in-process batches complete in single-digit microseconds,
          // so the histogram needs sub-0.1ms buckets — with a 0.1ms first
          // bound every observation landed in one bucket and the latency
          // distribution was invisible.
          registry.histogram(
              "serve.batch_latency_ms",
              {0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1, 2, 5, 10, 25, 50, 100}),
          StageHistogram(registry, "queue"),
          StageHistogram(registry, "compute"),
          StageHistogram(registry, "reply"),
      };
    }();
    return *metrics;
  }
};

/// Fires one flight-recorder incident from its destructor — declared
/// *before* a lock scope so the dump's file IO always runs after the lock
/// is released, even on the early-return admission paths.
struct DeferredIncident {
  const char* reason = nullptr;
  ~DeferredIncident() {
    if (reason != nullptr) {
      (void)FlightRecorder::Global().TriggerIncident(reason);
    }
  }
};

/// The retry-after carried in RejectInfo: the estimated time for the
/// backlog to drain, floored at 1ms so clients always get a usable hint.
double RetryAfterMs(double estimated_delay_ms) {
  return std::max(1.0, std::ceil(estimated_delay_ms));
}

}  // namespace

PredictionService::PredictionService(PredictionServiceOptions options)
    : options_(options) {
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

PredictionService::~PredictionService() { Shutdown(); }

void PredictionService::LoadSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_ = std::move(snapshot);
  }
  ServeMetrics::Get().swaps.Increment();
}

std::shared_ptr<const ModelSnapshot> PredictionService::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

void PredictionService::SetSnapshotResolver(SnapshotResolver resolver) {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_resolver_ = std::move(resolver);
}

double PredictionService::EstimatedQueueDelayMsLocked() const {
  // The delay a request admitted *now* would see: everything already queued
  // plus itself, each at the EWMA per-request service time. Zero until the
  // first batch completes (the shedder stays open while the estimate is
  // cold — admission-control decisions need evidence).
  return (static_cast<double>(queue_.size()) + 1.0) * ewma_request_ms_;
}

bool PredictionService::NoteWindowEventLocked(int64_t* window_start_us,
                                              int* count, int threshold) {
  if (threshold <= 0) return false;
  const int64_t now = ObsNowMicros();
  const int64_t window_us =
      static_cast<int64_t>(options_.incident_window_seconds * 1e6);
  if (now - *window_start_us > window_us) {
    *window_start_us = now;
    *count = 0;
  }
  if (++*count < threshold) return false;
  *count = 0;
  return true;
}

void PredictionService::Submit(ServeRequest request,
                               std::function<void(ServeReply)> resolve) {
  ServeMetrics& metrics = ServeMetrics::Get();
  metrics.requests.Increment();
  // Declared before the lock scope: its destructor (which does incident
  // file IO) runs after the lock_guard's on every return path below.
  DeferredIncident incident;
  // Per-tenant snapshot resolution happens before the admission lock: the
  // resolver takes its own (e.g. router) lock, and holding both at once
  // would be a lock-order hazard.
  std::shared_ptr<const ModelSnapshot> pinned;
  if (!request.tenant_id.empty()) {
    SnapshotResolver resolver;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      resolver = snapshot_resolver_;
    }
    if (resolver) pinned = resolver(request.tenant_id);
  }
  std::optional<ServeReply> immediate;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int depth = static_cast<int>(queue_.size());
    if (shutdown_) {
      metrics.rejected.Increment();
      immediate = ServeReply::Rejected(
          Status::Unavailable("prediction service is shut down"),
          RejectInfo{0.0, depth, RejectReason::kShutdown});
    } else if (pinned == nullptr && snapshot_ == nullptr) {
      metrics.rejected.Increment();
      immediate = ServeReply::Error(
          Status::FailedPrecondition("no model snapshot loaded"));
    } else if (request.deadline.expired()) {
      metrics.expired.Increment();
      if (NoteWindowEventLocked(&deadline_window_start_us_,
                                &deadline_window_count_,
                                options_.deadline_storm_threshold)) {
        TraceInstant("serve", "deadline_storm",
                     std::to_string(options_.deadline_storm_threshold) +
                         " deadline failures within the incident window");
        incident.reason = "serve.deadline_storm";
      }
      immediate = ServeReply::Error(
          Status::DeadlineExceeded("request deadline already expired"));
    } else {
      const double estimate_ms = EstimatedQueueDelayMsLocked();
      // Predictive fail-fast: when the backlog estimate says this request
      // cannot reach dispatch before its deadline, reject now instead of
      // letting it queue up only to expire there.
      if (!request.deadline.is_infinite() &&
          estimate_ms > request.deadline.remaining_seconds() * 1000.0) {
        metrics.expired.Increment();
        if (NoteWindowEventLocked(&deadline_window_start_us_,
                                  &deadline_window_count_,
                                  options_.deadline_storm_threshold)) {
          TraceInstant("serve", "deadline_storm",
                       std::to_string(options_.deadline_storm_threshold) +
                           " deadline failures within the incident window");
          incident.reason = "serve.deadline_storm";
        }
        immediate = ServeReply::Error(Status::DeadlineExceeded(
            "request would expire while queued (depth=" +
            std::to_string(depth) + ", estimated " +
            std::to_string(estimate_ms) + "ms)"));
      } else if (options_.max_queue_delay_ms > 0.0 &&
                 estimate_ms > options_.max_queue_delay_ms &&
                 request.priority < 1) {
        // Adaptive overload shed: the queue is deep enough that it cannot
        // drain within the configured delay budget. Carry the depth and a
        // structured retry-after so clients back off instead of hammering.
        // priority >= 1 requests bypass this check (never the hard ones
        // below).
        metrics.rejected.Increment();
        metrics.shed.Increment();
        if (NoteWindowEventLocked(&shed_window_start_us_, &shed_window_count_,
                                  options_.shed_burst_threshold)) {
          TraceInstant("serve", "shed_burst",
                       std::to_string(options_.shed_burst_threshold) +
                           " requests shed within the incident window");
          incident.reason = "serve.shed_burst";
        }
        immediate = ServeReply::Rejected(
            Status::Unavailable("prediction service overloaded (depth=" +
                                std::to_string(depth) + ", estimated delay " +
                                std::to_string(estimate_ms) + "ms)"),
            RejectInfo{RetryAfterMs(estimate_ms), depth,
                       RejectReason::kOverloaded});
      } else if (depth >= options_.max_queue_depth) {
        metrics.rejected.Increment();
        immediate = ServeReply::Rejected(
            Status::Unavailable(
                "prediction queue is full (depth=" + std::to_string(depth) +
                " of max " + std::to_string(options_.max_queue_depth) + ")"),
            RejectInfo{RetryAfterMs(estimate_ms), depth,
                       RejectReason::kQueueFull});
      } else {
        PendingRequest pending;
        pending.request = std::move(request);
        pending.pinned = std::move(pinned);
        pending.resolve = std::move(resolve);
        pending.admitted = Clock::now();
        queue_.push_back(std::move(pending));
      }
    }
  }
  if (immediate) {
    // Rejections resolve outside the lock: the resolve callback may be a
    // router completion hook that takes the router lock.
    resolve(std::move(*immediate));
  } else {
    // Notified after the lock is released, so the woken dispatcher does not
    // block again on mutex_ still held here.
    queue_cv_.notify_one();
  }
}

std::future<ServeReply> PredictionService::PredictAsync(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeReply>>();
  std::future<ServeReply> future = promise->get_future();
  Submit(std::move(request), [promise](ServeReply reply) {
    promise->set_value(std::move(reply));
  });
  return future;
}

ServeReply PredictionService::Predict(ServeRequest request) {
  return PredictAsync(std::move(request)).get();
}

void PredictionService::PredictWithCallback(
    ServeRequest request, std::function<void(ServeReply)> done) {
  Submit(std::move(request), std::move(done));
}

void PredictionService::AttachEventLog(EventLog* log) {
  std::lock_guard<std::mutex> lock(mutex_);
  event_log_ = log;
}

void PredictionService::AttachSloEngine(SloEngine* engine) {
  std::lock_guard<std::mutex> lock(mutex_);
  slo_engine_ = engine;
}

Result<uint64_t> PredictionService::RecordFeedback(const FeedbackEvent& event) {
  TraceSpan span("serve.feedback");
  EventLog* log = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return Status::Unavailable("prediction service is shut down");
    }
    log = event_log_;
  }
  if (log == nullptr) {
    return Status::FailedPrecondition(
        "no event log attached; feedback would not be durable");
  }
  // The append happens outside mutex_ (EventLog serializes itself), so a
  // slow fsync never stalls prediction admission.
  Result<uint64_t> seq = log->Append(event);
  if (seq.ok()) {
    span.AddArg("seq", static_cast<int64_t>(*seq));
    span.AddArg("type", static_cast<int64_t>(event.type));
    ServeMetrics::Get().feedback.Increment();
  }
  return seq;
}

int PredictionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

ServiceHealth PredictionService::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceHealth health;
  health.shutdown = shutdown_;
  health.has_snapshot = snapshot_ != nullptr;
  health.queue_depth = static_cast<int>(queue_.size());
  health.estimated_queue_delay_ms = EstimatedQueueDelayMsLocked();
  health.breaker_trips = breaker_trips_;
  health.ok =
      !shutdown_ && health.has_snapshot &&
      (options_.max_queue_delay_ms <= 0.0 ||
       health.estimated_queue_delay_ms <= options_.max_queue_delay_ms) &&
      health.queue_depth < options_.max_queue_depth;
  return health;
}

Status PredictionService::CheckHealth() const {
  const ServiceHealth health = Health();
  if (health.shutdown) {
    return Status::Unavailable("prediction service is shut down");
  }
  if (!health.has_snapshot) {
    return Status::FailedPrecondition("no model snapshot loaded");
  }
  if (!health.ok) {
    return Status::Unavailable(
        "prediction service overloaded (depth=" +
        std::to_string(health.queue_depth) + ", estimated delay " +
        std::to_string(health.estimated_queue_delay_ms) + "ms)");
  }
  SloEngine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    engine = slo_engine_;
  }
  if (engine != nullptr) {
    const SloStatus slo_status = engine->Evaluate();
    for (const SloResult& result : slo_status.results) {
      if (!result.met) {
        return Status::Unavailable("slo breach: " + result.name + " (" +
                                   result.detail + ")");
      }
    }
  }
  return Status::Ok();
}

int64_t PredictionService::breaker_trips() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breaker_trips_;
}

std::shared_ptr<const ModelSnapshot> PredictionService::last_known_good()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_good_;
}

void PredictionService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    queue_cv_.notify_all();
  }
  // Separate join lock so concurrent Shutdown calls serialize on the join
  // instead of racing std::thread::join (idempotent: joinable() is false
  // for every caller after the first).
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void PredictionService::DispatchLoop() {
  ServeMetrics& metrics = ServeMetrics::Get();
  while (true) {
    std::vector<PendingRequest> batch;
    std::shared_ptr<const ModelSnapshot> snapshot;
    Clock::time_point dequeued;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Woken with nothing queued means shutdown, and the queue is drained.
      if (queue_.empty()) return;
      // Adaptive batching: take everything queued right now, up to the batch
      // cap, without waiting for more. Requests that arrive while this batch
      // computes form the next one.
      const int take = std::min<int>(static_cast<int>(queue_.size()),
                                     options_.max_batch_size);
      batch.reserve(take);
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      dequeued = Clock::now();
      // Pin the snapshot current at dispatch: the RCU read side. A
      // concurrent LoadSnapshot affects later batches only. Tenant-pinned
      // requests carry their own snapshot and ignore this one.
      snapshot = snapshot_;
    }
    metrics.batches.Increment();
    metrics.batch_size.Observe(static_cast<double>(batch.size()));
    RunBatch(snapshot, std::move(batch), dequeued);
  }
}

void PredictionService::RunBatch(
    const std::shared_ptr<const ModelSnapshot>& snapshot,
    std::vector<PendingRequest> batch, Clock::time_point dequeued) {
  ServeMetrics& metrics = ServeMetrics::Get();
  TraceSpan span("serve.batch");
  span.AddArg("size", static_cast<int64_t>(batch.size()));
  Timer timer;

  // Per-request deadlines are checked at dispatch: a request that spent its
  // budget in the queue fails fast instead of occupying batch capacity.
  // Live requests are then partitioned by effective snapshot — a tenant's
  // pinned snapshot, or the batch's dispatch snapshot — so one micro-batch
  // can serve many tenant models. Grouping never changes results:
  // PredictBatch is row-independent and bitwise deterministic.
  std::vector<std::optional<ServeReply>> replies(batch.size());
  std::vector<std::shared_ptr<const ModelSnapshot>> group_snapshots;
  std::vector<std::vector<int>> group_members;
  int live_count = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].request.deadline.expired()) {
      metrics.expired.Increment();
      replies[i] = ServeReply::Error(
          Status::DeadlineExceeded("request expired while queued"));
      continue;
    }
    const std::shared_ptr<const ModelSnapshot>& effective =
        batch[i].pinned != nullptr ? batch[i].pinned : snapshot;
    if (effective == nullptr) {
      replies[i] = ServeReply::Error(
          Status::FailedPrecondition("no model snapshot loaded"));
      continue;
    }
    size_t g = 0;
    while (g < group_snapshots.size() && group_snapshots[g] != effective) ++g;
    if (g == group_snapshots.size()) {
      group_snapshots.push_back(effective);
      group_members.emplace_back();
    }
    group_members[g].push_back(static_cast<int>(i));
    ++live_count;
  }
  span.AddArg("expired",
              static_cast<int64_t>(batch.size() - live_count));
  span.AddArg("snapshot_groups",
              static_cast<int64_t>(group_snapshots.size()));

  // Serving-side fault sites (the `serve` rows of bench/chaos_matrix): a
  // latency spike delays the batch without failing it — results stay
  // bitwise correct, tail latency and queue-delay shedding absorb the hit; a
  // dispatch fault fails the whole batch, which is what arms the circuit
  // breaker below.
  if (CheckFault("serve.predict", {FaultKind::kLatencySpike}) ==
      FaultKind::kLatencySpike) {
    span.AddArg("latency_spike_ms", static_cast<int64_t>(kLatencySpikeMs));
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kLatencySpikeMs));
  }
  const bool dispatch_fault =
      CheckFault("serve.dispatch", {FaultKind::kError}) == FaultKind::kError;

  bool any_ok = false;
  for (size_t g = 0; g < group_snapshots.size(); ++g) {
    if (dispatch_fault) {
      span.AddArg("injected_dispatch_fault", 1);
      for (int idx : group_members[g]) {
        replies[idx] = ServeReply::Error(
            Status::Internal("injected fault at serve.dispatch"));
      }
      continue;
    }
    std::vector<Example> examples;
    examples.reserve(group_members[g].size());
    for (int idx : group_members[g]) {
      examples.push_back(batch[idx].request.example);
    }
    std::vector<Result<ServedPrediction>> results =
        group_snapshots[g]->PredictBatch(examples);
    for (size_t k = 0; k < group_members[g].size(); ++k) {
      const int idx = group_members[g][k];
      if (results[k].ok()) {
        any_ok = true;
        replies[idx] = ServeReply::Ok(std::move(*results[k]));
      } else {
        replies[idx] = ServeReply::Error(results[k].status());
      }
    }
  }
  const double elapsed_ms = timer.ElapsedMillis();
  metrics.batch_latency_ms.Observe(elapsed_ms);

  // Feed the admission-control EWMA and the circuit breaker. A batch counts
  // as failed only when it had live requests and none succeeded; enough
  // consecutive failures on the current snapshot degrade the service back to
  // the last snapshot that served a healthy batch. State commits *before*
  // the replies resolve, so a blocking caller that observes its result
  // always sees the post-batch EWMA/breaker state on its next admission.
  bool breaker_tripped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (live_count > 0) {
      const double sample_ms = std::max(
          kMinRequestMsSample, elapsed_ms / static_cast<double>(live_count));
      ewma_request_ms_ = ewma_request_ms_ <= 0.0
                             ? sample_ms
                             : (1.0 - kEwmaAlpha) * ewma_request_ms_ +
                                   kEwmaAlpha * sample_ms;
      if (any_ok) {
        consecutive_failed_batches_ = 0;
        if (snapshot != nullptr) last_good_ = snapshot;
      } else {
        ++consecutive_failed_batches_;
        if (options_.breaker_threshold > 0 &&
            consecutive_failed_batches_ >= options_.breaker_threshold &&
            last_good_ != nullptr && last_good_ != snapshot_) {
          snapshot_ = last_good_;
          ++breaker_trips_;
          consecutive_failed_batches_ = 0;
          metrics.breaker_trips.Increment();
          metrics.swaps.Increment();
          TraceInstant("serve", "circuit_breaker",
                       "degraded to last-known-good snapshot after " +
                           std::to_string(options_.breaker_threshold) +
                           " consecutive failed batches");
          breaker_tripped = true;
        }
      }
    }
  }
  // Stage times are observed before each reply resolves, so a caller that
  // sees its reply also sees its three stage observations.
  const Clock::time_point ready = Clock::now();
  const double compute_ms = MillisBetween(dequeued, ready);
  for (size_t i = 0; i < batch.size(); ++i) {
    metrics.stage_queue_ms.Observe(MillisBetween(batch[i].admitted, dequeued));
    metrics.stage_compute_ms.Observe(compute_ms);
    metrics.stage_reply_ms.Observe(MillisBetween(ready, Clock::now()));
    if (replies[i].has_value()) {
      batch[i].resolve(std::move(*replies[i]));
    }
  }
  // Dump after the lock is gone and the replies are resolved — incident
  // file IO must never stall admission or the waiting callers.
  if (breaker_tripped) {
    (void)FlightRecorder::Global().TriggerIncident("serve.breaker_trip");
  }
}

}  // namespace activedp
