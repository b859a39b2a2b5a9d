#ifndef ACTIVEDP_SERVE_PREDICTION_SERVICE_H_
#define ACTIVEDP_SERVE_PREDICTION_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/model_snapshot.h"
#include "serve/serve_types.h"
#include "util/deadline.h"
#include "util/result.h"

namespace activedp {

class EventLog;
struct FeedbackEvent;
class SloEngine;

struct PredictionServiceOptions {
  /// Upper bound on one batch. An idle dispatcher takes whatever is queued,
  /// up to this many requests, without waiting for more to arrive.
  int max_batch_size = 32;
  /// Admission control: requests beyond this queue depth are rejected
  /// immediately with Status::Unavailable instead of growing the queue
  /// without bound (backpressure the caller can retry on).
  int max_queue_depth = 1024;
  /// Adaptive overload shedding: when > 0 and the *estimated* queue delay
  /// (queue depth × an EWMA of per-request service time) exceeds this, new
  /// requests are shed at admission with Unavailable + a structured
  /// RejectInfo retry hint — before they sit in a queue that cannot drain
  /// in time. 0 disables.
  double max_queue_delay_ms = 0.0;
  /// Per-snapshot circuit breaker: this many *consecutive* fully-failed
  /// batches trip it, and the service degrades to the last snapshot that
  /// completed a healthy batch (the last-known-good). <= 0 disables.
  int breaker_threshold = 0;
  /// Flight-recorder burst triggers (src/obs): when > 0, this many shed
  /// rejections within `incident_window_seconds` fire one
  /// "serve.shed_burst" incident dump; likewise deadline failures fire
  /// "serve.deadline_storm". 0 disables (the default — benches opt in;
  /// the dumps themselves are also rate-limited by the recorder's
  /// per-reason cooldown).
  int shed_burst_threshold = 0;
  int deadline_storm_threshold = 0;
  double incident_window_seconds = 1.0;
};

/// Point-in-time health of a PredictionService (see CheckHealth()).
struct ServiceHealth {
  bool ok = false;
  bool shutdown = false;
  bool has_snapshot = false;
  int queue_depth = 0;
  /// Queue depth × EWMA per-request service time — what the shedding and
  /// predictive deadline checks see at admission.
  double estimated_queue_delay_ms = 0.0;
  /// Times the circuit breaker swapped back to the last-known-good snapshot.
  int64_t breaker_trips = 0;
};

/// A concurrent, batching inference front-end over ModelSnapshot.
///
/// Requests enter a bounded queue; a dispatcher thread evaluates them in
/// batches, inline on its own thread, via ModelSnapshot::PredictBatch.
/// Batching is adaptive (Clipper, Crankshaw et al., NSDI 2017): whenever the
/// dispatcher is idle it takes everything queued, up to max_batch_size,
/// straight away — a lone request is never held back waiting for company,
/// and batches grow only from requests that arrive while the previous batch
/// computes. Because snapshot prediction is row-independent, batching
/// boundaries never change results — a served prediction is bitwise
/// identical to the offline aggregation at any load.
///
/// Snapshots hot-swap RCU-style: LoadSnapshot publishes a new
/// shared_ptr<const ModelSnapshot>; each batch pins the snapshot current at
/// dispatch time, so in-flight batches drain on the old snapshot while new
/// batches use the new one, and the old snapshot is freed when its last
/// batch completes. No request ever observes a half-swapped model.
///
/// Multi-tenant use (DESIGN.md §15): requests carry a ServeRequest with a
/// tenant id; with a snapshot resolver attached (SetSnapshotResolver — the
/// ShardRouter installs one per shard), a tenant's request pins that
/// tenant's active snapshot at admission, so one shard serves many tenant
/// models in the same micro-batch (RunBatch partitions by snapshot).
/// Requests without a tenant id use the service's own LoadSnapshot'd model
/// exactly as before.
///
/// Overload protection (DESIGN.md §11): admission sheds adaptively on the
/// estimated queue delay (before a request's deadline is already blown), a
/// per-snapshot circuit breaker trips on consecutive failed batches and
/// degrades to the last-known-good snapshot, and CheckHealth() gives callers
/// a fail-fast probe. Fault sites "serve.dispatch" (batch failure) and
/// "serve.predict" (latency spike) exercise these paths.
///
/// Observability: spans ("serve.batch") are emitted from the dispatcher
/// thread, and the global
/// MetricsRegistry gains serve.requests / serve.rejected / serve.expired /
/// serve.shed / serve.breaker_trips / serve.batches counters plus
/// serve.batch_size and serve.batch_latency_ms histograms. Every request
/// that reaches a batch is also timed per stage into the
/// serve.stage_ms{stage} family: "queue" (admission to dequeue), "compute"
/// (dequeue to its batch's replies being ready) and "reply" (replies ready
/// to its own reply being handed to the caller). All three are observed
/// before the reply resolves.
class PredictionService {
 public:
  /// Maps a tenant id to that tenant's active snapshot (null when the
  /// tenant is unknown). Called at admission, outside the service lock —
  /// implementations may take their own locks but must not call back into
  /// this service.
  using SnapshotResolver =
      std::function<std::shared_ptr<const ModelSnapshot>(
          const std::string& tenant_id)>;

  explicit PredictionService(PredictionServiceOptions options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Publishes `snapshot` for all batches dispatched from now on. Safe to
  /// call at any time, including under load; pass the first snapshot before
  /// the first request (requests without a snapshot are rejected with
  /// FailedPrecondition).
  void LoadSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot new batches would use right now.
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// Installs the tenant-id → snapshot mapping consulted at admission for
  /// requests with a non-empty tenant_id (nullptr detaches). The resolved
  /// snapshot is pinned on the request, so a tenant hot-swap (e.g. a
  /// per-tenant rollout promote) affects requests admitted after it only —
  /// the same RCU discipline as LoadSnapshot.
  void SetSnapshotResolver(SnapshotResolver resolver);

  /// Enqueues one request. The future resolves when its batch completes:
  /// ServeReply.status is Ok with the prediction, DeadlineExceeded when the
  /// deadline expired (or, with the adaptive shedder warm, provably *would*
  /// expire while queued), or Unavailable when the queue is full / the
  /// service is overloaded or shut down — Unavailable replies carry a
  /// structured RejectInfo (retry_after_ms, queue_depth, reason) clients
  /// back off on (serve/serve_client.h wraps this with util/retry).
  /// Requests with priority >= 1 bypass adaptive shedding (never hard
  /// queue-depth or deadline checks). Never blocks beyond admission.
  std::future<ServeReply> PredictAsync(ServeRequest request);

  /// Convenience blocking wrapper around PredictAsync.
  ServeReply Predict(ServeRequest request);

  /// Callback form of PredictAsync: `done` is invoked exactly once with the
  /// reply — immediately (before this returns) for admission rejections,
  /// from the dispatcher thread otherwise. Never invoked under the service
  /// lock, so `done` may take its own locks (the ShardRouter's completion
  /// accounting rides on this).
  void PredictWithCallback(ServeRequest request,
                           std::function<void(ServeReply)> done);

  /// Attaches the durable feedback log RecordFeedback appends to (borrowed;
  /// must outlive the service or be detached with nullptr first). The
  /// LearnGuard loop (online/retrainer.h) consumes what lands here.
  void AttachEventLog(EventLog* log);

  /// Durably records one feedback event (fsync'd before returning) under a
  /// "serve.feedback" span, returning its log sequence number.
  /// FailedPrecondition without an attached log; Unavailable after shutdown
  /// or when the log handle is poisoned by a torn append.
  Result<uint64_t> RecordFeedback(const FeedbackEvent& event);

  /// Stops admission, drains every queued request (their futures still
  /// resolve), and joins the dispatcher. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  /// Requests currently waiting for a batch.
  int queue_depth() const;

  /// Attaches an SLO engine (borrowed; must outlive the service or be
  /// detached with nullptr first). With one attached, CheckHealth() also
  /// fails Unavailable while any SLO is breached — load balancers see burn
  /// before users do.
  void AttachSloEngine(SloEngine* engine);

  /// Fail-fast health probe: Ok when the service would admit a request right
  /// now; Unavailable (shut down / overloaded / SLO breach) or
  /// FailedPrecondition (no snapshot) otherwise — the same statuses
  /// admission would return, without occupying queue capacity to find out.
  Status CheckHealth() const;
  ServiceHealth Health() const;

  /// Times the circuit breaker degraded to the last-known-good snapshot.
  int64_t breaker_trips() const;
  /// The last snapshot that completed a healthy batch (what the breaker
  /// falls back to). May be null before the first healthy batch.
  std::shared_ptr<const ModelSnapshot> last_known_good() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingRequest {
    ServeRequest request;
    /// When admission queued the request (start of the "queue" stage).
    Clock::time_point admitted;
    /// The tenant's snapshot pinned at admission (null = use the service
    /// snapshot current at dispatch).
    std::shared_ptr<const ModelSnapshot> pinned;
    std::function<void(ServeReply)> resolve;
  };

  /// The one admission path every public entry point funnels into: either
  /// queues the request (resolve is called later from the dispatcher) or
  /// calls resolve with the rejection before returning — always outside
  /// the service lock.
  void Submit(ServeRequest request, std::function<void(ServeReply)> resolve);

  void DispatchLoop();
  /// Evaluates one batch taken off the queue at `dequeued` and resolves
  /// every request in it.
  void RunBatch(const std::shared_ptr<const ModelSnapshot>& snapshot,
                std::vector<PendingRequest> batch, Clock::time_point dequeued);
  /// Estimated time for a request admitted now to reach dispatch, from the
  /// EWMA per-request service time. Caller holds mutex_.
  double EstimatedQueueDelayMsLocked() const;
  /// Rolling-window burst counter for the incident triggers: counts one
  /// event, returns true when `threshold` events landed within
  /// options_.incident_window_seconds (and resets for the next burst).
  /// Caller holds mutex_.
  bool NoteWindowEventLocked(int64_t* window_start_us, int* count,
                             int threshold);

  const PredictionServiceOptions options_;

  mutable std::mutex mutex_;
  std::mutex join_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  SnapshotResolver snapshot_resolver_;  // guarded by mutex_; called outside it
  bool shutdown_ = false;

  // Overload/resilience state (guarded by mutex_). The EWMA is written by
  // the dispatcher after each batch and read at admission.
  double ewma_request_ms_ = 0.0;
  int consecutive_failed_batches_ = 0;
  int64_t breaker_trips_ = 0;
  std::shared_ptr<const ModelSnapshot> last_good_;
  EventLog* event_log_ = nullptr;   // borrowed; guarded by mutex_
  SloEngine* slo_engine_ = nullptr;  // borrowed; guarded by mutex_

  // Incident burst windows (guarded by mutex_; see the *_threshold options).
  int64_t shed_window_start_us_ = 0;
  int shed_window_count_ = 0;
  int64_t deadline_window_start_us_ = 0;
  int deadline_window_count_ = 0;

  std::thread dispatcher_;
};

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_PREDICTION_SERVICE_H_
