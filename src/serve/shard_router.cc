#include "serve/shard_router.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "obs/flight_recorder.h"
#include "serve/snapshot_io.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace activedp {
namespace {

constexpr char kCanaryFaultSite[] = "rollout.canary";

/// Same EWMA discipline as the PredictionService shedder, scoped per
/// tenant: floor the round-trip sample so microsecond-fast tenants still
/// accumulate a usable estimate.
constexpr double kMinRequestMsSample = 0.0005;
constexpr double kEwmaAlpha = 0.2;

/// splitmix64 finalizer (same mix as serve/rollout.cc, util/fault.cc) —
/// the counter-hash core of the routing determinism contract.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string — the stable tenant/ring key hash.
uint64_t Fnv1a(const std::string& s) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double RetryAfterMs(double estimated_delay_ms) {
  return std::max(1.0, std::ceil(estimated_delay_ms));
}

/// Rolling-window burst counter (the PredictionService incident-window
/// logic, per tenant). Caller holds the router lock.
bool NoteWindowEvent(int64_t* window_start_us, int* count, int threshold,
                     double window_seconds) {
  if (threshold <= 0) return false;
  const int64_t now = ObsNowMicros();
  const int64_t window_us = static_cast<int64_t>(window_seconds * 1e6);
  if (now - *window_start_us > window_us) {
    *window_start_us = now;
    *count = 0;
  }
  if (++*count < threshold) return false;
  *count = 0;
  return true;
}

/// Fires one flight-recorder incident from its destructor — declared
/// before the lock scope so the dump's file IO runs after the lock is
/// released on every return path.
struct DeferredIncident {
  const char* reason = nullptr;
  ~DeferredIncident() {
    if (reason != nullptr) {
      (void)FlightRecorder::Global().TriggerIncident(reason);
    }
  }
};

Counter& TenantRequestsCounter(const std::string& tenant_id) {
  return MetricsRegistry::Global().counter("serve.router.requests",
                                           {{"tenant", tenant_id}});
}

}  // namespace

std::vector<ShardRouter::RingPoint> ShardRouter::BuildRing(int num_shards,
                                                           int virtual_nodes) {
  std::vector<RingPoint> ring;
  ring.reserve(static_cast<size_t>(num_shards) * virtual_nodes);
  for (int s = 0; s < num_shards; ++s) {
    for (int v = 0; v < virtual_nodes; ++v) {
      const std::string node =
          "shard-" + std::to_string(s) + "#" + std::to_string(v);
      ring.push_back(RingPoint{Mix(Fnv1a(node)), s});
    }
  }
  std::sort(ring.begin(), ring.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
  return ring;
}

int ShardRouter::LookupRing(const std::vector<RingPoint>& ring,
                            const std::string& tenant_id) {
  if (ring.empty()) return 0;
  const uint64_t key = Mix(Fnv1a(tenant_id));
  // Clockwise successor: first ring point at or after the key, wrapping to
  // the smallest point past the top.
  const auto it = std::lower_bound(
      ring.begin(), ring.end(), key,
      [](const RingPoint& p, uint64_t k) { return p.hash < k; });
  return it != ring.end() ? it->shard : ring.front().shard;
}

ShardRouter::ShardRouter(ServeConfig config)
    : config_(std::move(config)),
      ring_(BuildRing(config_.router.num_shards, config_.router.virtual_nodes)) {
  const Status valid = ValidateServeConfig(config_);
  CHECK(valid.ok()) << "ShardRouter constructed from an invalid config: "
                    << valid.ToString();
  shards_.reserve(static_cast<size_t>(config_.router.num_shards));
  for (int s = 0; s < config_.router.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<PredictionService>(config_.service));
    // Every shard resolves tenant snapshots through the router's tenant
    // table; the resolver runs outside the shard's lock by contract.
    shards_.back()->SetSnapshotResolver(
        [this](const std::string& tenant_id) {
          return TenantSnapshot(tenant_id);
        });
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

int ShardRouter::ShardFor(const std::string& tenant_id) const {
  return LookupRing(ring_, tenant_id);
}

int ShardRouter::ShardForKey(const std::string& tenant_id, int num_shards,
                             int virtual_nodes) {
  if (num_shards < 1) return 0;
  return LookupRing(BuildRing(num_shards, std::max(1, virtual_nodes)),
                    tenant_id);
}

Status ShardRouter::AddTenant(const std::string& tenant_id) {
  return AddTenant(tenant_id, config_.router.default_limits);
}

Status ShardRouter::AddTenant(const std::string& tenant_id,
                              const TenantLimits& limits) {
  if (tenant_id.empty()) {
    return Status::InvalidArgument("tenant id must be non-empty");
  }
  // Series are resolved before the router lock: the registry lock is never
  // taken under it.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  TenantEntry entry;
  entry.limits = limits;
  entry.requests_counter = &TenantRequestsCounter(tenant_id);
  entry.shed_counter =
      &metrics.counter("serve.router.shed", {{"tenant", tenant_id}});
  entry.latency_ms = &metrics.histogram(
      "serve.router.latency_ms", {{"tenant", tenant_id}},
      {0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1, 2, 5, 10, 25, 50, 100, 250});
  std::lock_guard<std::mutex> lock(mutex_);
  if (tenants_.count(tenant_id) > 0) {
    return Status::FailedPrecondition("tenant '" + tenant_id +
                                      "' is already registered");
  }
  entry.shard = LookupRing(ring_, tenant_id);
  tenants_.emplace(tenant_id, std::move(entry));
  return Status::Ok();
}

Status ShardRouter::SetTenantSnapshot(
    const std::string& tenant_id,
    std::shared_ptr<const ModelSnapshot> snapshot) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant '" + tenant_id + "'");
    }
    it->second.snapshot = std::move(snapshot);
  }
  MetricsRegistry::Global()
      .counter("serve.router.snapshot_swaps", {{"tenant", tenant_id}})
      .Increment();
  return Status::Ok();
}

std::shared_ptr<const ModelSnapshot> ShardRouter::TenantSnapshot(
    const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant_id);
  return it != tenants_.end() ? it->second.snapshot : nullptr;
}

Status ShardRouter::AttachTenantRegistry(const std::string& tenant_id,
                                         SnapshotRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + tenant_id + "'");
  }
  it->second.registry = registry;
  return Status::Ok();
}

Result<SnapshotRegistry*> ShardRouter::TenantRegistry(
    const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + tenant_id + "'");
  }
  if (it->second.registry == nullptr) {
    return Status::FailedPrecondition("tenant '" + tenant_id +
                                      "' has no snapshot registry attached");
  }
  return it->second.registry;
}

void ShardRouter::PredictWithCallback(ServeRequest request,
                                      std::function<void(ServeReply)> done) {
  if (request.tenant_id.empty()) {
    done(ServeReply::Error(Status::InvalidArgument(
        "ServeRequest.tenant_id is required for routed prediction")));
    return;
  }
  DeferredIncident incident;
  std::optional<ServeReply> immediate;
  PredictionService* shard = nullptr;
  Histogram* latency_ms = nullptr;
  bool unknown_tenant = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(request.tenant_id);
    unknown_tenant = it == tenants_.end();
    if (!unknown_tenant) it->second.requests_counter->Increment();
    if (shutdown_) {
      immediate = ServeReply::Rejected(
          Status::Unavailable("shard router is shut down"),
          RejectInfo{0.0, 0, RejectReason::kShutdown});
    } else if (unknown_tenant) {
      immediate = ServeReply::Error(
          Status::NotFound("unknown tenant '" + request.tenant_id + "'"));
    } else {
      TenantEntry& tenant = it->second;
      const bool over_quota =
          tenant.limits.max_in_flight > 0 &&
          tenant.in_flight >= tenant.limits.max_in_flight;
      // One tenant's estimated backlog: its own in-flight count at its
      // own EWMA round-trip — nothing another tenant does moves it.
      const double estimate_ms =
          (static_cast<double>(tenant.in_flight) + 1.0) *
          tenant.ewma_request_ms;
      const bool overloaded =
          !over_quota && request.priority < 1 &&
          tenant.limits.max_queue_delay_ms > 0.0 &&
          estimate_ms > tenant.limits.max_queue_delay_ms;
      if (over_quota || overloaded) {
        ++tenant.shed;
        tenant.shed_counter->Increment();
        if (NoteWindowEvent(&tenant.shed_window_start_us,
                            &tenant.shed_window_count,
                            config_.router.shed_burst_threshold,
                            config_.router.incident_window_seconds)) {
          TraceInstant("serve.router", "tenant_overload",
                       "tenant=" + request.tenant_id + " shed " +
                           std::to_string(
                               config_.router.shed_burst_threshold) +
                           " requests within the incident window");
          incident.reason = "router.tenant_overload";
        }
        if (over_quota) {
          immediate = ServeReply::Rejected(
              Status::Unavailable(
                  "tenant '" + request.tenant_id +
                  "' is over its admission quota (in-flight=" +
                  std::to_string(tenant.in_flight) + " of max " +
                  std::to_string(tenant.limits.max_in_flight) + ")"),
              RejectInfo{RetryAfterMs(tenant.ewma_request_ms),
                         tenant.in_flight, RejectReason::kQuotaExceeded});
        } else {
          immediate = ServeReply::Rejected(
              Status::Unavailable(
                  "tenant '" + request.tenant_id +
                  "' is overloaded (in-flight=" +
                  std::to_string(tenant.in_flight) + ", estimated delay " +
                  std::to_string(estimate_ms) + "ms)"),
              RejectInfo{RetryAfterMs(estimate_ms), tenant.in_flight,
                         RejectReason::kOverloaded});
        }
      } else {
        ++tenant.requests;
        ++tenant.in_flight;
        if (tenant.limits.deadline_budget_ms > 0.0) {
          request.deadline = Deadline::Sooner(
              request.deadline,
              Deadline::After(tenant.limits.deadline_budget_ms / 1000.0));
        }
        shard = shards_[static_cast<size_t>(tenant.shard)].get();
        latency_ms = tenant.latency_ms;
      }
    }
  }
  // An unregistered tenant has no resolved series; counting its request
  // takes the registry lock, but only on this error path.
  if (unknown_tenant) TenantRequestsCounter(request.tenant_id).Increment();
  // Rejections resolve outside the router lock (`done` may take arbitrary
  // locks of its own).
  if (immediate) {
    done(std::move(*immediate));
    return;
  }
  Timer timer;
  std::string tenant_id = request.tenant_id;
  shard->PredictWithCallback(
      std::move(request),
      [this, timer, latency_ms, tenant_id = std::move(tenant_id),
       done = std::move(done)](ServeReply reply) mutable {
        const double elapsed_ms = timer.ElapsedMillis();
        OnComplete(tenant_id, elapsed_ms);
        latency_ms->Observe(elapsed_ms);
        done(std::move(reply));
      });
}

std::future<ServeReply> ShardRouter::PredictAsync(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeReply>>();
  std::future<ServeReply> future = promise->get_future();
  PredictWithCallback(std::move(request), [promise](ServeReply reply) {
    promise->set_value(std::move(reply));
  });
  return future;
}

ServeReply ShardRouter::Predict(ServeRequest request) {
  return PredictAsync(std::move(request)).get();
}

void ShardRouter::OnComplete(const std::string& tenant_id,
                             double elapsed_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) return;
  TenantEntry& tenant = it->second;
  if (tenant.in_flight > 0) --tenant.in_flight;
  const double sample_ms = std::max(kMinRequestMsSample, elapsed_ms);
  tenant.ewma_request_ms =
      tenant.ewma_request_ms <= 0.0
          ? sample_ms
          : (1.0 - kEwmaAlpha) * tenant.ewma_request_ms +
                kEwmaAlpha * sample_ms;
}

Result<TenantStats> ShardRouter::StatsFor(const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + tenant_id + "'");
  }
  const TenantEntry& tenant = it->second;
  TenantStats stats;
  stats.shard = tenant.shard;
  stats.requests = tenant.requests;
  stats.shed = tenant.shed;
  stats.in_flight = tenant.in_flight;
  stats.ewma_request_ms = tenant.ewma_request_ms;
  return stats;
}

std::vector<std::string> ShardRouter::tenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, entry] : tenants_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status ShardRouter::CheckHealth() const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return Status::Unavailable("shard router is shut down");
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ServiceHealth health = shards_[s]->Health();
    // A shard with no snapshot of its own is healthy in router use — every
    // routed request carries a tenant-pinned snapshot.
    if (health.shutdown) {
      return Status::Unavailable("shard " + std::to_string(s) +
                                 " is shut down");
    }
    if (!health.ok && health.has_snapshot) {
      return Status::Unavailable("shard " + std::to_string(s) +
                                 " is unhealthy (depth=" +
                                 std::to_string(health.queue_depth) + ")");
    }
  }
  return Status::Ok();
}

void ShardRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  // Shard shutdown happens outside the router lock: draining a shard's
  // queue resolves completion callbacks that take the router lock.
  for (const std::unique_ptr<PredictionService>& shard : shards_) {
    shard->Shutdown();
  }
}

Result<RolloutReport> RunTenantStagedRollout(ShardRouter& router,
                                             const std::string& tenant_id,
                                             int64_t candidate_id,
                                             const std::vector<Example>& trace,
                                             const RolloutOptions& options) {
  TraceSpan span("serve.rollout");
  span.AddArg("candidate", candidate_id);

  ASSIGN_OR_RETURN(SnapshotRegistry * registry,
                   router.TenantRegistry(tenant_id));
  const std::optional<int64_t> active = registry->active_id();
  if (!active.has_value()) {
    return Status::FailedPrecondition("tenant '" + tenant_id +
                                      "' has no active snapshot to roll "
                                      "out against");
  }
  if (*active == candidate_id) {
    return Status::InvalidArgument("candidate " +
                                   std::to_string(candidate_id) +
                                   " is already the active snapshot");
  }
  ASSIGN_OR_RETURN(const SnapshotRecord candidate_record,
                   registry->Get(candidate_id));
  if (candidate_record.status == SnapshotStatus::kFailed) {
    return Status::FailedPrecondition(
        "candidate " + std::to_string(candidate_id) + " is marked failed");
  }
  ASSIGN_OR_RETURN(const SnapshotRecord active_record, registry->Get(*active));
  // Refuse to compare against drifted bytes: the decision below is only
  // meaningful when both arms serve exactly what was registered.
  RETURN_IF_ERROR(registry->Verify(*active));
  RETURN_IF_ERROR(registry->Verify(candidate_id));

  ASSIGN_OR_RETURN(ModelSnapshot baseline_loaded,
                   LoadSnapshot(active_record.path));
  ASSIGN_OR_RETURN(ModelSnapshot candidate_loaded,
                   LoadSnapshot(candidate_record.path));
  const auto baseline =
      std::make_shared<const ModelSnapshot>(std::move(baseline_loaded));
  const auto candidate =
      std::make_shared<const ModelSnapshot>(std::move(candidate_loaded));
  if (router.TenantSnapshot(tenant_id) == nullptr) {
    RETURN_IF_ERROR(router.SetTenantSnapshot(tenant_id, baseline));
  }

  RolloutOptions window_options = options;
  window_options.window =
      std::min<int>(options.window, static_cast<int>(trace.size()));
  span.AddArg("window", window_options.window);
  RolloutController controller(window_options);

  // Serve the window as this tenant: baseline traffic through the router
  // (the live data plane — quota, shedding and deadline budget all apply),
  // the canary fraction on the candidate directly with a baseline shadow
  // for the digest comparison. Indices are striped across client threads;
  // outcomes land in per-index slots, so the thread count cannot change the
  // decision.
  const int threads =
      std::max(1, std::min(options.client_threads, window_options.window));
  const auto serve_range = [&](int first) {
    for (int i = first; i < window_options.window; i += threads) {
      Timer timer;
      if (controller.RoutesToCanary(i)) {
        MetricsRegistry::Global()
            .counter("serve.rollout.canary_requests")
            .Increment();
        Result<ServedPrediction> served(
            Status::Internal("injected fault at rollout.canary"));
        if (CheckFault(kCanaryFaultSite, {FaultKind::kError}) !=
            FaultKind::kError) {
          served = candidate->Predict(trace[i]);
        }
        bool digest_match = true;
        if (served.ok()) {
          const Result<ServedPrediction> shadow = baseline->Predict(trace[i]);
          digest_match = shadow.ok() && PredictionDigest(*served) ==
                                            PredictionDigest(*shadow);
        }
        controller.RecordOutcome(i, served.ok(), digest_match,
                                 timer.ElapsedMillis());
      } else {
        ServeRequest request;
        request.tenant_id = tenant_id;
        request.example = trace[i];
        const ServeReply reply = router.Predict(std::move(request));
        controller.RecordOutcome(i, reply.ok(), true, timer.ElapsedMillis());
      }
    }
  };
  if (threads == 1) {
    serve_range(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(serve_range, t);
    }
    for (std::thread& worker : workers) worker.join();
  }

  RolloutReport report = controller.Decide();
  span.AddArg("canary_requests", report.canary.requests);
  span.AddArg("canary_errors", report.canary.errors);
  span.AddArg("digest_mismatches", report.digest_mismatches);
  span.AddArg("promoted",
              report.decision == RolloutDecision::kPromote ? 1 : 0);

  if (report.decision == RolloutDecision::kPromote) {
    RETURN_IF_ERROR(registry->Activate(candidate_id));
    // The tenant-scoped RCU hot-swap: this tenant's requests admitted from
    // now on use the candidate; every other tenant's snapshot is untouched.
    RETURN_IF_ERROR(router.SetTenantSnapshot(tenant_id, candidate));
    TraceInstant("serve.rollout", "promote",
                 "tenant=" + tenant_id +
                     " candidate=" + std::to_string(candidate_id) + " " +
                     report.reason);
    MetricsRegistry::Global().counter("serve.rollout.promotions").Increment();
  } else {
    RETURN_IF_ERROR(registry->MarkFailed(candidate_id));
    TraceInstant("serve.rollout", "rollback",
                 "tenant=" + tenant_id +
                     " candidate=" + std::to_string(candidate_id) + " " +
                     report.reason);
    MetricsRegistry::Global().counter("serve.rollout.rollbacks").Increment();
    // The instant above lands in the flight-recorder ring first, so the
    // dumped timeline always contains the rollback that triggered it.
    (void)FlightRecorder::Global().TriggerIncident("rollout.rollback");
  }
  return report;
}

}  // namespace activedp
