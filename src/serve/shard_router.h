#ifndef ACTIVEDP_SERVE_SHARD_ROUTER_H_
#define ACTIVEDP_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/prediction_service.h"
#include "serve/rollout.h"
#include "serve/serve_config.h"
#include "serve/serve_types.h"
#include "serve/snapshot_registry.h"
#include "util/result.h"

namespace activedp {

class Counter;
class Histogram;

/// Point-in-time view of one tenant's router state (see StatsFor()).
struct TenantStats {
  /// Shard the tenant's traffic routes to.
  int shard = 0;
  /// Requests admitted past the router (including ones later rejected by
  /// the shard itself).
  int64_t requests = 0;
  /// Requests shed at the router (quota + per-tenant overload).
  int64_t shed = 0;
  /// Requests currently between router admission and completion.
  int in_flight = 0;
  /// EWMA of this tenant's request round-trip (admission → completion).
  double ewma_request_ms = 0.0;
};

/// TenantMesh front door (DESIGN.md §15): one router owns N
/// PredictionService shards and a tenant table, and serves every tenant
/// behind the unified ServeRequest/ServeReply API.
///
/// Routing determinism contract: tenant → shard is a pure function of
/// (tenant_id, num_shards, virtual_nodes) — a counter hash of the tenant id
/// against a consistent-hash ring of virtual nodes, the same splitmix64
/// discipline as RolloutController. No request order, thread count, or load
/// level can change where a tenant routes; changing the shard count moves
/// only the tenants whose ring successor changed (bounded key movement,
/// tested in tests/shard_router_test.cc).
///
/// Per-tenant isolation: each tenant carries its own admission quota
/// (max_in_flight), its own EWMA overload shedder (max_queue_delay_ms — the
/// PredictionService shedder discipline, scoped to one tenant), and its own
/// deadline budget. One tenant's backlog sheds *that tenant's* requests
/// with a structured RejectInfo and never touches another tenant's traffic,
/// even on the same shard. Shed bursts past
/// RouterOptions::shed_burst_threshold fire a "router.tenant_overload"
/// flight-recorder incident.
///
/// Snapshots are per tenant: SetTenantSnapshot publishes a tenant's model
/// RCU-style (requests admitted after the swap use it; in-flight requests
/// drain on the snapshot pinned at their admission), and
/// RunTenantStagedRollout promotes/rolls back one tenant against its own
/// SnapshotRegistry without ever swapping another tenant.
///
/// Thread safety: Predict*/StatsFor/TenantSnapshot/CheckHealth are safe
/// from any thread. AddTenant/SetTenantSnapshot/AttachTenantRegistry are
/// control-plane calls — safe under the router lock, but the registry they
/// attach is single-writer (see SnapshotRegistry).
class ShardRouter {
 public:
  /// `config` should come from ServeConfigBuilder::Build(); the constructor
  /// CHECK-validates it as a backstop.
  explicit ShardRouter(ServeConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// The shard `tenant_id` routes to — pure, no tenant table lookup.
  int ShardFor(const std::string& tenant_id) const;

  /// The routing function itself, for stability tests and capacity
  /// planning: same (tenant_id, num_shards, virtual_nodes) → same shard, in
  /// any process, forever.
  static int ShardForKey(const std::string& tenant_id, int num_shards,
                         int virtual_nodes);

  /// Adds a tenant with the config's default limits (or explicit ones).
  /// FailedPrecondition when the tenant is already registered.
  Status AddTenant(const std::string& tenant_id);
  Status AddTenant(const std::string& tenant_id, const TenantLimits& limits);

  /// Publishes `snapshot` as the tenant's active model (RCU: requests
  /// admitted from now on use it). NotFound for unknown tenants.
  Status SetTenantSnapshot(const std::string& tenant_id,
                           std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot a request from `tenant_id` admitted now would use (null
  /// when the tenant is unknown or has no snapshot yet).
  std::shared_ptr<const ModelSnapshot> TenantSnapshot(
      const std::string& tenant_id) const;

  /// Attaches the tenant's snapshot registry (borrowed; must outlive the
  /// router or be detached with nullptr). RunTenantStagedRollout promotes /
  /// rolls back against it.
  Status AttachTenantRegistry(const std::string& tenant_id,
                              SnapshotRegistry* registry);
  /// The attached registry; NotFound for unknown tenants,
  /// FailedPrecondition when none is attached.
  Result<SnapshotRegistry*> TenantRegistry(const std::string& tenant_id) const;

  /// Routes one request to its tenant's shard. The future resolves with the
  /// shard's reply, or immediately with the router's own rejection:
  /// InvalidArgument (empty tenant_id), NotFound (unknown tenant),
  /// Unavailable + RejectInfo (router shut down / tenant over quota /
  /// tenant overloaded). Requests with priority >= 1 bypass the tenant's
  /// adaptive shedder — never its quota. A tenant deadline budget clamps
  /// request.deadline before the shard sees it.
  std::future<ServeReply> PredictAsync(ServeRequest request);

  /// Convenience blocking wrapper around PredictAsync.
  ServeReply Predict(ServeRequest request);

  /// Callback form (see PredictionService::PredictWithCallback); `done` is
  /// never invoked under the router lock.
  void PredictWithCallback(ServeRequest request,
                           std::function<void(ServeReply)> done);

  Result<TenantStats> StatsFor(const std::string& tenant_id) const;
  std::vector<std::string> tenants() const;

  /// Ok when the router would admit requests right now; Unavailable after
  /// shutdown or when any shard reports unhealthy.
  Status CheckHealth() const;

  /// Stops admission and shuts every shard down (their queued requests
  /// still resolve). Idempotent; also run by the destructor.
  void Shutdown();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Direct shard access for tests and benches (e.g. arming an SLO engine).
  PredictionService& shard(int index) { return *shards_[index]; }

  const ServeConfig& config() const { return config_; }

 private:
  struct TenantEntry {
    int shard = 0;
    TenantLimits limits;
    std::shared_ptr<const ModelSnapshot> snapshot;
    SnapshotRegistry* registry = nullptr;  // borrowed
    int in_flight = 0;
    int64_t requests = 0;
    int64_t shed = 0;
    double ewma_request_ms = 0.0;
    // Rolling shed-burst window for the "router.tenant_overload" incident.
    int64_t shed_window_start_us = 0;
    int shed_window_count = 0;
    // The tenant's serve.router.* series, resolved once in AddTenant so the
    // request path never takes the registry lock (instruments are never
    // erased, so the pointers stay valid).
    Counter* requests_counter = nullptr;
    Counter* shed_counter = nullptr;
    Histogram* latency_ms = nullptr;
  };

  /// One consistent-hash ring point: (hash, shard). The ring is immutable
  /// after construction, so ShardFor needs no lock.
  struct RingPoint {
    uint64_t hash = 0;
    int shard = 0;
  };

  static std::vector<RingPoint> BuildRing(int num_shards, int virtual_nodes);
  static int LookupRing(const std::vector<RingPoint>& ring,
                        const std::string& tenant_id);

  /// Called when a routed request completes: updates the tenant's in-flight
  /// count and EWMA under the router lock.
  void OnComplete(const std::string& tenant_id, double elapsed_ms);

  const ServeConfig config_;
  const std::vector<RingPoint> ring_;
  std::vector<std::unique_ptr<PredictionService>> shards_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, TenantEntry> tenants_;
  bool shutdown_ = false;
};

/// Runs one staged rollout for a single tenant, end to end — the
/// RunStagedRollout loop (serve/rollout.h) scoped to that tenant's registry,
/// snapshot and shard:
///
///   1. verifies + loads the tenant registry's active snapshot (baseline)
///      and `candidate_id`;
///   2. serves trace indices 0..window-1 as the tenant — baseline traffic
///      through the router (the live data plane), the canary fraction on
///      the candidate directly with a baseline shadow digest (honouring the
///      "rollout.canary" fault site);
///   3. promote = registry.Activate(candidate) +
///      router.SetTenantSnapshot(tenant, candidate); rollback =
///      registry.MarkFailed(candidate) — the tenant keeps serving its
///      baseline, and no other tenant's snapshot is touched either way.
///
/// Instants land under the same "serve.rollout" category as the
/// single-tenant path (promote / rollback, tagged with the tenant id), and
/// a rollback fires the "rollout.rollback" flight-recorder incident.
Result<RolloutReport> RunTenantStagedRollout(ShardRouter& router,
                                             const std::string& tenant_id,
                                             int64_t candidate_id,
                                             const std::vector<Example>& trace,
                                             const RolloutOptions& options);

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_SHARD_ROUTER_H_
