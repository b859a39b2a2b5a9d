#ifndef ACTIVEDP_SERVE_SERVE_CONFIG_H_
#define ACTIVEDP_SERVE_SERVE_CONFIG_H_

#include "serve/prediction_service.h"
#include "serve/rollout.h"
#include "util/result.h"

namespace activedp {

/// Per-tenant admission limits. A tenant that exceeds them is shed at the
/// router without touching any other tenant's traffic (DESIGN.md §15).
struct TenantLimits {
  /// Admission quota: requests a tenant may have in flight (queued or
  /// executing) at once. Further requests are rejected with
  /// RejectReason::kQuotaExceeded. <= 0 disables.
  int max_in_flight = 0;
  /// Per-tenant adaptive shedding: when > 0 and the tenant's in-flight count
  /// × its EWMA per-request service time exceeds this, new requests from
  /// that tenant are shed (RejectReason::kOverloaded). Same EWMA discipline
  /// as PredictionServiceOptions::max_queue_delay_ms, but scoped to one
  /// tenant — one tenant's backlog never sheds another's traffic. 0 disables.
  double max_queue_delay_ms = 0.0;
  /// Deadline budget: when > 0, every request from this tenant is clamped to
  /// at most this many milliseconds (Deadline::Sooner of the request's own
  /// deadline and now + budget). 0 disables.
  double deadline_budget_ms = 0.0;
};

/// ShardRouter topology and per-tenant policy defaults.
struct RouterOptions {
  /// PredictionService shards the router owns. Tenants map to shards by
  /// consistent hashing, so raising this moves only ~1/num_shards of
  /// tenants (tested in tests/shard_router_test.cc).
  int num_shards = 2;
  /// Virtual nodes per shard on the hash ring. More nodes → more even
  /// tenant spread and tighter movement bounds under resharding.
  int virtual_nodes = 64;
  /// Limits applied to tenants added without explicit limits.
  TenantLimits default_limits;
  /// Flight-recorder burst trigger: when > 0, this many per-tenant shed
  /// rejections within `incident_window_seconds` fire one
  /// "router.tenant_overload" incident dump. 0 disables.
  int shed_burst_threshold = 0;
  double incident_window_seconds = 1.0;
};

/// Everything the serving stack needs in one validated bundle: the
/// per-shard service options, the staged-rollout gate options, and the
/// router topology / tenant limits. Built via ServeConfigBuilder so shards,
/// router, and benches stop copying fields one by one.
struct ServeConfig {
  PredictionServiceOptions service;
  RolloutOptions rollout;
  RouterOptions router;
};

/// Fluent builder for ServeConfig. Build() validates the whole bundle and
/// returns InvalidArgument naming the first offending field, so a bad
/// config fails loudly at construction instead of misbehaving under load.
class ServeConfigBuilder {
 public:
  ServeConfigBuilder() = default;

  /// Seeds the builder from an existing config (all setters still apply).
  explicit ServeConfigBuilder(ServeConfig base) : config_(std::move(base)) {}

  ServeConfigBuilder& set_service(PredictionServiceOptions options) {
    config_.service = std::move(options);
    return *this;
  }
  ServeConfigBuilder& set_rollout(RolloutOptions options) {
    config_.rollout = std::move(options);
    return *this;
  }
  ServeConfigBuilder& set_router(RouterOptions options) {
    config_.router = std::move(options);
    return *this;
  }

  ServeConfigBuilder& set_max_batch_size(int v) {
    config_.service.max_batch_size = v;
    return *this;
  }
  ServeConfigBuilder& set_max_queue_depth(int v) {
    config_.service.max_queue_depth = v;
    return *this;
  }
  ServeConfigBuilder& set_max_queue_delay_ms(double v) {
    config_.service.max_queue_delay_ms = v;
    return *this;
  }
  ServeConfigBuilder& set_breaker_threshold(int v) {
    config_.service.breaker_threshold = v;
    return *this;
  }

  ServeConfigBuilder& set_canary_fraction(double v) {
    config_.rollout.canary_fraction = v;
    return *this;
  }
  ServeConfigBuilder& set_rollout_window(int v) {
    config_.rollout.window = v;
    return *this;
  }
  ServeConfigBuilder& set_min_canary_samples(int v) {
    config_.rollout.min_canary_samples = v;
    return *this;
  }
  ServeConfigBuilder& set_rollout_seed(uint64_t v) {
    config_.rollout.seed = v;
    return *this;
  }

  ServeConfigBuilder& set_num_shards(int v) {
    config_.router.num_shards = v;
    return *this;
  }
  ServeConfigBuilder& set_virtual_nodes(int v) {
    config_.router.virtual_nodes = v;
    return *this;
  }
  ServeConfigBuilder& set_default_tenant_limits(TenantLimits limits) {
    config_.router.default_limits = limits;
    return *this;
  }
  ServeConfigBuilder& set_router_shed_burst_threshold(int v) {
    config_.router.shed_burst_threshold = v;
    return *this;
  }

  /// Validates and returns the config, or InvalidArgument naming the first
  /// bad field.
  Result<ServeConfig> Build() const;

 private:
  ServeConfig config_;
};

/// Validates an already-assembled config (what Build() calls).
Status ValidateServeConfig(const ServeConfig& config);

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_SERVE_CONFIG_H_
