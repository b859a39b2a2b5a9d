#include "serve/serve_config.h"

#include <cmath>
#include <sstream>

namespace activedp {

namespace {

Status BadField(const char* field, const std::string& why) {
  std::ostringstream os;
  os << "ServeConfig: " << field << " " << why;
  return Status::InvalidArgument(os.str());
}

bool NonNegativeFinite(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

Status ValidateServeConfig(const ServeConfig& config) {
  const PredictionServiceOptions& s = config.service;
  if (s.max_batch_size < 1) {
    return BadField("service.max_batch_size", "must be >= 1");
  }
  if (s.max_queue_depth < 1) {
    return BadField("service.max_queue_depth", "must be >= 1");
  }
  if (!NonNegativeFinite(s.max_queue_delay_ms)) {
    return BadField("service.max_queue_delay_ms", "must be finite and >= 0");
  }
  if (!NonNegativeFinite(s.incident_window_seconds)) {
    return BadField("service.incident_window_seconds",
                    "must be finite and >= 0");
  }

  const RolloutOptions& r = config.rollout;
  if (!(r.canary_fraction >= 0.0 && r.canary_fraction <= 1.0)) {
    return BadField("rollout.canary_fraction", "must be in [0, 1]");
  }
  if (r.window < 1) {
    return BadField("rollout.window", "must be >= 1");
  }
  if (r.min_canary_samples < 0) {
    return BadField("rollout.min_canary_samples", "must be >= 0");
  }
  if (r.min_canary_samples > r.window) {
    return BadField("rollout.min_canary_samples", "must be <= rollout.window");
  }
  if (!NonNegativeFinite(r.max_error_rate_delta)) {
    return BadField("rollout.max_error_rate_delta",
                    "must be finite and >= 0");
  }
  if (!NonNegativeFinite(r.max_latency_ratio)) {
    return BadField("rollout.max_latency_ratio", "must be finite and >= 0");
  }
  if (r.client_threads < 1) {
    return BadField("rollout.client_threads", "must be >= 1");
  }

  const RouterOptions& t = config.router;
  if (t.num_shards < 1) {
    return BadField("router.num_shards", "must be >= 1");
  }
  if (t.virtual_nodes < 1) {
    return BadField("router.virtual_nodes", "must be >= 1");
  }
  if (t.default_limits.max_in_flight < 0) {
    return BadField("router.default_limits.max_in_flight", "must be >= 0");
  }
  if (!NonNegativeFinite(t.default_limits.max_queue_delay_ms)) {
    return BadField("router.default_limits.max_queue_delay_ms",
                    "must be finite and >= 0");
  }
  if (!NonNegativeFinite(t.default_limits.deadline_budget_ms)) {
    return BadField("router.default_limits.deadline_budget_ms",
                    "must be finite and >= 0");
  }
  if (t.shed_burst_threshold < 0) {
    return BadField("router.shed_burst_threshold", "must be >= 0");
  }
  if (!NonNegativeFinite(t.incident_window_seconds)) {
    return BadField("router.incident_window_seconds",
                    "must be finite and >= 0");
  }
  return Status::Ok();
}

Result<ServeConfig> ServeConfigBuilder::Build() const {
  RETURN_IF_ERROR(ValidateServeConfig(config_));
  return config_;
}

}  // namespace activedp
