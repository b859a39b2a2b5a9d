#ifndef ACTIVEDP_SERVE_SERVE_TYPES_H_
#define ACTIVEDP_SERVE_SERVE_TYPES_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "data/example.h"
#include "serve/model_snapshot.h"
#include "util/deadline.h"
#include "util/result.h"

namespace activedp {

/// Why an admission path rejected a request. Carried in RejectInfo so
/// clients branch on a structured reason instead of parsing status text.
enum class RejectReason {
  kNone = 0,
  /// The service / router is shut down.
  kShutdown,
  /// The shard queue is at max_queue_depth.
  kQueueFull,
  /// The adaptive (EWMA) shedder estimated the backlog cannot drain within
  /// the configured delay budget.
  kOverloaded,
  /// The tenant is at its admission quota (max in-flight requests).
  kQuotaExceeded,
};

std::string_view RejectReasonToString(RejectReason reason);

/// Structured companion of an Unavailable rejection — what the old
/// "retry-after-ms=<n>" string hint carried, plus why. `retry_after_ms` is
/// the estimated time for the backlog to drain (floored at 1ms when the
/// estimate is warm, 0 when the service has no estimate — e.g. shutdown);
/// `queue_depth` is the depth the admission decision saw (shard queue for
/// shard-level rejections, tenant in-flight count for tenant-level ones).
struct RejectInfo {
  double retry_after_ms = 0.0;
  int queue_depth = 0;
  RejectReason reason = RejectReason::kNone;
};

/// One serving request: who is asking (tenant), what to predict, and how
/// long / how urgently. The unified argument of PredictionService and
/// ShardRouter prediction entry points (DESIGN.md §15).
///
/// `tenant_id` is empty for single-tenant use (the PredictionService serves
/// its own LoadSnapshot'd model); the ShardRouter requires it. `priority`
/// >= 1 lets a request bypass *adaptive* shedding (EWMA queue-delay checks)
/// — never hard limits (queue depth, tenant quota) or deadline checks.
struct ServeRequest {
  std::string tenant_id{};
  Example example{};
  Deadline deadline = Deadline::Infinite();
  int priority = 0;
};

/// One serving reply: the status, the prediction when OK, and — on
/// Unavailable rejections — the structured RejectInfo clients back off on.
struct ServeReply {
  Status status;
  /// Meaningful iff status.ok().
  ServedPrediction prediction;
  /// Set on admission rejections (shed / queue full / quota / shutdown).
  std::optional<RejectInfo> reject;

  bool ok() const { return status.ok(); }

  static ServeReply Ok(ServedPrediction prediction) {
    ServeReply reply;
    reply.prediction = std::move(prediction);
    return reply;
  }
  static ServeReply Error(Status status) {
    ServeReply reply;
    reply.status = std::move(status);
    return reply;
  }
  static ServeReply Rejected(Status status, RejectInfo info) {
    ServeReply reply;
    reply.status = std::move(status);
    reply.reject = info;
    return reply;
  }
};

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_SERVE_TYPES_H_
