#ifndef ACTIVEDP_SERVE_SERVE_CLIENT_H_
#define ACTIVEDP_SERVE_SERVE_CLIENT_H_

#include "serve/prediction_service.h"
#include "serve/serve_types.h"
#include "util/retry.h"

namespace activedp {

class ShardRouter;

/// Client-side submit wrapper: calls PredictionService::Predict and retries
/// transient rejections (Unavailable — shed/full-queue — and Internal —
/// failed batch) under the deterministic util/retry backoff, honouring the
/// larger of the computed backoff and the reply's structured
/// RejectInfo::retry_after_ms — clamped to half the request's remaining
/// deadline budget, so a shed request never sleeps its own deadline away
/// before the retry. Never retries deterministic failures
/// (FailedPrecondition, InvalidArgument) or budget signals
/// (DeadlineExceeded), and stops once the request deadline expires,
/// returning the last reply. Backoff sleeps only when `policy.sleep` is
/// set, mirroring Retrier; events land in `log` when provided.
ServeReply PredictWithRetry(PredictionService& service, ServeRequest request,
                            const RetryPolicy& policy,
                            RetryLog* log = nullptr);

/// Same retry discipline, submitting through a ShardRouter — the request's
/// tenant_id picks the shard and snapshot (serve/shard_router.h). Tenant
/// quota rejections (RejectReason::kQuotaExceeded) are retried like any
/// other Unavailable: in-flight requests complete and free quota.
ServeReply PredictWithRetry(ShardRouter& router, ServeRequest request,
                            const RetryPolicy& policy,
                            RetryLog* log = nullptr);

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_SERVE_CLIENT_H_
