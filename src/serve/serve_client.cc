#include "serve/serve_client.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "serve/shard_router.h"

namespace activedp {
namespace {

constexpr char kSubmitSite[] = "serve.submit";

bool RetryableAtSubmit(const Status& status) {
  // Unavailable = shed / full queue / quota / mid-swap hiccup: the service
  // told us to come back. Internal = a failed batch (injected dispatch
  // fault or a bad candidate snapshot): the breaker may have already
  // degraded to the last-known-good, so a retry can land on a healthy
  // snapshot.
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kInternal;
}

/// The retry core both front-ends share: `submit` is one blocking
/// submission through whichever entry point (service or router).
ServeReply PredictWithRetryImpl(
    const std::function<ServeReply(const ServeRequest&)>& submit,
    const ServeRequest& request, const RetryPolicy& policy, RetryLog* log) {
  const Deadline deadline = request.deadline;
  const int attempts = std::max(1, policy.max_attempts);
  const int64_t invocation = log != nullptr ? log->NextInvocation() : 0;
  ServeReply last =
      ServeReply::Error(Status::Internal("prediction was never attempted"));
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last = submit(request);
    if (last.ok()) {
      if (log != nullptr && attempt > 1) log->MarkRecovered(invocation);
      return last;
    }
    if (!RetryableAtSubmit(last.status)) return last;
    if (attempt == attempts || deadline.expired()) break;

    const int retry = attempt;  // 1-based retry index within this invocation
    double backoff_ms = RetryBackoffMs(policy, kSubmitSite, retry - 1, retry);
    // The service knows its own backlog better than our schedule does:
    // honour whichever wait is longer — but never wait past the request's
    // own deadline: a hint from a deep backlog can exceed the remaining
    // budget, and sleeping through it would guarantee the retry expires.
    if (last.reject.has_value() && last.reject->retry_after_ms > 0.0) {
      backoff_ms = std::max(backoff_ms, last.reject->retry_after_ms);
    }
    if (!deadline.is_infinite()) {
      // Clamp to half the remaining budget: sleeping the full remainder
      // would wake exactly at expiry, burning the attempt on a deadline
      // check instead of a retry that can still make it.
      backoff_ms = std::min(
          backoff_ms,
          std::max(0.0, deadline.remaining_seconds() * 1000.0 / 2.0));
    }
    if (log != nullptr) {
      log->Record(RetryEvent{kSubmitSite, retry, backoff_ms,
                             last.status.ToString(), false, invocation});
    }
    if (policy.sleep && backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }
  return last;
}

}  // namespace

ServeReply PredictWithRetry(PredictionService& service, ServeRequest request,
                            const RetryPolicy& policy, RetryLog* log) {
  return PredictWithRetryImpl(
      [&service](const ServeRequest& r) {
        ServeRequest copy = r;
        return service.Predict(std::move(copy));
      },
      request, policy, log);
}

ServeReply PredictWithRetry(ShardRouter& router, ServeRequest request,
                            const RetryPolicy& policy, RetryLog* log) {
  return PredictWithRetryImpl(
      [&router](const ServeRequest& r) {
        ServeRequest copy = r;
        return router.Predict(std::move(copy));
      },
      request, policy, log);
}

}  // namespace activedp
