#include "serve/rollout.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/flight_recorder.h"
#include "serve/snapshot_io.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace activedp {
namespace {

constexpr char kCanaryFaultSite[] = "rollout.canary";

/// splitmix64 finalizer (same mix as util/fault.cc, util/retry.cc).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t PredictionDigest(const ServedPrediction& prediction) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto add_bits = [&hash](uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  add_bits(static_cast<uint64_t>(prediction.label));
  add_bits(static_cast<uint64_t>(prediction.source));
  for (double p : prediction.proba) {
    uint64_t bits;
    std::memcpy(&bits, &p, sizeof(bits));
    add_bits(bits);
  }
  return hash;
}

std::string_view RolloutDecisionToString(RolloutDecision decision) {
  switch (decision) {
    case RolloutDecision::kPromote:
      return "promote";
    case RolloutDecision::kRollback:
      return "rollback";
  }
  return "unknown";
}

std::string RolloutReport::Summary() const {
  std::ostringstream out;
  out << "decision: " << RolloutDecisionToString(decision) << " (" << reason
      << ")\n";
  out << "canary: " << canary.requests << " requests, " << canary.errors
      << " errors (rate " << canary.error_rate() << "), mean latency "
      << canary.mean_latency_ms() << "ms\n";
  out << "baseline: " << baseline.requests << " requests, " << baseline.errors
      << " errors (rate " << baseline.error_rate() << "), mean latency "
      << baseline.mean_latency_ms() << "ms\n";
  out << "digest mismatches: " << digest_mismatches
      << ", latency ratio: " << latency_ratio << "\n";
  return out.str();
}

RolloutController::RolloutController(RolloutOptions options)
    : options_(std::move(options)),
      slots_(static_cast<size_t>(std::max(0, options_.window))) {}

bool RolloutController::RoutesToCanary(int64_t index) const {
  if (options_.canary_fraction <= 0.0) return false;
  if (options_.canary_fraction >= 1.0) return true;
  const uint64_t hash =
      Mix(options_.seed ^
          (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL));
  // Top 53 bits → uniform double in [0, 1).
  const double u = static_cast<double>(hash >> 11) * 0x1.0p-53;
  return u < options_.canary_fraction;
}

void RolloutController::RecordOutcome(int64_t index, bool ok,
                                      bool digest_matches_baseline,
                                      double latency_ms) {
  if (index < 0 || index >= static_cast<int64_t>(slots_.size())) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[static_cast<size_t>(index)];
  slot.recorded = true;
  slot.ok = ok;
  slot.digest_match = digest_matches_baseline;
  slot.latency_ms = latency_ms;
}

bool RolloutController::WindowComplete() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& slot : slots_) {
    if (!slot.recorded) return false;
  }
  return true;
}

RolloutReport RolloutController::Decide() const {
  RolloutReport report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Fold in index order: the report is a pure function of the per-index
    // outcomes, never of the order they were recorded in.
    for (size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      if (!slot.recorded) continue;
      RolloutArmStats& arm = RoutesToCanary(static_cast<int64_t>(i))
                                 ? report.canary
                                 : report.baseline;
      ++arm.requests;
      if (!slot.ok) ++arm.errors;
      arm.total_latency_ms += slot.latency_ms;
      if (RoutesToCanary(static_cast<int64_t>(i)) && !slot.digest_match) {
        ++report.digest_mismatches;
      }
    }
  }
  if (report.baseline.mean_latency_ms() > 0.0 && report.canary.requests > 0) {
    report.latency_ratio =
        report.canary.mean_latency_ms() / report.baseline.mean_latency_ms();
  }

  if (report.canary.requests < options_.min_canary_samples) {
    report.decision = RolloutDecision::kRollback;
    report.reason = "insufficient canary samples (" +
                    std::to_string(report.canary.requests) + " of min " +
                    std::to_string(options_.min_canary_samples) + ")";
    return report;
  }
  const double canary_rate = report.canary.error_rate();
  const double baseline_rate = report.baseline.error_rate();
  if (canary_rate > baseline_rate + options_.max_error_rate_delta) {
    std::ostringstream reason;
    reason << "canary error rate " << canary_rate << " exceeds baseline "
           << baseline_rate << " + delta " << options_.max_error_rate_delta;
    report.decision = RolloutDecision::kRollback;
    report.reason = reason.str();
    return report;
  }
  if (options_.require_digest_match && report.digest_mismatches > 0) {
    report.decision = RolloutDecision::kRollback;
    report.reason = std::to_string(report.digest_mismatches) +
                    " canary responses diverged from the baseline digest";
    return report;
  }
  if (options_.max_latency_ratio > 0.0 &&
      report.latency_ratio > options_.max_latency_ratio) {
    std::ostringstream reason;
    reason << "canary latency ratio " << report.latency_ratio
           << " exceeds max " << options_.max_latency_ratio;
    report.decision = RolloutDecision::kRollback;
    report.reason = reason.str();
    return report;
  }
  report.decision = RolloutDecision::kPromote;
  report.reason = "all gates passed over a window of " +
                  std::to_string(options_.window) + " requests";
  return report;
}

Result<RolloutReport> RunStagedRollout(PredictionService& service,
                                       SnapshotRegistry& registry,
                                       int64_t candidate_id,
                                       const std::vector<Example>& trace,
                                       const RolloutOptions& options) {
  TraceSpan span("serve.rollout");
  span.AddArg("candidate", candidate_id);

  const std::optional<int64_t> active = registry.active_id();
  if (!active.has_value()) {
    return Status::FailedPrecondition(
        "no active snapshot to roll out against");
  }
  if (*active == candidate_id) {
    return Status::InvalidArgument("candidate " +
                                   std::to_string(candidate_id) +
                                   " is already the active snapshot");
  }
  ASSIGN_OR_RETURN(const SnapshotRecord candidate_record,
                   registry.Get(candidate_id));
  if (candidate_record.status == SnapshotStatus::kFailed) {
    return Status::FailedPrecondition(
        "candidate " + std::to_string(candidate_id) + " is marked failed");
  }
  ASSIGN_OR_RETURN(const SnapshotRecord active_record, registry.Get(*active));
  // Refuse to compare against drifted bytes: the decision below is only
  // meaningful when both arms serve exactly what was registered.
  RETURN_IF_ERROR(registry.Verify(*active));
  RETURN_IF_ERROR(registry.Verify(candidate_id));

  ASSIGN_OR_RETURN(ModelSnapshot baseline_loaded,
                   LoadSnapshot(active_record.path));
  ASSIGN_OR_RETURN(ModelSnapshot candidate_loaded,
                   LoadSnapshot(candidate_record.path));
  const auto baseline =
      std::make_shared<const ModelSnapshot>(std::move(baseline_loaded));
  const auto candidate =
      std::make_shared<const ModelSnapshot>(std::move(candidate_loaded));
  if (service.snapshot() == nullptr) service.LoadSnapshot(baseline);

  RolloutOptions window_options = options;
  window_options.window =
      std::min<int>(options.window, static_cast<int>(trace.size()));
  span.AddArg("window", window_options.window);
  RolloutController controller(window_options);

  // Serve the window: baseline traffic through the live service, the canary
  // fraction on the candidate directly, with a baseline shadow prediction
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
        const ServeReply served = service.Predict({.example = trace[i]});
        controller.RecordOutcome(i, served.ok(), true, timer.ElapsedMillis());
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
    RETURN_IF_ERROR(registry.Activate(candidate_id));
    // The RCU hot-swap: batches dispatched from now on use the candidate;
    // in-flight baseline batches drain on the old snapshot.
    service.LoadSnapshot(candidate);
    TraceInstant("serve.rollout", "promote",
                 "candidate=" + std::to_string(candidate_id) + " " +
                     report.reason);
    MetricsRegistry::Global().counter("serve.rollout.promotions").Increment();
  } else {
    RETURN_IF_ERROR(registry.MarkFailed(candidate_id));
    TraceInstant("serve.rollout", "rollback",
                 "candidate=" + std::to_string(candidate_id) + " " +
                     report.reason);
    MetricsRegistry::Global().counter("serve.rollout.rollbacks").Increment();
    // The instant above lands in the flight-recorder ring first, so the
    // dumped timeline always contains the rollback that triggered it.
    (void)FlightRecorder::Global().TriggerIncident("rollout.rollback");
  }
  return report;
}

}  // namespace activedp
