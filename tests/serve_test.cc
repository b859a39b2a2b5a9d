#include "serve/prediction_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "online/event_log.h"
#include "serve/serve_client.h"
#include "serve/snapshot_export.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace activedp {
namespace {

/// One "serve.predict" latency spike: the first batch sleeps for the
/// service's spike duration (20ms), which holds the dispatcher busy while a
/// test queues requests behind it.
FaultSpec OneLatencySpike() {
  FaultSpec spec;
  spec.kind = FaultKind::kLatencySpike;
  spec.max_fires = 1;
  return spec;
}

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// Observations of `histogram` in buckets that lie entirely above `ms`.
int64_t CountAbove(const MetricsSnapshot::HistogramSample& histogram,
                   double ms) {
  int64_t above = 0;
  for (size_t b = 1; b < histogram.counts.size(); ++b) {
    if (histogram.bounds[b - 1] >= ms) above += histogram.counts[b];
  }
  return above;
}

/// Shared trained pipeline + two snapshots exported at different points of
/// the run (for hot-swap tests). Training once keeps the suite fast.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<DataSplit> split = MakeZooDataset("youtube", 0.1, /*seed=*/7);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    split_ = new DataSplit(std::move(*split));
    context_ = new FrameworkContext(FrameworkContext::Build(*split_));
    ActiveDpOptions options;
    options.seed = 23;
    ActiveDp pipeline(*context_, options);
    for (int t = 0; t < 15; ++t) ASSERT_TRUE(pipeline.Step().ok());
    Result<ModelSnapshot> early = ExportSnapshot(pipeline, *context_);
    ASSERT_TRUE(early.ok()) << early.status().ToString();
    snapshot_a_ =
        new std::shared_ptr<const ModelSnapshot>(
            std::make_shared<const ModelSnapshot>(std::move(*early)));
    for (int t = 0; t < 10; ++t) ASSERT_TRUE(pipeline.Step().ok());
    Result<ModelSnapshot> late = ExportSnapshot(pipeline, *context_);
    ASSERT_TRUE(late.ok()) << late.status().ToString();
    snapshot_b_ =
        new std::shared_ptr<const ModelSnapshot>(
            std::make_shared<const ModelSnapshot>(std::move(*late)));
  }

  static void TearDownTestSuite() {
    delete snapshot_a_;
    delete snapshot_b_;
    delete context_;
    delete split_;
    snapshot_a_ = nullptr;
    snapshot_b_ = nullptr;
    context_ = nullptr;
    split_ = nullptr;
  }

  static const Example& TrainExample(int i) {
    return split_->train.example(i % split_->train.size());
  }

  static ServeRequest Request(int i,
                              Deadline deadline = Deadline::Infinite()) {
    return {.example = TrainExample(i), .deadline = deadline};
  }

  /// Holds the dispatcher in one latency-spiked batch of request 0, queues
  /// requests 1..n behind it, and returns all n + 1 replies in order.
  static std::vector<ServeReply> ServeBehindOneSpike(PredictionService& service,
                                                     int n) {
    FaultScope spike("serve.predict", OneLatencySpike());
    std::vector<std::future<ServeReply>> futures;
    futures.push_back(service.PredictAsync(Request(0)));
    // The queue empties once the dispatcher has taken request 0; it then
    // sleeps in the spike while the rest queue up.
    while (service.queue_depth() > 0) std::this_thread::yield();
    for (int i = 1; i <= n; ++i) {
      futures.push_back(service.PredictAsync(Request(i)));
    }
    std::vector<ServeReply> replies;
    for (auto& future : futures) replies.push_back(future.get());
    return replies;
  }

  static DataSplit* split_;
  static FrameworkContext* context_;
  static std::shared_ptr<const ModelSnapshot>* snapshot_a_;
  static std::shared_ptr<const ModelSnapshot>* snapshot_b_;
};

DataSplit* ServeTest::split_ = nullptr;
FrameworkContext* ServeTest::context_ = nullptr;
std::shared_ptr<const ModelSnapshot>* ServeTest::snapshot_a_ = nullptr;
std::shared_ptr<const ModelSnapshot>* ServeTest::snapshot_b_ = nullptr;

TEST_F(ServeTest, ServedEqualsOfflineAcrossBatchSizes) {
  const int n = std::min(split_->train.size(), 48);
  for (int batch_size : {1, 4, 8, 32}) {
    PredictionServiceOptions options;
    options.max_batch_size = batch_size;
    PredictionService service(options);
    service.LoadSnapshot(*snapshot_a_);
    std::vector<std::future<ServeReply>> futures;
    for (int i = 0; i < n; ++i) {
      futures.push_back(service.PredictAsync(Request(i)));
    }
    for (int i = 0; i < n; ++i) {
      const ServeReply served = futures[i].get();
      ASSERT_TRUE(served.ok()) << served.status.ToString();
      Result<ServedPrediction> offline =
          (*snapshot_a_)->Predict(TrainExample(i));
      ASSERT_TRUE(offline.ok());
      EXPECT_EQ(served.prediction.proba, offline->proba)
          << "batch_size " << batch_size << " row " << i;
      EXPECT_EQ(served.prediction.label, offline->label);
      EXPECT_EQ(static_cast<int>(served.prediction.source),
                static_cast<int>(offline->source));
    }
  }
}

TEST_F(ServeTest, HotSwapUnderLoadServesOneOfTheTwoSnapshots) {
  PredictionServiceOptions options;
  options.max_batch_size = 8;
  PredictionService service(options);
  service.LoadSnapshot(*snapshot_a_);

  // Clients hammer the service from several threads while the main thread
  // swaps snapshots repeatedly. Every response must be bitwise identical to
  // snapshot A's or snapshot B's offline prediction for that instance —
  // never a mix, never garbage. TSan covers the synchronization.
  constexpr int kClients = 4;
  constexpr int kPerClient = 60;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerClient; ++k) {
        const int row = c * kPerClient + k;
        const ServeReply served = service.Predict(Request(row));
        if (!served.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const ServedPrediction& got = served.prediction;
        Result<ServedPrediction> via_a =
            (*snapshot_a_)->Predict(TrainExample(row));
        Result<ServedPrediction> via_b =
            (*snapshot_b_)->Predict(TrainExample(row));
        const bool matches_a = via_a.ok() && got.proba == via_a->proba &&
                               got.label == via_a->label;
        const bool matches_b = via_b.ok() && got.proba == via_b->proba &&
                               got.label == via_b->label;
        if (!matches_a && !matches_b) mismatches.fetch_add(1);
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    service.LoadSnapshot(swap % 2 == 0 ? *snapshot_b_ : *snapshot_a_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServeTest, LoneRequestIsNotHeldForABatch) {
  PredictionService service;  // default options
  service.LoadSnapshot(*snapshot_a_);
  constexpr int kCalls = 21;
  std::vector<double> served_ms;
  std::vector<double> offline_ms;
  for (int i = 0; i < kCalls; ++i) {
    Timer offline;
    ASSERT_TRUE((*snapshot_a_)->Predict(TrainExample(i)).ok());
    offline_ms.push_back(offline.ElapsedMillis());
    Timer served;
    ASSERT_TRUE(service.Predict(Request(i)).ok());
    served_ms.push_back(served.ElapsedMillis());
  }
  // Nothing else is queued, so the idle dispatcher serves each request at
  // once: what remains is the row's own compute (the offline time, which
  // sanitizer builds inflate) and one thread hand-off. A batching timer
  // would add its whole delay to every call.
  EXPECT_LT(Median(served_ms), 1.0 + Median(offline_ms));
}

TEST_F(ServeTest, RequestsQueuedWhileBusyFormOneBatch) {
  constexpr int kQueued = 8;
  PredictionService service;  // max_batch_size 32 >= kQueued
  service.LoadSnapshot(*snapshot_a_);
  MetricsRegistry::Global().ResetAll();
  const std::vector<ServeReply> replies = ServeBehindOneSpike(service, kQueued);
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();

  // Two batches: the spiked one holding request 0, then every request that
  // queued behind it, taken together as soon as the dispatcher was free.
  EXPECT_EQ(metrics.counter_value("serve.batches"), 2);
  const MetricsSnapshot::HistogramSample* sizes =
      metrics.FindHistogram("serve.batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count, 2);
  EXPECT_EQ(sizes->sum, 1.0 + kQueued);

  ASSERT_EQ(static_cast<int>(replies.size()), kQueued + 1);
  for (int i = 0; i <= kQueued; ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].status.ToString();
    Result<ServedPrediction> offline = (*snapshot_a_)->Predict(TrainExample(i));
    ASSERT_TRUE(offline.ok());
    EXPECT_EQ(replies[i].prediction.proba, offline->proba) << "row " << i;
    EXPECT_EQ(replies[i].prediction.label, offline->label) << "row " << i;
    EXPECT_EQ(static_cast<int>(replies[i].prediction.source),
              static_cast<int>(offline->source));
  }
}

TEST_F(ServeTest, StageTimesCoverEveryServedRequest) {
  constexpr int kQueued = 8;
  PredictionService service;
  service.LoadSnapshot(*snapshot_a_);
  MetricsRegistry::Global().ResetAll();
  const std::vector<ServeReply> replies = ServeBehindOneSpike(service, kQueued);
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  for (const ServeReply& reply : replies) ASSERT_TRUE(reply.ok());

  // Every stage saw each served request exactly once.
  for (const char* stage : {"queue", "compute", "reply"}) {
    const MetricsSnapshot::HistogramSample* histogram =
        metrics.FindHistogram("serve.stage_ms", {{"stage", stage}});
    ASSERT_NE(histogram, nullptr) << stage;
    EXPECT_EQ(histogram->count, kQueued + 1) << stage;
  }
  // The queued requests waited out the 20ms spike in the queue, measured
  // per request; the spiked batch's compute stage holds the spike itself.
  EXPECT_EQ(CountAbove(*metrics.FindHistogram("serve.stage_ms",
                                              {{"stage", "queue"}}),
                       10.0),
            kQueued);
  EXPECT_GE(CountAbove(*metrics.FindHistogram("serve.stage_ms",
                                              {{"stage", "compute"}}),
                       10.0),
            1);

  // The family is exactly the three bounded stage series.
  int series = 0;
  for (const MetricsSnapshot::HistogramSample& sample : metrics.histograms) {
    if (sample.name != "serve.stage_ms") continue;
    ++series;
    ASSERT_EQ(sample.labels.size(), 1u);
    EXPECT_EQ(sample.labels[0].first, "stage");
    EXPECT_TRUE(sample.labels[0].second == "queue" ||
                sample.labels[0].second == "compute" ||
                sample.labels[0].second == "reply")
        << sample.labels[0].second;
  }
  EXPECT_EQ(series, 3);
}

TEST_F(ServeTest, QueueFullReturnsUnavailable) {
  PredictionServiceOptions options;
  options.max_queue_depth = 2;
  options.max_batch_size = 64;
  PredictionService service(options);
  service.LoadSnapshot(*snapshot_a_);
  // The first batch holds the dispatcher for the spike; the flood queues up
  // behind it.
  FaultScope spike("serve.predict", OneLatencySpike());
  std::vector<std::future<ServeReply>> futures;
  int rejected = 0;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(service.PredictAsync(Request(i)));
  }
  for (auto& future : futures) {
    const ServeReply reply = future.get();
    if (!reply.ok()) {
      EXPECT_EQ(reply.status.code(), StatusCode::kUnavailable);
      // The rejection is actionable: structured RejectInfo names the
      // reason, the queue depth and a retry-after the client wrapper
      // honours — no string parsing.
      ASSERT_TRUE(reply.reject.has_value()) << reply.status.ToString();
      EXPECT_EQ(reply.reject->reason, RejectReason::kQueueFull);
      EXPECT_EQ(reply.reject->queue_depth, options.max_queue_depth);
      EXPECT_GE(reply.reject->retry_after_ms, 1.0);
      ++rejected;
    }
  }
  // The dispatcher may take a couple of requests before the spike, but
  // while it sleeps most of the flood must hit the depth limit.
  EXPECT_GT(rejected, 0);
}

TEST_F(ServeTest, ExpiredDeadlineFailsFastWithoutPoisoningTheBatch) {
  PredictionService service;
  service.LoadSnapshot(*snapshot_a_);
  std::future<ServeReply> expired =
      service.PredictAsync(Request(0, Deadline::After(0.0)));
  std::future<ServeReply> healthy = service.PredictAsync(Request(1));
  const ServeReply expired_result = expired.get();
  ASSERT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(healthy.get().ok());
}

TEST_F(ServeTest, RequestsWithoutSnapshotAreRejected) {
  PredictionService service;
  const ServeReply result = service.Predict(Request(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, ShutdownDrainsQueuedRequests) {
  PredictionServiceOptions options;
  options.max_batch_size = 4;
  auto service = std::make_unique<PredictionService>(options);
  service->LoadSnapshot(*snapshot_a_);
  // A spiked first batch keeps the rest queued when Shutdown starts.
  FaultScope spike("serve.predict", OneLatencySpike());
  std::vector<std::future<ServeReply>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(service->PredictAsync(Request(i)));
  }
  service->Shutdown();
  for (auto& future : futures) {
    const ServeReply result = future.get();
    EXPECT_TRUE(result.ok()) << result.status.ToString();
  }
  // After shutdown new requests are refused, not queued forever.
  const ServeReply late = service->Predict(Request(0));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
}

TEST_F(ServeTest, AdaptiveShedderRejectsWithStructuredRejectInfo) {
  PredictionServiceOptions options;
  options.max_batch_size = 64;
  // Any warm EWMA exceeds this, so after one served batch every admission
  // sheds deterministically (the EWMA sample is floored above zero).
  options.max_queue_delay_ms = 0.0001;
  PredictionService service(options);
  service.LoadSnapshot(*snapshot_a_);

  // Cold shedder: the first request is admitted and served normally.
  ASSERT_TRUE(service.Predict(Request(0)).ok());

  const ServeReply shed = service.Predict(Request(1));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.status.ToString().find("overloaded"), std::string::npos)
      << shed.status.ToString();
  ASSERT_TRUE(shed.reject.has_value()) << shed.status.ToString();
  EXPECT_EQ(shed.reject->reason, RejectReason::kOverloaded);
  EXPECT_GE(shed.reject->retry_after_ms, 1.0);

  // priority >= 1 bypasses the adaptive shedder (never the hard limits):
  // the same request that just shed is admitted and served.
  ServeRequest urgent = Request(1);
  urgent.priority = 1;
  EXPECT_TRUE(service.Predict(std::move(urgent)).ok());

  // The health probe agrees with admission without consuming capacity.
  EXPECT_EQ(service.CheckHealth().code(), StatusCode::kUnavailable);
  const ServiceHealth health = service.Health();
  EXPECT_FALSE(health.ok);
  EXPECT_GT(health.estimated_queue_delay_ms, options.max_queue_delay_ms);
}

TEST_F(ServeTest, DoomedDeadlinesFailFastAtAdmission) {
  PredictionServiceOptions options;
  options.max_batch_size = 64;
  PredictionService service(options);
  service.LoadSnapshot(*snapshot_a_);
  ASSERT_TRUE(service.Predict(Request(0)).ok());  // warm the EWMA

  // 100ns of budget: already expired at admission, or (with the EWMA warm)
  // provably unable to survive the queue. Both are a fail-fast
  // DeadlineExceeded, never a queued request that times out later.
  const ServeReply doomed =
      service.Predict(Request(1, Deadline::After(1e-7)));
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServeTest, CircuitBreakerDegradesToLastKnownGood) {
  PredictionServiceOptions options;
  options.max_batch_size = 4;
  options.breaker_threshold = 2;
  PredictionService service(options);
  service.LoadSnapshot(*snapshot_a_);
  // Two healthy batches make A the last-known-good.
  ASSERT_TRUE(service.Predict(Request(0)).ok());
  ASSERT_TRUE(service.Predict(Request(1)).ok());
  ASSERT_EQ(service.last_known_good(), *snapshot_a_);

  service.LoadSnapshot(*snapshot_b_);
  {
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.max_fires = options.breaker_threshold;
    FaultScope scope("serve.dispatch", spec);
    for (int i = 0; i < options.breaker_threshold; ++i) {
      const ServeReply failed = service.Predict(Request(i));
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
    }
    EXPECT_EQ(scope.fire_count(), options.breaker_threshold);
  }
  // The breaker tripped on the second consecutive fully-failed batch and
  // swapped back to A; the service recovers without operator action.
  EXPECT_EQ(service.breaker_trips(), 1);
  EXPECT_EQ(service.snapshot(), *snapshot_a_);
  const ServeReply recovered = service.Predict(Request(2));
  ASSERT_TRUE(recovered.ok()) << recovered.status.ToString();
  EXPECT_EQ(service.Health().breaker_trips, 1);
}

TEST_F(ServeTest, PredictWithRetryRecoversFromTransientFaults) {
  PredictionServiceOptions options;
  options.max_batch_size = 4;
  PredictionService service(options);
  service.LoadSnapshot(*snapshot_a_);

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.max_fires = 1;
  FaultScope scope("serve.dispatch", spec);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.seed = 7;
  RetryLog log;
  const ServeReply result = PredictWithRetry(service, Request(0), policy, &log);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(scope.fire_count(), 1);
  EXPECT_EQ(log.count("serve.submit"), 1);
  EXPECT_EQ(log.recovered_count("serve.submit"), 1);
}

TEST_F(ServeTest, PredictWithRetryDoesNotRetryDeterministicFailures) {
  PredictionService service;  // no snapshot: FailedPrecondition every time
  RetryPolicy policy;
  policy.max_attempts = 4;
  RetryLog log;
  const ServeReply result = PredictWithRetry(service, Request(0), policy, &log);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.count("serve.submit"), 0);
}

TEST_F(ServeTest, ServeReplyCarriesStructuredRejectInfo) {
  // The structured replacement for the old "retry-after-ms=<n>" string
  // hint: RejectInfo rides alongside the Status.
  ServeReply reply = ServeReply::Rejected(
      Status::Unavailable("prediction queue is full (depth=8 of max 8)"),
      RejectInfo{12.0, 8, RejectReason::kQueueFull});
  ASSERT_TRUE(reply.reject.has_value());
  EXPECT_EQ(reply.reject->retry_after_ms, 12.0);
  EXPECT_EQ(reply.reject->queue_depth, 8);
  EXPECT_EQ(RejectReasonToString(reply.reject->reason), "queue-full");
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status.code(), StatusCode::kUnavailable);

  EXPECT_EQ(RejectReasonToString(RejectReason::kOverloaded), "overloaded");
  EXPECT_EQ(RejectReasonToString(RejectReason::kQuotaExceeded),
            "quota-exceeded");
  EXPECT_EQ(RejectReasonToString(RejectReason::kShutdown), "shutdown");

  ServeReply ok_reply = ServeReply::Ok(ServedPrediction{});
  EXPECT_TRUE(ok_reply.ok());
  EXPECT_FALSE(ok_reply.reject.has_value());
}

TEST_F(ServeTest, PredictWithRetryClampsBackoffToTheDeadlineBudget) {
  PredictionServiceOptions options;
  options.max_batch_size = 4;
  PredictionService service(options);
  service.LoadSnapshot(*snapshot_a_);

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.max_fires = 1;
  FaultScope scope("serve.dispatch", spec);

  // A schedule that would sleep for seconds, against a budget of ~500ms:
  // the backoff must be clamped to half the remaining budget, leaving the
  // retry enough of the deadline to actually succeed.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 5000.0;
  policy.max_backoff_ms = 5000.0;
  policy.jitter = 0.0;
  policy.sleep = true;
  RetryLog log;
  const Deadline deadline = Deadline::After(0.5);
  const ServeReply result =
      PredictWithRetry(service, Request(0, deadline), policy, &log);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  ASSERT_EQ(log.count("serve.submit"), 1);
  EXPECT_LE(log.events()[0].backoff_ms, 250.0)
      << "backoff not clamped to the deadline budget";
  EXPECT_EQ(log.recovered_count("serve.submit"), 1);
}

TEST_F(ServeTest, RecordFeedbackAppendsDurablyToTheAttachedLog) {
  const std::string dir = testing::TempDir() + "/serve_feedback_log";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto log = EventLog::Open(dir, EventLogOptions{});
  ASSERT_TRUE(log.ok());

  PredictionService service;
  service.LoadSnapshot(*snapshot_a_);
  FeedbackEvent event;
  event.type = FeedbackType::kExactLabel;
  event.row = 5;
  event.label = 1;
  // No log attached yet: the caller must know the feedback was dropped.
  EXPECT_EQ(service.RecordFeedback(event).status().code(),
            StatusCode::kFailedPrecondition);

  service.AttachEventLog(log->get());
  const Result<uint64_t> first = service.RecordFeedback(event);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  event.type = FeedbackType::kLfVote;
  event.lf_id = 3;
  const Result<uint64_t> second = service.RecordFeedback(event);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);

  // The events round-trip through the durable log.
  ASSERT_TRUE((*log)->Rotate().ok());
  const Result<std::vector<FeedbackEvent>> replayed = (*log)->ReplayAll();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 2u);
  EXPECT_EQ((*replayed)[0].type, FeedbackType::kExactLabel);
  EXPECT_EQ((*replayed)[0].row, 5);
  EXPECT_EQ((*replayed)[1].type, FeedbackType::kLfVote);
  EXPECT_EQ((*replayed)[1].lf_id, 3);

  // After shutdown, feedback is refused (not silently dropped).
  service.Shutdown();
  EXPECT_EQ(service.RecordFeedback(event).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(ServeTest, HealthProbeMirrorsAdmission) {
  PredictionService service;
  EXPECT_EQ(service.CheckHealth().code(), StatusCode::kFailedPrecondition);
  ServiceHealth health = service.Health();
  EXPECT_FALSE(health.ok);
  EXPECT_FALSE(health.has_snapshot);

  service.LoadSnapshot(*snapshot_a_);
  EXPECT_TRUE(service.CheckHealth().ok());
  health = service.Health();
  EXPECT_TRUE(health.ok);
  EXPECT_TRUE(health.has_snapshot);
  EXPECT_EQ(health.breaker_trips, 0);

  service.Shutdown();
  EXPECT_EQ(service.CheckHealth().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(service.Health().shutdown);
}

}  // namespace
}  // namespace activedp
