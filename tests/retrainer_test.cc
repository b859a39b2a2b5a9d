// The guarded background retrainer of the LearnGuard loop
// (online/retrainer.h): cycle outcomes, quarantine semantics, the
// strictly-better validation gate, lineage of published candidates, and the
// auto-rollback publish path. The expensive pipeline fixture is built once
// per suite (mirroring serve_test).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "online/event_log.h"
#include "online/learn_scenario.h"
#include "online/retrainer.h"
#include "serve/prediction_service.h"
#include "serve/snapshot_registry.h"
#include "util/fault.h"

namespace activedp {
namespace {

class RetrainerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string dir = testing::TempDir() + "/retrainer_fixture";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    Result<LearnChaosFixture> built = BuildLearnChaosFixture(
        dir, "youtube", 0.1, /*seed=*/7, /*base_steps=*/6, /*trace_size=*/48);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    fixture_ = new LearnChaosFixture(std::move(*built));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  /// A fresh log + registry (base registered and active) + service per test.
  struct Harness {
    std::unique_ptr<EventLog> log;
    std::unique_ptr<SnapshotRegistry> registry;
    std::unique_ptr<PredictionService> service;
    int64_t base_id = -1;
    std::string dir;

    Retrainer::Config Config() const {
      Retrainer::Config config;
      config.log = log.get();
      config.registry = registry.get();
      config.service = service.get();
      config.features = &fixture_->features;
      config.holdout = &fixture_->holdout;
      config.holdout_labels = &fixture_->holdout_labels;
      config.rollout_trace = &fixture_->trace;
      return config;
    }
  };

  Harness MakeHarness(const std::string& name) {
    Harness h;
    h.dir = testing::TempDir() + "/retrainer_" + name;
    std::error_code ec;
    std::filesystem::remove_all(h.dir, ec);
    EventLogOptions log_options;
    log_options.max_records_per_segment = 32;
    Result<std::unique_ptr<EventLog>> log =
        EventLog::Open(h.dir + "/log", log_options);
    EXPECT_TRUE(log.ok());
    h.log = std::move(*log);
    Result<SnapshotRegistry> registry =
        SnapshotRegistry::Open(h.dir + "/registry.manifest");
    EXPECT_TRUE(registry.ok());
    h.registry = std::make_unique<SnapshotRegistry>(std::move(*registry));
    const Result<int64_t> base =
        h.registry->Register(fixture_->snapshot_path, -1, "test base");
    EXPECT_TRUE(base.ok());
    h.base_id = *base;
    EXPECT_TRUE(h.registry->Activate(h.base_id).ok());
    PredictionServiceOptions service_options;
    service_options.max_batch_size = 8;
    h.service = std::make_unique<PredictionService>(service_options);
    h.service->LoadSnapshot(fixture_->snapshot);
    return h;
  }

  RetrainerOptions MakeOptions(const Harness& h) {
    RetrainerOptions options;
    options.min_training_rows = 4;
    options.lr.epochs = 25;
    options.lr.seed = 13;
    options.min_accuracy_gain = -1.0;  // publishable by default in tests
    options.retry.max_attempts = 2;
    options.rollout.canary_fraction = 0.3;
    options.rollout.window =
        std::min<int>(64, static_cast<int>(fixture_->trace.size()));
    options.rollout.min_canary_samples = 4;
    options.rollout.seed = 0x1ea4;
    options.snapshot_dir = h.dir + "/candidates";
    return options;
  }

  void FeedExactLabels(Harness& h, int count) {
    for (int i = 0; i < count; ++i) {
      FeedbackEvent event;
      event.type = FeedbackType::kExactLabel;
      event.row = i;
      event.label = fixture_->corpus_labels[i];
      ASSERT_TRUE(h.log->Append(event).ok());
    }
  }

  static LearnChaosFixture* fixture_;
};

LearnChaosFixture* RetrainerTest::fixture_ = nullptr;

TEST_F(RetrainerTest, EmptyLogIsNoData) {
  Harness h = MakeHarness("nodata");
  Retrainer retrainer(h.Config(), MakeOptions(h));
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, RetrainOutcome::kNoData);
  EXPECT_EQ(report->events_seen, 0);
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
}

TEST_F(RetrainerTest, PublishesWithLineageAndSwapsTheService) {
  Harness h = MakeHarness("publish");
  FeedExactLabels(h, 150);
  Retrainer retrainer(h.Config(), MakeOptions(h));
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->outcome, RetrainOutcome::kPublished) << report->detail;
  EXPECT_EQ(report->events_seen, 150);
  EXPECT_EQ(report->training_rows, 150);
  EXPECT_GT(report->segments_consumed, 0);

  // The candidate is a registered child of the base, now active...
  ASSERT_GE(report->candidate_id, 0);
  const Result<SnapshotRecord> record = h.registry->Get(report->candidate_id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->parent_id, h.base_id);
  EXPECT_EQ(record->status, SnapshotStatus::kActive);
  EXPECT_EQ(h.registry->active_id(), report->candidate_id);
  // ...and the service was hot-swapped onto it.
  EXPECT_NE(h.service->snapshot(), fixture_->snapshot);

  // The consumed segments do not retrain again: the next cycle is no-data.
  const Result<RetrainReport> again = retrainer.RunOnce();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, RetrainOutcome::kNoData);
  EXPECT_EQ(retrainer.stats().published, 1);
}

TEST_F(RetrainerTest, ImpossibleGainGateRejectsButCommitsTheFeedback) {
  Harness h = MakeHarness("rejected");
  FeedExactLabels(h, 100);
  RetrainerOptions options = MakeOptions(h);
  options.min_accuracy_gain = 1.0;  // no candidate can clear +100%
  Retrainer retrainer(h.Config(), options);
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, RetrainOutcome::kRejected);
  // Rejection is a model verdict, not a data problem: nothing quarantined,
  // the service untouched, and the segments consumed (not replayed forever).
  EXPECT_EQ(report->segments_quarantined, 0);
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
  EXPECT_EQ(h.registry->active_id(), h.base_id);
  const Result<RetrainReport> again = retrainer.RunOnce();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, RetrainOutcome::kNoData);
}

TEST_F(RetrainerTest, LfVotesFoldInAndExactLabelsWin) {
  Harness h = MakeHarness("votes");
  // LF votes for rows 0..2, exact labels for rows 1 and 3: the training set
  // is the union (4 rows), with the exact label overriding row 1's vote.
  for (int row : {0, 1, 2}) {
    FeedbackEvent vote;
    vote.type = FeedbackType::kLfVote;
    vote.row = row;
    vote.label = fixture_->corpus_labels[row];
    vote.lf_id = 2;
    ASSERT_TRUE(h.log->Append(vote).ok());
  }
  for (int row : {1, 3}) {
    FeedbackEvent exact;
    exact.type = FeedbackType::kExactLabel;
    exact.row = row;
    exact.label = fixture_->corpus_labels[row];
    ASSERT_TRUE(h.log->Append(exact).ok());
  }
  RetrainerOptions options = MakeOptions(h);
  options.min_accuracy_gain = 1.0;  // force the rejected path; we only care
                                    // about the folded training set
  Retrainer retrainer(h.Config(), options);
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, RetrainOutcome::kRejected);
  EXPECT_EQ(report->events_seen, 5);
  EXPECT_EQ(report->training_rows, 4);
}

TEST_F(RetrainerTest, UnreplayableSegmentIsQuarantinedAloneAndTheRestTrains) {
  Harness h = MakeHarness("quarantine_one");
  FeedExactLabels(h, 64);  // two 32-record segments
  ASSERT_TRUE(h.log->Rotate().ok());
  const std::vector<std::string> segments = h.log->SealedSegments();
  ASSERT_EQ(segments.size(), 2u);
  // Corrupt the second segment on disk: a mid-record bit flip.
  {
    std::ifstream in(segments[1], std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    bytes[bytes.size() / 2] ^= 0x04;
    std::ofstream out(segments[1], std::ios::trunc | std::ios::binary);
    out << bytes;
  }
  Retrainer retrainer(h.Config(), MakeOptions(h));
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The bad segment is sidelined; the 32 good rows still retrain + publish.
  ASSERT_EQ(report->outcome, RetrainOutcome::kPublished) << report->detail;
  EXPECT_EQ(report->segments_quarantined, 1);
  EXPECT_EQ(report->training_rows, 32);
  ASSERT_EQ(retrainer.quarantine().size(), 1u);
  EXPECT_EQ(retrainer.quarantine()[0].segment, segments[1]);
  // A quarantined segment is never retried.
  const Result<RetrainReport> again = retrainer.RunOnce();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, RetrainOutcome::kNoData);
}

TEST_F(RetrainerTest, FitFaultIsAbsorbedAndQuarantined) {
  Harness h = MakeHarness("fit_fault");
  FeedExactLabels(h, 64);
  Retrainer retrainer(h.Config(), MakeOptions(h));
  {
    FaultScope scope("retrain.fit", FaultKind::kError);
    const Result<RetrainReport> report = retrainer.RunOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->outcome, RetrainOutcome::kFitFailed);
    EXPECT_GT(report->segments_quarantined, 0);
    // Both retry attempts hit the armed site before the cycle gave up.
    EXPECT_EQ(scope.fire_count(), 2);
  }
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
  EXPECT_EQ(h.registry->active_id(), h.base_id);
  EXPECT_EQ(retrainer.stats().fit_failures, 1);
}

TEST_F(RetrainerTest, NanFitIsRejectedByTheFiniteGuard) {
  Harness h = MakeHarness("fit_nan");
  FeedExactLabels(h, 64);
  Retrainer retrainer(h.Config(), MakeOptions(h));
  FaultScope scope("retrain.fit", FaultKind::kNan);
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The injected NaN poisons the warm start; LogisticRegression's own
  // finite guard is what rejects the diverged fit.
  EXPECT_EQ(report->outcome, RetrainOutcome::kFitFailed);
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
}

TEST_F(RetrainerTest, ExpiredFitBudgetFailsTheCycleNotTheService) {
  Harness h = MakeHarness("fit_budget");
  FeedExactLabels(h, 64);
  RetrainerOptions options = MakeOptions(h);
  options.fit_budget_seconds = 0.0;  // the watchdog/deadline kill every fit
  Retrainer retrainer(h.Config(), options);
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, RetrainOutcome::kFitFailed);
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
  EXPECT_EQ(retrainer.stats().fit_failures, 1);
}

TEST_F(RetrainerTest, ValidationFaultQuarantinesTheCandidate) {
  Harness h = MakeHarness("validate_fault");
  FeedExactLabels(h, 64);
  Retrainer retrainer(h.Config(), MakeOptions(h));
  FaultScope scope("retrain.validate", FaultKind::kError);
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, RetrainOutcome::kQuarantined);
  EXPECT_GT(report->segments_quarantined, 0);
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
  EXPECT_EQ(h.registry->active_id(), h.base_id);
}

TEST_F(RetrainerTest, CanaryFailureAutoRollsBackAndQuarantines) {
  Harness h = MakeHarness("rollback");
  FeedExactLabels(h, 150);
  Retrainer retrainer(h.Config(), MakeOptions(h));
  {
    // The candidate reaches the staged rollout, whose canary arm fails —
    // the rollout gate must roll back, the retrainer must quarantine.
    FaultScope scope("rollout.canary", FaultKind::kError);
    const Result<RetrainReport> report = retrainer.RunOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->outcome, RetrainOutcome::kRolledBack) << report->detail;
    EXPECT_GT(report->segments_quarantined, 0);
    // The rolled-back candidate is condemned in the registry.
    ASSERT_GE(report->candidate_id, 0);
    const Result<SnapshotRecord> record =
        h.registry->Get(report->candidate_id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->status, SnapshotStatus::kFailed);
  }
  // Serving never left the base snapshot.
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
  EXPECT_EQ(h.registry->active_id(), h.base_id);
  EXPECT_EQ(retrainer.stats().rolled_back, 1);

  EXPECT_TRUE(h.service->Predict({.example = fixture_->trace[0]}).ok());
}

TEST_F(RetrainerTest, PoisonedLogSurfacesAsInfrastructureError) {
  Harness h = MakeHarness("poisoned");
  FeedExactLabels(h, 16);
  {
    FaultSpec spec;
    spec.kind = FaultKind::kTruncateWrite;
    FaultScope scope("eventlog.append", spec);
    FeedbackEvent event;
    event.type = FeedbackType::kExactLabel;
    event.row = 0;
    event.label = fixture_->corpus_labels[0];
    EXPECT_TRUE(h.log->Append(event).ok());  // the simulated crash
  }
  Retrainer retrainer(h.Config(), MakeOptions(h));
  // The loop cannot rotate a poisoned handle: this is not a handled report
  // but an infrastructure error the owner must react to (reopen the log).
  const Result<RetrainReport> report = retrainer.RunOnce();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(h.service->snapshot(), fixture_->snapshot);
}

TEST_F(RetrainerTest, BackgroundLoopPublishesOnItsOwnThread) {
  Harness h = MakeHarness("background");
  FeedExactLabels(h, 150);
  RetrainerOptions options = MakeOptions(h);
  options.poll_interval_seconds = 0.005;
  Retrainer retrainer(h.Config(), options);
  retrainer.Start();
  for (int i = 0; i < 2000 && retrainer.stats().published == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  retrainer.Stop();
  EXPECT_EQ(retrainer.stats().published, 1);
  EXPECT_NE(h.service->snapshot(), fixture_->snapshot);
  EXPECT_EQ(retrainer.stats().loop_errors, 0);
}

}  // namespace
}  // namespace activedp
