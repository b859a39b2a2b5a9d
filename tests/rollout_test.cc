#include "serve/rollout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "serve/chaos_scenario.h"
#include "serve/prediction_service.h"
#include "serve/snapshot_registry.h"
#include "util/fault.h"

namespace activedp {
namespace {

RolloutOptions SmallWindow(int window, double fraction, uint64_t seed) {
  RolloutOptions options;
  options.window = window;
  options.canary_fraction = fraction;
  options.min_canary_samples = 1;
  options.seed = seed;
  return options;
}

TEST(RolloutControllerTest, RoutingIsAPureFunctionOfSeedAndIndex) {
  const RolloutController first(SmallWindow(64, 0.3, 17));
  const RolloutController second(SmallWindow(64, 0.3, 17));
  const RolloutController other_seed(SmallWindow(64, 0.3, 18));
  int canaries = 0;
  int seed_differences = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(first.RoutesToCanary(i), second.RoutesToCanary(i)) << i;
    if (first.RoutesToCanary(i)) ++canaries;
    if (first.RoutesToCanary(i) != other_seed.RoutesToCanary(i)) {
      ++seed_differences;
    }
  }
  // Roughly the requested fraction, and a different seed routes differently.
  EXPECT_GT(canaries, 200);
  EXPECT_LT(canaries, 400);
  EXPECT_GT(seed_differences, 0);

  const RolloutController none(SmallWindow(64, 0.0, 17));
  const RolloutController all(SmallWindow(64, 1.0, 17));
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(none.RoutesToCanary(i));
    EXPECT_TRUE(all.RoutesToCanary(i));
  }
}

TEST(RolloutControllerTest, WindowCompletesOnlyWhenEveryIndexIsRecorded) {
  RolloutController controller(SmallWindow(4, 0.5, 1));
  EXPECT_FALSE(controller.WindowComplete());
  controller.RecordOutcome(0, true, true, 0.1);
  controller.RecordOutcome(1, true, true, 0.1);
  controller.RecordOutcome(3, true, true, 0.1);
  EXPECT_FALSE(controller.WindowComplete());
  controller.RecordOutcome(2, true, true, 0.1);
  EXPECT_TRUE(controller.WindowComplete());
}

/// Deterministic synthetic outcome for request `index` — same inputs no
/// matter which thread records them.
struct SyntheticOutcome {
  bool ok;
  bool digest_match;
  double latency_ms;
};

SyntheticOutcome OutcomeFor(int64_t index) {
  return {index % 11 != 0, index % 13 != 0,
          0.25 + 0.05 * static_cast<double>(index % 7)};
}

void ExpectReportsEqual(const RolloutReport& a, const RolloutReport& b) {
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.canary.requests, b.canary.requests);
  EXPECT_EQ(a.canary.errors, b.canary.errors);
  EXPECT_EQ(a.baseline.requests, b.baseline.requests);
  EXPECT_EQ(a.baseline.errors, b.baseline.errors);
  EXPECT_EQ(a.digest_mismatches, b.digest_mismatches);
  // Latency entered slot-by-slot, folded in index order: bitwise equal too.
  EXPECT_EQ(a.canary.total_latency_ms, b.canary.total_latency_ms);
  EXPECT_EQ(a.baseline.total_latency_ms, b.baseline.total_latency_ms);
}

TEST(RolloutControllerTest, DecisionIsIndependentOfRecordingOrderAndThreads) {
  const RolloutOptions options = SmallWindow(240, 0.25, 42);

  RolloutController sequential(options);
  for (int64_t i = 0; i < options.window; ++i) {
    const SyntheticOutcome outcome = OutcomeFor(i);
    sequential.RecordOutcome(i, outcome.ok, outcome.digest_match,
                             outcome.latency_ms);
  }
  ASSERT_TRUE(sequential.WindowComplete());
  const RolloutReport reference = sequential.Decide();

  // Scrambled order, several recording threads, repeated runs: the folded
  // report must be identical every time.
  for (int trial = 0; trial < 3; ++trial) {
    RolloutController scrambled(options);
    std::vector<int64_t> order(options.window);
    for (int64_t i = 0; i < options.window; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(1000 + trial));
    constexpr int kThreads = 8;
    std::vector<std::thread> recorders;
    recorders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      recorders.emplace_back([&, t] {
        for (size_t i = t; i < order.size(); i += kThreads) {
          const SyntheticOutcome outcome = OutcomeFor(order[i]);
          scrambled.RecordOutcome(order[i], outcome.ok, outcome.digest_match,
                                  outcome.latency_ms);
        }
      });
    }
    for (std::thread& recorder : recorders) recorder.join();
    ASSERT_TRUE(scrambled.WindowComplete());
    ExpectReportsEqual(reference, scrambled.Decide());
  }
}

TEST(RolloutControllerTest, InsufficientCanarySamplesRollsBack) {
  RolloutOptions options = SmallWindow(16, 0.0, 3);
  options.min_canary_samples = 4;
  RolloutController controller(options);
  for (int64_t i = 0; i < options.window; ++i) {
    controller.RecordOutcome(i, true, true, 0.1);
  }
  const RolloutReport report = controller.Decide();
  EXPECT_EQ(report.decision, RolloutDecision::kRollback);
  EXPECT_NE(report.reason.find("insufficient canary samples"),
            std::string::npos)
      << report.reason;
}

TEST(RolloutControllerTest, CanaryErrorRateAboveBaselineRollsBack) {
  const RolloutOptions options = SmallWindow(64, 0.5, 9);
  RolloutController healthy(options);
  RolloutController faulty(options);
  for (int64_t i = 0; i < options.window; ++i) {
    const bool canary = healthy.RoutesToCanary(i);
    healthy.RecordOutcome(i, true, true, 0.1);
    faulty.RecordOutcome(i, !canary, true, 0.1);  // every canary call fails
  }
  EXPECT_EQ(healthy.Decide().decision, RolloutDecision::kPromote);
  const RolloutReport report = faulty.Decide();
  EXPECT_EQ(report.decision, RolloutDecision::kRollback);
  EXPECT_GT(report.canary.error_rate(), report.baseline.error_rate());
}

TEST(RolloutControllerTest, DigestMismatchesOnlyDecideWhenRequired) {
  RolloutOptions options = SmallWindow(64, 0.5, 9);
  RolloutController counting(options);
  options.require_digest_match = true;
  RolloutController gating(options);
  for (int64_t i = 0; i < options.window; ++i) {
    const bool canary = counting.RoutesToCanary(i);
    counting.RecordOutcome(i, true, !canary, 0.1);
    gating.RecordOutcome(i, true, !canary, 0.1);
  }
  const RolloutReport informational = counting.Decide();
  EXPECT_EQ(informational.decision, RolloutDecision::kPromote);
  EXPECT_GT(informational.digest_mismatches, 0);
  EXPECT_EQ(gating.Decide().decision, RolloutDecision::kRollback);
}

TEST(RolloutControllerTest, LatencyIsInformationalUnlessARatioIsSet) {
  RolloutOptions options = SmallWindow(64, 0.5, 9);
  RolloutController informational(options);
  options.max_latency_ratio = 1.5;
  RolloutController gated(options);
  for (int64_t i = 0; i < options.window; ++i) {
    const bool canary = informational.RoutesToCanary(i);
    const double latency_ms = canary ? 10.0 : 1.0;
    informational.RecordOutcome(i, true, true, latency_ms);
    gated.RecordOutcome(i, true, true, latency_ms);
  }
  const RolloutReport report = informational.Decide();
  EXPECT_EQ(report.decision, RolloutDecision::kPromote);
  EXPECT_GT(report.latency_ratio, 1.5);
  EXPECT_EQ(gated.Decide().decision, RolloutDecision::kRollback);
}

/// End-to-end staged rollouts against a real trained fixture (two exported
/// snapshots on disk + a request trace). Built once per suite — training is
/// the expensive part.
class StagedRolloutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<ServeChaosFixture> fixture = BuildServeChaosFixture(
        testing::TempDir() + "/rollout_test", "youtube", /*scale=*/0.1,
        /*seed=*/7, /*steps_a=*/12, /*steps_b=*/6, /*trace_size=*/48);
    ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
    fixture_ = new ServeChaosFixture(std::move(*fixture));
  }

  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  /// Fresh registry with A registered+active and B registered as candidate.
  struct Stage {
    SnapshotRegistry registry;
    int64_t id_a = 0;
    int64_t id_b = 0;
  };

  static Stage MakeStage(const std::string& tag) {
    const std::string manifest =
        fixture_->dir + "/rollout_test_" + tag + ".manifest";
    std::remove(manifest.c_str());
    Stage stage{*SnapshotRegistry::Open(manifest)};
    stage.id_a =
        *stage.registry.Register(fixture_->snapshot_a_path, -1, "baseline");
    EXPECT_TRUE(stage.registry.Activate(stage.id_a).ok());
    stage.id_b = *stage.registry.Register(fixture_->snapshot_b_path,
                                          stage.id_a, "candidate");
    return stage;
  }

  static RolloutOptions TraceOptions(int client_threads) {
    RolloutOptions options;
    options.canary_fraction = 0.3;
    options.window = static_cast<int>(fixture_->trace.size());
    options.min_canary_samples = 4;
    options.seed = 0x5eed;
    options.client_threads = client_threads;
    return options;
  }

  static ServeChaosFixture* fixture_;
};

ServeChaosFixture* StagedRolloutTest::fixture_ = nullptr;

TEST_F(StagedRolloutTest, HealthyCandidateIsPromotedAndHotSwappedIn) {
  Stage stage = MakeStage("promote");
  PredictionService service;
  service.LoadSnapshot(fixture_->snapshot_a);

  const Result<RolloutReport> report = RunStagedRollout(
      service, stage.registry, stage.id_b, fixture_->trace, TraceOptions(2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->decision, RolloutDecision::kPromote) << report->Summary();
  EXPECT_EQ(report->canary.errors, 0);
  EXPECT_EQ(report->baseline.errors, 0);
  EXPECT_EQ(stage.registry.active_id(), stage.id_b);
  EXPECT_EQ(stage.registry.Get(stage.id_a)->status, SnapshotStatus::kRetired);

  // The service was hot-swapped to the candidate: it now serves B's bitwise
  // predictions.
  const ServeReply served = service.Predict({.example = fixture_->trace[0]});
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(PredictionDigest(served.prediction), fixture_->digests_b[0]);
}

TEST_F(StagedRolloutTest, FaultyCanaryIsRolledBackAndNeverServed) {
  Stage stage = MakeStage("rollback");
  PredictionService service;
  service.LoadSnapshot(fixture_->snapshot_a);

  FaultScope scope("rollout.canary", FaultKind::kError);
  const Result<RolloutReport> report = RunStagedRollout(
      service, stage.registry, stage.id_b, fixture_->trace, TraceOptions(2));
  EXPECT_GT(scope.fire_count(), 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->decision, RolloutDecision::kRollback) << report->Summary();
  EXPECT_GT(report->canary.errors, 0);
  EXPECT_EQ(stage.registry.active_id(), stage.id_a);
  EXPECT_EQ(stage.registry.Get(stage.id_b)->status, SnapshotStatus::kFailed);

  // The data plane never saw the condemned candidate.
  const ServeReply served = service.Predict({.example = fixture_->trace[0]});
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(PredictionDigest(served.prediction), fixture_->digests_a[0]);
}

TEST_F(StagedRolloutTest, SameTraceAndSeedDecideIdenticallyAcrossThreads) {
  RolloutReport reference;
  for (int pass = 0; pass < 2; ++pass) {
    const int threads[] = {1, 4};
    Stage stage = MakeStage("threads_" + std::to_string(pass));
    PredictionService service;
    service.LoadSnapshot(fixture_->snapshot_a);
    const Result<RolloutReport> report =
        RunStagedRollout(service, stage.registry, stage.id_b, fixture_->trace,
                         TraceOptions(threads[pass]));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (pass == 0) {
      reference = *report;
      continue;
    }
    EXPECT_EQ(report->decision, reference.decision);
    EXPECT_EQ(report->reason, reference.reason);
    EXPECT_EQ(report->canary.requests, reference.canary.requests);
    EXPECT_EQ(report->canary.errors, reference.canary.errors);
    EXPECT_EQ(report->baseline.requests, reference.baseline.requests);
    EXPECT_EQ(report->baseline.errors, reference.baseline.errors);
    EXPECT_EQ(report->digest_mismatches, reference.digest_mismatches);
  }
}

}  // namespace
}  // namespace activedp
