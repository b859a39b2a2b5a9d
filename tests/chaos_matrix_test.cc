// The chaos matrix runner's shared checks (bench/chaos_matrix.cc), fed
// synthetic inputs so no pipeline runs: the fault accounting every cell ends
// with (CheckChaosAccounting) and the incident checker (CheckIncidentDumps)
// under each policy, over real dumps written by FlightRecorder.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "util/fault.h"
#include "util/trace.h"

namespace activedp {
namespace {

const ChaosSite kSite{"test.site", FaultKindBit(FaultKind::kError) |
                                       FaultKindBit(FaultKind::kNan)};

ChaosOutcome Accounted(FaultKind kind, int fires, int evidence) {
  ChaosOutcome outcome;
  outcome.fires = fires;
  outcome.evidence = evidence;
  CheckChaosAccounting(kSite, kind, outcome);
  return outcome;
}

TEST(ChaosAccountingTest, CleanCellsPass) {
  EXPECT_TRUE(Accounted(FaultKind::kError, 3, 1).passed);
  // An unhonored kind that (correctly) never fired needs no evidence.
  EXPECT_TRUE(Accounted(FaultKind::kCorrupt, 0, 0).passed);
}

TEST(ChaosAccountingTest, UnhonoredKindThatFiredFails) {
  const ChaosOutcome outcome = Accounted(FaultKind::kCorrupt, 2, 2);
  EXPECT_FALSE(outcome.passed);
  EXPECT_NE(outcome.failure.find("unhonored kind fired 2 times"),
            std::string::npos)
      << outcome.failure;
}

TEST(ChaosAccountingTest, HonoredKindThatNeverFiredFails) {
  const ChaosOutcome outcome = Accounted(FaultKind::kNan, 0, 0);
  EXPECT_FALSE(outcome.passed);
  EXPECT_NE(outcome.failure.find("never exercised"), std::string::npos)
      << outcome.failure;
}

TEST(ChaosAccountingTest, FiresWithoutEvidenceFail) {
  const ChaosOutcome outcome = Accounted(FaultKind::kError, 4, 0);
  EXPECT_FALSE(outcome.passed);
  EXPECT_NE(outcome.failure.find("no evidence"), std::string::npos)
      << outcome.failure;
}

TEST(ChaosAccountingTest, ScenarioFailuresAreKept) {
  ChaosOutcome outcome;
  outcome.Fail("scenario said so");
  outcome.fires = 1;
  CheckChaosAccounting(kSite, FaultKind::kError, outcome);
  EXPECT_EQ(outcome.failure,
            "scenario said so; injected faults left no evidence");
}

/// Arms the global recorder on a fresh directory for one test.
class IncidentCheckTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/chaos_matrix_incidents_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    FlightRecorder::Global().Enable({.incident_dir = dir_});
  }
  void TearDown() override { FlightRecorder::Global().Disable(); }

  /// Emits the instant that explains `reason` (as the trigger sites do),
  /// then dumps.
  std::string Dump(const std::string& reason, const std::string& marker) {
    TraceInstant("test", marker, "");
    const Result<std::string> dump =
        FlightRecorder::Global().TriggerIncident(reason);
    EXPECT_TRUE(dump.ok()) << dump.status().ToString();
    return dump.ok() ? *dump : "";
  }

  std::string dir_;
};

TEST_F(IncidentCheckTest, ExactlyOneWithTheExpectedReasonPasses) {
  Dump("serve.breaker_trip", "circuit_breaker");
  const IncidentCheck check = CheckIncidentDumps(
      dir_, IncidentPolicy::kExactlyOne, "serve.breaker_trip");
  EXPECT_TRUE(check.failures.empty()) << check.failures[0];
  EXPECT_EQ(check.dumps, 1);
  EXPECT_EQ(check.verified.at("serve.breaker_trip"), 1);
}

TEST_F(IncidentCheckTest, ExactlyOneRejectsAWrongReasonOrNoDump) {
  EXPECT_FALSE(
      CheckIncidentDumps(dir_, IncidentPolicy::kExactlyOne, "rollout.rollback")
          .failures.empty());
  Dump("serve.breaker_trip", "circuit_breaker");
  const IncidentCheck check = CheckIncidentDumps(
      dir_, IncidentPolicy::kExactlyOne, "rollout.rollback");
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_NE(check.failures[0].find("want \"rollout.rollback\""),
            std::string::npos)
      << check.failures[0];
}

TEST_F(IncidentCheckTest, NoneRequiresZeroDumps) {
  EXPECT_TRUE(CheckIncidentDumps(dir_, IncidentPolicy::kNone).failures.empty());
  Dump("rollout.rollback", "rollback");
  const IncidentCheck check = CheckIncidentDumps(dir_, IncidentPolicy::kNone);
  EXPECT_EQ(check.dumps, 1);
  EXPECT_FALSE(check.failures.empty());
}

TEST_F(IncidentCheckTest, AnyAcceptsEveryDumpThatVerifies) {
  Dump("retrain.quarantine", "retrain.quarantine");
  Dump("rollout.rollback", "rollback");
  const IncidentCheck check = CheckIncidentDumps(dir_, IncidentPolicy::kAny);
  EXPECT_TRUE(check.failures.empty()) << check.failures[0];
  EXPECT_EQ(check.dumps, 2);
  EXPECT_EQ(check.verified.at("retrain.quarantine"), 1);
  EXPECT_EQ(check.verified.at("rollout.rollback"), 1);
}

TEST_F(IncidentCheckTest, AnyRejectsADumpThatDoesNotVerify) {
  const std::string dump = Dump("retrain.quarantine", "retrain.quarantine");
  {
    std::ofstream timeline(dump + "/timeline.jsonl", std::ios::app);
    timeline << "tampered\n";
  }
  const IncidentCheck check = CheckIncidentDumps(dir_, IncidentPolicy::kAny);
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_NE(check.failures[0].find("did not verify"), std::string::npos)
      << check.failures[0];
  EXPECT_TRUE(check.verified.empty());
}

TEST_F(IncidentCheckTest, ADumpWithoutItsTriggeringInstantFails) {
  // No "test.unexplained" instant precedes this dump.
  ASSERT_TRUE(
      FlightRecorder::Global().TriggerIncident("test.unexplained").ok());
  const IncidentCheck check = CheckIncidentDumps(dir_, IncidentPolicy::kAny);
  ASSERT_EQ(check.failures.size(), 1u);
  EXPECT_NE(check.failures[0].find("lacks the triggering instant"),
            std::string::npos)
      << check.failures[0];
}

}  // namespace
}  // namespace activedp
