// Integration tests of the full ActiveDP pipeline on small synthetic data.

#include "core/activedp.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "core/end_model.h"
#include "core/experiment.h"
#include "data/dataset_zoo.h"
#include "math/vector_ops.h"
#include "util/deadline.h"
#include "util/trace.h"

namespace activedp {
namespace {

class ActiveDpIntegrationTest : public testing::Test {
 protected:
  void SetUp() override {
    Result<DataSplit> split = MakeZooDataset("youtube", 0.4, 101);
    ASSERT_TRUE(split.ok());
    split_ = std::move(*split);
    context_ = FrameworkContext::Build(split_);
  }

  DataSplit split_;
  FrameworkContext context_;
};

TEST_F(ActiveDpIntegrationTest, CollectsLfsAndPseudoLabels) {
  ActiveDpOptions options;
  options.seed = 3;
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 30; ++t) ASSERT_TRUE(pipeline.Step().ok());
  EXPECT_GT(pipeline.lfs().size(), 20u);
  EXPECT_EQ(pipeline.lfs().size(), pipeline.query_indices().size());
  EXPECT_EQ(pipeline.lfs().size(), pipeline.pseudo_labels().size());
  // Pseudo-labels equal each LF's vote on its own query instance.
  for (size_t k = 0; k < pipeline.lfs().size(); ++k) {
    const int q = pipeline.query_indices()[k];
    EXPECT_EQ(pipeline.pseudo_labels()[k],
              pipeline.lfs()[k]->Apply(split_.train.example(q)));
  }
  // Queries are distinct.
  std::set<int> unique(pipeline.query_indices().begin(),
                       pipeline.query_indices().end());
  EXPECT_EQ(unique.size(), pipeline.query_indices().size());
}

TEST_F(ActiveDpIntegrationTest, TrainsBothModels) {
  ActiveDpOptions options;
  options.seed = 5;
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 25; ++t) ASSERT_TRUE(pipeline.Step().ok());
  EXPECT_TRUE(pipeline.has_label_model());
  EXPECT_TRUE(pipeline.has_al_model());
  EXPECT_NE(pipeline.al_model(), nullptr);
  EXPECT_FALSE(pipeline.selected_lfs().empty());
  EXPECT_LE(pipeline.selected_lfs().size(), pipeline.lfs().size());
}

TEST_F(ActiveDpIntegrationTest, TrainingLabelsAreValidSoftLabels) {
  ActiveDpOptions options;
  options.seed = 7;
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 25; ++t) ASSERT_TRUE(pipeline.Step().ok());
  const std::vector<std::vector<double>> labels =
      pipeline.CurrentTrainingLabels();
  ASSERT_EQ(static_cast<int>(labels.size()), split_.train.size());
  int covered = 0;
  for (const auto& soft : labels) {
    if (soft.empty()) continue;
    ++covered;
    ASSERT_EQ(soft.size(), 2u);
    EXPECT_NEAR(soft[0] + soft[1], 1.0, 1e-9);
  }
  EXPECT_GT(covered, split_.train.size() / 4);
  // Threshold was tuned into [0, 1].
  EXPECT_GE(pipeline.last_threshold(), 0.0);
  EXPECT_LE(pipeline.last_threshold(), 1.0);
}

TEST_F(ActiveDpIntegrationTest, GeneratedLabelsBeatChance) {
  ActiveDpOptions options;
  options.seed = 9;
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 40; ++t) ASSERT_TRUE(pipeline.Step().ok());
  const LabelQuality quality = MeasureLabelQuality(
      pipeline.CurrentTrainingLabels(), split_.train);
  EXPECT_GT(quality.accuracy, 0.7);
  EXPECT_GT(quality.coverage, 0.5);
}

TEST_F(ActiveDpIntegrationTest, DeterministicAcrossRuns) {
  ActiveDpOptions options;
  options.seed = 11;
  ActiveDp a(context_, options), b(context_, options);
  for (int t = 0; t < 15; ++t) {
    ASSERT_TRUE(a.Step().ok());
    ASSERT_TRUE(b.Step().ok());
    EXPECT_EQ(a.last_query(), b.last_query());
  }
  ASSERT_EQ(a.lfs().size(), b.lfs().size());
  for (size_t k = 0; k < a.lfs().size(); ++k) {
    EXPECT_EQ(a.lfs()[k]->Key(), b.lfs()[k]->Key());
  }
}

TEST_F(ActiveDpIntegrationTest, AblationSwitchesChangeBehaviour) {
  ActiveDpOptions with;
  with.seed = 13;
  ActiveDpOptions without = with;
  without.use_label_pick = false;
  ActiveDp a(context_, with), b(context_, without);
  for (int t = 0; t < 30; ++t) {
    ASSERT_TRUE(a.Step().ok());
    ASSERT_TRUE(b.Step().ok());
  }
  // Without LabelPick every LF is selected.
  EXPECT_EQ(b.selected_lfs().size(), b.lfs().size());

  ActiveDpOptions dp_only = with;
  dp_only.use_confusion = false;
  ActiveDp c(context_, dp_only);
  for (int t = 0; t < 30; ++t) ASSERT_TRUE(c.Step().ok());
  // DP-only labels cover exactly the rows with at least one selected LF
  // firing; an AL-confident row without LF coverage stays empty.
  const std::vector<std::vector<double>> labels = c.CurrentTrainingLabels();
  int covered = 0;
  for (const auto& soft : labels) covered += !soft.empty();
  EXPECT_GT(covered, 0);
  EXPECT_LT(covered, split_.train.size());
}

TEST_F(ActiveDpIntegrationTest, StepsExhaustAtTrainSize) {
  Result<DataSplit> tiny_split = MakeZooDataset("youtube", 0.05, 3);
  ASSERT_TRUE(tiny_split.ok());
  FrameworkContext tiny = FrameworkContext::Build(*tiny_split);
  ActiveDpOptions options;
  options.seed = 15;
  ActiveDp pipeline(tiny, options);
  int steps = 0;
  while (pipeline.Step().ok()) {
    ++steps;
    ASSERT_LE(steps, tiny_split->train.size());
  }
  EXPECT_EQ(steps, tiny_split->train.size());
}

TEST_F(ActiveDpIntegrationTest, TabularPipelineUsesHighAlpha) {
  Result<DataSplit> split = MakeZooDataset("occupancy", 0.05, 7);
  ASSERT_TRUE(split.ok());
  FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions options;
  options.seed = 17;
  ActiveDp pipeline(context, options);
  for (int t = 0; t < 30; ++t) ASSERT_TRUE(pipeline.Step().ok());
  const LabelQuality quality =
      MeasureLabelQuality(pipeline.CurrentTrainingLabels(), split->train);
  EXPECT_GT(quality.accuracy, 0.8);
}

TEST_F(ActiveDpIntegrationTest, SurvivesUserWhoNeverReturnsLfs) {
  // Failure injection: with an impossible accuracy threshold the simulated
  // user has no candidates, so every interaction is a no-op. The pipeline
  // must keep stepping, produce no labels, and the protocol must report
  // zero accuracy rather than crash.
  ActiveDpOptions options;
  options.seed = 23;
  options.user.accuracy_threshold = 1.01;  // nothing qualifies
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 20; ++t) ASSERT_TRUE(pipeline.Step().ok());
  EXPECT_TRUE(pipeline.lfs().empty());
  EXPECT_FALSE(pipeline.has_label_model());
  EXPECT_FALSE(pipeline.has_al_model());
  const std::vector<std::vector<double>> labels =
      pipeline.CurrentTrainingLabels();
  for (const auto& soft : labels) EXPECT_TRUE(soft.empty());

  ProtocolOptions protocol;
  protocol.iterations = 20;
  ActiveDp fresh(context_, options);
  const RunResult result = RunProtocol(fresh, context_, protocol);
  for (double accuracy : result.test_accuracy) {
    EXPECT_DOUBLE_EQ(accuracy, 0.0);
  }
}

TEST_F(ActiveDpIntegrationTest, HighNoiseStillRuns) {
  // 100% label noise poisons every pseudo-label; the run must stay stable
  // (the models just get worse).
  ActiveDpOptions options;
  options.seed = 29;
  options.user.label_noise = 1.0;
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 30; ++t) ASSERT_TRUE(pipeline.Step().ok());
  const LabelQuality quality =
      MeasureLabelQuality(pipeline.CurrentTrainingLabels(), split_.train);
  EXPECT_GE(quality.accuracy, 0.0);
  EXPECT_LE(quality.accuracy, 1.0);
}

TEST_F(ActiveDpIntegrationTest, EndToEndBeatsChanceOnTest) {
  ActiveDpOptions options;
  options.seed = 19;
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 50; ++t) ASSERT_TRUE(pipeline.Step().ok());
  Result<LogisticRegression> end_model = TrainEndModel(
      context_.train_features, pipeline.CurrentTrainingLabels(),
      context_.num_classes, context_.feature_dim, EndModelOptions{});
  ASSERT_TRUE(end_model.ok());
  EXPECT_GT(EvaluateAccuracy(*end_model, context_.test_features,
                             context_.test_labels),
            0.7);
}

/// Cancels `source` at the first span end `should_cancel` accepts while the
/// sink is installed (DESIGN.md §7's "a budget trip is a decision": the
/// pipeline must return it, not degrade on it).
class CancelOnSpanEnd : public TraceSink {
 public:
  CancelOnSpanEnd(CancellationSource* source,
                  std::function<bool(std::string_view)> should_cancel)
      : source_(source), should_cancel_(std::move(should_cancel)) {
    SetTraceSink(this);
  }
  ~CancelOnSpanEnd() override { SetTraceSink(nullptr); }

  void OnInstant(std::string_view, std::string_view,
                 std::string_view) override {}
  void OnSpanEnd(std::string_view stage, int64_t, int64_t) override {
    if (fired_) ended_after_cancel_.emplace_back(stage);
    if (!fired_ && should_cancel_(stage)) {
      source_->Cancel();
      fired_ = true;
    }
  }
  bool fired() const { return fired_; }
  bool EndedAfterCancel(std::string_view stage) const {
    for (const std::string& s : ended_after_cancel_) {
      if (s == stage) return true;
    }
    return false;
  }

 private:
  CancellationSource* source_;
  std::function<bool(std::string_view)> should_cancel_;
  bool fired_ = false;
  std::vector<std::string> ended_after_cancel_;
};

TEST_F(ActiveDpIntegrationTest, BudgetTripInsideStepIsReturnedNotDegraded) {
  CancellationSource source;
  ActiveDpOptions options;
  options.seed = 3;
  options.policy.limits.cancel = source.token();
  ActiveDp pipeline(context_, options);
  for (int t = 0; t < 12; ++t) ASSERT_TRUE(pipeline.Step().ok());
  ASSERT_TRUE(pipeline.has_al_model());

  // Cancel as soon as the next LF has been applied: both retrains still
  // have to run, and each one's fit must hand the trip back.
  CancelOnSpanEnd sink(&source, [](std::string_view stage) {
    return stage == "lf.apply";
  });
  Status status = Status::Ok();
  for (int t = 0; t < 20 && !sink.fired(); ++t) status = pipeline.Step();
  ASSERT_TRUE(sink.fired());
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_TRUE(pipeline.recovery().empty());
  EXPECT_TRUE(pipeline.retry_log().empty());
  EXPECT_EQ(pipeline.Step().code(), StatusCode::kCancelled);
}

TEST_F(ActiveDpIntegrationTest, LabelPickGuardFitHonorsPipelineBudget) {
  CancellationSource source;
  ActiveDpOptions options;
  options.seed = 3;
  options.policy.limits.cancel = source.token();
  ActiveDp pipeline(context_, options);

  // LabelPick's holdout guard fits run inside the label_pick span; the main
  // fit runs after it. Cancel when the first guard fit of a step ends: the
  // second guard fit must notice, so the main fit never starts.
  bool in_label_pick = true;
  CancelOnSpanEnd sink(&source, [&](std::string_view stage) {
    if (stage == "label_pick") in_label_pick = false;
    if (stage == "activedp.step") in_label_pick = true;
    return stage == "metal.fit" && in_label_pick;
  });
  Status status = Status::Ok();
  for (int t = 0; t < 80 && !sink.fired(); ++t) {
    status = pipeline.Step();
    if (!sink.fired()) {
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }
  ASSERT_TRUE(sink.fired()) << "no step ran a LabelPick guard fit";
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_FALSE(sink.EndedAfterCancel("label_model.fit"));
  EXPECT_TRUE(pipeline.recovery().empty());
}

}  // namespace
}  // namespace activedp
