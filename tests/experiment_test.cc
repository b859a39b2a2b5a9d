#include "core/experiment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "data/dataset_zoo.h"

namespace activedp {
namespace {

TEST(EndModelTest, TrainsOnNonRejectedRowsOnly) {
  Result<DataSplit> split = MakeZooDataset("occupancy", 0.04, 31);
  ASSERT_TRUE(split.ok());
  FrameworkContext context = FrameworkContext::Build(*split);
  // Label half the rows with ground truth, reject the rest.
  std::vector<std::vector<double>> soft(split->train.size());
  for (int i = 0; i < split->train.size(); i += 2) {
    soft[i] = {0.0, 0.0};
    soft[i][split->train.example(i).label] = 1.0;
  }
  Result<LogisticRegression> model =
      TrainEndModel(context.train_features, soft, 2, context.feature_dim,
                    EndModelOptions{});
  ASSERT_TRUE(model.ok());
  EXPECT_GT(EvaluateAccuracy(*model, context.test_features,
                             context.test_labels),
            0.9);
}

TEST(EndModelTest, FailsWithNoLabels) {
  Result<DataSplit> split = MakeZooDataset("occupancy", 0.04, 31);
  ASSERT_TRUE(split.ok());
  FrameworkContext context = FrameworkContext::Build(*split);
  const std::vector<std::vector<double>> empty(split->train.size());
  EXPECT_FALSE(TrainEndModel(context.train_features, empty, 2,
                             context.feature_dim, EndModelOptions{})
                   .ok());
}

TEST(MeasureLabelQualityTest, CountsCorrectAndCovered) {
  DatasetMeta meta;
  meta.num_classes = 2;
  std::vector<Example> examples(4);
  examples[0].label = 0;
  examples[1].label = 1;
  examples[2].label = 0;
  examples[3].label = 1;
  const Dataset train(meta, std::move(examples));
  const std::vector<std::vector<double>> soft = {
      {0.9, 0.1}, {0.2, 0.8}, {}, {0.9, 0.1}};
  const LabelQuality quality = MeasureLabelQuality(soft, train);
  EXPECT_DOUBLE_EQ(quality.coverage, 0.75);
  EXPECT_NEAR(quality.accuracy, 2.0 / 3.0, 1e-12);
}

TEST(ProtocolTest, ChecksPointsEveryEvalEvery) {
  Result<DataSplit> split = MakeZooDataset("youtube", 0.3, 17);
  ASSERT_TRUE(split.ok());
  FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions adp;
  adp.seed = 3;
  std::unique_ptr<InteractiveFramework> framework =
      MakeFramework(FrameworkType::kUs, context, adp);
  ProtocolOptions protocol;
  protocol.iterations = 30;
  protocol.eval_every = 10;
  const RunResult result = RunProtocol(*framework, context, protocol);
  EXPECT_EQ(result.budgets, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(result.test_accuracy.size(), 3u);
  EXPECT_EQ(result.label_accuracy.size(), 3u);
  for (double accuracy : result.test_accuracy) {
    EXPECT_GE(accuracy, 0.0);
    EXPECT_LE(accuracy, 1.0);
  }
  EXPECT_NEAR(result.average_test_accuracy,
              (result.test_accuracy[0] + result.test_accuracy[1] +
               result.test_accuracy[2]) /
                  3.0,
              1e-12);
}

TEST(ProtocolTest, UncertaintyLabelAccuracyIsOne) {
  Result<DataSplit> split = MakeZooDataset("youtube", 0.3, 19);
  ASSERT_TRUE(split.ok());
  FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions adp;
  adp.seed = 5;
  std::unique_ptr<InteractiveFramework> framework =
      MakeFramework(FrameworkType::kUs, context, adp);
  ProtocolOptions protocol;
  protocol.iterations = 20;
  const RunResult result = RunProtocol(*framework, context, protocol);
  for (double accuracy : result.label_accuracy) {
    EXPECT_DOUBLE_EQ(accuracy, 1.0);
  }
}

TEST(RunExperimentTest, AveragesSeedsAndIsDeterministic) {
  ExperimentSpec spec;
  spec.dataset = "youtube";
  spec.framework = FrameworkType::kActiveDp;
  spec.protocol.iterations = 20;
  spec.protocol.eval_every = 10;
  spec.data_scale = 0.2;
  spec.num_seeds = 2;
  spec.base_seed = 7;
  Result<RunResult> a = RunExperiment(spec);
  Result<RunResult> b = RunExperiment(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->test_accuracy.size(), b->test_accuracy.size());
  for (size_t i = 0; i < a->test_accuracy.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->test_accuracy[i], b->test_accuracy[i]);
  }
}

TEST(ProtocolTest, EarlyExhaustionTruncatesCurve) {
  // IWS's candidate pool on a small tabular dataset is smaller than the
  // budget; the protocol must stop cleanly with a shorter curve (the
  // regression behind the figure-3 harness padding).
  Result<DataSplit> split = MakeZooDataset("occupancy", 0.05, 23);
  ASSERT_TRUE(split.ok());
  FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions adp;
  adp.seed = 3;
  std::unique_ptr<InteractiveFramework> framework =
      MakeFramework(FrameworkType::kIws, context, adp);
  ProtocolOptions protocol;
  protocol.iterations = 500;
  protocol.eval_every = 10;
  const RunResult result = RunProtocol(*framework, context, protocol);
  EXPECT_LT(result.budgets.size(), 50u);
  EXPECT_FALSE(result.budgets.empty());
  EXPECT_EQ(result.budgets.size(), result.test_accuracy.size());
}

TEST(RunExperimentTest, ParallelSeedsMatchSerial) {
  ExperimentSpec spec;
  spec.dataset = "youtube";
  spec.framework = FrameworkType::kUs;
  spec.protocol.iterations = 20;
  spec.protocol.eval_every = 10;
  spec.data_scale = 0.2;
  spec.num_seeds = 3;
  spec.base_seed = 11;
  Result<RunResult> serial = RunExperiment(spec);
  spec.num_threads = 3;
  Result<RunResult> parallel = RunExperiment(spec);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->test_accuracy.size(), parallel->test_accuracy.size());
  for (size_t i = 0; i < serial->test_accuracy.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial->test_accuracy[i], parallel->test_accuracy[i]);
  }
}

TEST(RunExperimentTest, SeedExceptionStopsClaimsAndIsRethrownAfterJoin) {
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    std::atomic<int> started{0};
    std::atomic<int> running{0};
    std::atomic<bool> thrown{false};
    try {
      ForEachSeed(50, threads, [&](int s) {
        started.fetch_add(1);
        running.fetch_add(1);
        if (s == 2) {
          running.fetch_sub(1);
          thrown.store(true);
          throw std::runtime_error("seed 2 failed");
        }
        if (s > 2) {
          // Later seeds outlast the failure, so a join that did not wait
          // for them would leave `running` above 0.
          while (!thrown.load()) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        running.fetch_sub(1);
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "seed 2 failed");
    }
    EXPECT_EQ(running.load(), 0);
    // Seeds 0-2, plus at most one claimed seed per other thread.
    EXPECT_GE(started.load(), 3);
    EXPECT_LE(started.load(), 2 + threads);
  }
}

TEST(RunExperimentTest, UnknownDatasetFails) {
  ExperimentSpec spec;
  spec.dataset = "not-a-dataset";
  EXPECT_FALSE(RunExperiment(spec).ok());
}

}  // namespace
}  // namespace activedp
