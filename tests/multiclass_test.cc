// Multiclass support: the paper's eight datasets are binary, but the
// pipeline's components (oracle, label matrix, Dawid–Skene, ConFusion,
// samplers, end model) are written for C classes. These tests run the whole
// loop on a 3-class synthetic text task.

#include <gtest/gtest.h>

#include <set>

#include "core/activedp.h"
#include "core/end_model.h"
#include "core/framework.h"
#include "data/synthetic_tabular.h"
#include "data/synthetic_text.h"
#include "labelmodel/label_model.h"
#include "lf/lf_applier.h"
#include "math/vector_ops.h"
#include "serve/model_snapshot.h"
#include "serve/snapshot_export.h"

namespace activedp {
namespace {

DataSplit ThreeClassSplit(uint64_t seed) {
  SyntheticTextConfig config;
  config.num_examples = 900;
  config.num_classes = 3;
  config.label_noise = 0.02;
  Rng rng(seed);
  const Dataset full = GenerateSyntheticText(config, rng);
  Rng split_rng(seed ^ 0xf0);
  return SplitDataset(full, 0.8, 0.1, split_rng);
}

TEST(MulticlassTest, GeneratorProducesThreeBalancedClasses) {
  const DataSplit split = ThreeClassSplit(3);
  EXPECT_EQ(split.train.meta().num_classes, 3);
  const std::vector<double> balance = split.train.ClassBalance();
  for (double b : balance) EXPECT_NEAR(b, 1.0 / 3.0, 0.08);
}

TEST(MulticlassTest, OracleReturnsLfsForAllClasses) {
  const DataSplit split = ThreeClassSplit(5);
  SimulatedUser user(split.train, {});
  std::set<int> classes_seen;
  for (int q = 0; q < 60; ++q) {
    std::optional<LfCandidate> response = user.CreateLf(q);
    if (!response.has_value()) continue;
    EXPECT_EQ(response->lf->label(), split.train.example(q).label);
    classes_seen.insert(response->lf->label());
  }
  EXPECT_EQ(classes_seen.size(), 3u);
}

TEST(MulticlassTest, FullPipelineWithDawidSkene) {
  const DataSplit split = ThreeClassSplit(7);
  FrameworkContext context = FrameworkContext::Build(split);
  ActiveDpOptions options;
  options.seed = 9;
  // The MeTaL-style models are binary-only; multiclass uses Dawid–Skene.
  options.label_model_type = LabelModelType::kDawidSkene;
  ActiveDp pipeline(context, options);
  for (int t = 0; t < 60; ++t) ASSERT_TRUE(pipeline.Step().ok());
  EXPECT_TRUE(pipeline.has_label_model());

  const std::vector<std::vector<double>> labels =
      pipeline.CurrentTrainingLabels();
  int covered = 0;
  for (const auto& soft : labels) {
    if (soft.empty()) continue;
    ++covered;
    ASSERT_EQ(soft.size(), 3u);
    EXPECT_NEAR(soft[0] + soft[1] + soft[2], 1.0, 1e-9);
  }
  EXPECT_GT(covered, split.train.size() / 4);
  const LabelQuality quality = MeasureLabelQuality(labels, split.train);
  EXPECT_GT(quality.accuracy, 0.55);  // well above the 1/3 chance level

  Result<LogisticRegression> end_model =
      TrainEndModel(context.train_features, labels, 3, context.feature_dim,
                    EndModelOptions{});
  ASSERT_TRUE(end_model.ok());
  EXPECT_GT(EvaluateAccuracy(*end_model, context.test_features,
                             context.test_labels),
            0.5);
}

TEST(MulticlassTest, MetalGracefullyDegradesToMajorityVote) {
  // With the (binary-only) MeTaL label model on 3 classes, every MeTaL fit
  // fails; the degradation cascade swaps in majority-vote aggregation (and
  // records it) rather than crashing or running label-model-free.
  const DataSplit split = ThreeClassSplit(11);
  FrameworkContext context = FrameworkContext::Build(split);
  ActiveDpOptions options;
  options.seed = 13;
  options.label_model_type = LabelModelType::kMetal;
  ActiveDp pipeline(context, options);
  for (int t = 0; t < 40; ++t) ASSERT_TRUE(pipeline.Step().ok());
  EXPECT_TRUE(pipeline.has_label_model());
  EXPECT_TRUE(pipeline.using_fallback_label_model());
  EXPECT_GT(pipeline.recovery().count("label_model"), 0);
  EXPECT_TRUE(pipeline.has_al_model());
  const LabelQuality quality =
      MeasureLabelQuality(pipeline.CurrentTrainingLabels(), split.train);
  EXPECT_GT(quality.accuracy, 0.5);
}

/// A `num_classes`-class split of the synthetic text generator (the
/// config above, smaller) or of the synthetic tabular one.
DataSplit SmallSplit(bool text, int num_classes, uint64_t seed) {
  Rng rng(seed);
  Dataset full;
  if (text) {
    SyntheticTextConfig config;
    config.num_examples = 600;
    config.num_classes = num_classes;
    config.label_noise = 0.02;
    full = GenerateSyntheticText(config, rng);
  } else {
    SyntheticTabularConfig config;
    config.num_examples = 600;
    config.num_classes = num_classes;
    full = GenerateSyntheticTabular(config, rng);
  }
  Rng split_rng(seed ^ 0xf0);
  return SplitDataset(full, 0.8, 0.1, split_rng);
}

TEST(MulticlassTest, ServedEqualsOfflineForEveryFamilyAndClassCount) {
  const std::vector<LabelModelType> families = {
      LabelModelType::kMajorityVote, LabelModelType::kDawidSkene,
      LabelModelType::kMetal, LabelModelType::kMetalCompletion,
      LabelModelType::kGenerative};
  for (const bool text : {true, false}) {
    for (const int k : {2, 3}) {
      const DataSplit split = SmallSplit(text, k, 20 + k);
      const FrameworkContext context = FrameworkContext::Build(split);
      const Dataset& train = split.train;
      for (const LabelModelType family : families) {
        const std::string family_name = MakeLabelModel(family)->name();
        SCOPED_TRACE((text ? "text " : "tabular ") + std::to_string(k) +
                     " classes, " + family_name);
        ActiveDpOptions options;
        options.seed = 5;
        options.label_model_type = family;
        ActiveDp pipeline(context, options);
        for (int t = 0; t < 30; ++t) ASSERT_TRUE(pipeline.Step().ok());
        ASSERT_TRUE(pipeline.has_label_model());
        Result<ModelSnapshot> snapshot = ExportSnapshot(pipeline, context);
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

        // Served == the offline ConFusion aggregation over the pipeline's
        // tables, bitwise, at every batch size.
        const std::vector<std::vector<double>> offline =
            pipeline.CurrentTrainingLabels();
        int covered = 0;
        for (const int batch_size : {1, 7, 32}) {
          for (int begin = 0; begin < train.size(); begin += batch_size) {
            const int end = std::min(train.size(), begin + batch_size);
            const std::vector<Example> batch(train.examples().begin() + begin,
                                             train.examples().begin() + end);
            const std::vector<Result<ServedPrediction>> served =
                snapshot->PredictBatch(batch);
            ASSERT_EQ(served.size(), batch.size());
            for (int i = begin; i < end; ++i) {
              const Result<ServedPrediction>& p = served[i - begin];
              ASSERT_TRUE(p.ok()) << p.status().ToString();
              ASSERT_EQ(p->proba, offline[i]) << "row " << i;
              ASSERT_EQ(p->label,
                        offline[i].empty() ? kAbstain : ArgMax(offline[i]))
                  << "row " << i;
              if (!offline[i].empty()) ++covered;
            }
          }
        }
        EXPECT_GT(covered, 0);

        const bool binary_only = family == LabelModelType::kMetal ||
                                 family == LabelModelType::kMetalCompletion ||
                                 family == LabelModelType::kGenerative;
        if (k == 3 && binary_only) {
          // The pipeline fell back to majority vote and serves that; the
          // family itself, fitted on the same LFs, is refused by Create.
          EXPECT_EQ(snapshot->state().label_model_name, "majority-vote");
          SnapshotState state = snapshot->state();
          std::unique_ptr<LabelModel> model = MakeLabelModel(family);
          ASSERT_TRUE(model->Fit(ApplyLfs(state.lfs, train), 2).ok());
          state.label_model_name = model->name();
          state.label_model_params = *model->SerializeParams();
          const Result<ModelSnapshot> refused =
              ModelSnapshot::Create(std::move(state));
          ASSERT_FALSE(refused.ok());
          EXPECT_NE(refused.status().message().find(family_name),
                    std::string::npos);
        } else {
          EXPECT_EQ(snapshot->state().label_model_name, family_name);
        }
      }
    }
  }
}

}  // namespace
}  // namespace activedp
