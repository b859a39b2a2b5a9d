#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "labelmodel/dawid_skene.h"
#include "labelmodel/generative_model.h"
#include "labelmodel/label_model.h"
#include "labelmodel/majority_vote.h"
#include "labelmodel/metal_completion.h"
#include "labelmodel/metal_model.h"
#include "math/vector_ops.h"
#include "ml/metrics.h"
#include "util/rng.h"

namespace activedp {
namespace {

/// Builds a label matrix from planted per-LF accuracies/coverages on a
/// binary problem and returns it with the true labels.
struct PlantedProblem {
  LabelMatrix matrix{0};
  std::vector<int> labels;
};

PlantedProblem MakePlanted(int n, const std::vector<double>& accuracies,
                           const std::vector<double>& coverages,
                           uint64_t seed, double positive_prior = 0.5) {
  Rng rng(seed);
  PlantedProblem problem;
  problem.matrix = LabelMatrix(n);
  problem.labels.resize(n);
  for (int i = 0; i < n; ++i) {
    problem.labels[i] = rng.Bernoulli(positive_prior) ? 1 : 0;
  }
  for (size_t j = 0; j < accuracies.size(); ++j) {
    std::vector<int8_t> column(n, kAbstain);
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(coverages[j])) continue;
      const bool correct = rng.Bernoulli(accuracies[j]);
      column[i] = static_cast<int8_t>(
          correct ? problem.labels[i] : 1 - problem.labels[i]);
    }
    problem.matrix.AddColumn(std::move(column));
  }
  return problem;
}

class LabelModelParamTest : public testing::TestWithParam<LabelModelType> {};

TEST_P(LabelModelParamTest, BeatsBestSingleLfOnPlantedProblem) {
  const std::vector<double> accuracies = {0.85, 0.75, 0.7, 0.65, 0.8};
  const PlantedProblem problem =
      MakePlanted(3000, accuracies, {1.0, 1.0, 1.0, 1.0, 1.0}, 11);
  auto model = MakeLabelModel(GetParam());
  ASSERT_TRUE(model->Fit(problem.matrix, 2).ok());
  const std::vector<int> predictions = model->PredictAll(problem.matrix).value();
  const double accuracy = Accuracy(predictions, problem.labels);
  // Aggregation should beat the best individual LF (0.85).
  EXPECT_GT(accuracy, 0.86) << model->name();
}

TEST_P(LabelModelParamTest, ProbabilitiesAreDistributions) {
  const PlantedProblem problem =
      MakePlanted(500, {0.8, 0.7, 0.75}, {0.5, 0.5, 0.5}, 13);
  auto model = MakeLabelModel(GetParam());
  ASSERT_TRUE(model->Fit(problem.matrix, 2).ok());
  for (int i = 0; i < 50; ++i) {
    std::vector<int> row(problem.matrix.num_cols());
    for (size_t j = 0; j < row.size(); ++j) {
      row[j] = problem.matrix.At(i, static_cast<int>(j));
    }
    const std::vector<double> p = model->PredictProba(row).value();
    ASSERT_EQ(p.size(), 2u);
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
    EXPECT_GE(p[0], 0.0);
    EXPECT_GE(p[1], 0.0);
  }
}

TEST_P(LabelModelParamTest, AbstainRowsPredictAbstainInPredictAll) {
  LabelMatrix matrix(3);
  matrix.AddColumn({1, -1, 0});
  matrix.AddColumn({-1, -1, 1});
  auto model = MakeLabelModel(GetParam());
  ASSERT_TRUE(model->Fit(matrix, 2).ok());
  const std::vector<int> predictions = model->PredictAll(matrix).value();
  EXPECT_EQ(predictions[1], kAbstain);
  EXPECT_NE(predictions[0], kAbstain);
}

TEST_P(LabelModelParamTest, FitFailsWithoutColumns) {
  LabelMatrix empty(5);
  auto model = MakeLabelModel(GetParam());
  EXPECT_FALSE(model->Fit(empty, 2).ok());
}

TEST_P(LabelModelParamTest, PredictProbaTableRowsBitwiseEqualSparse) {
  // Three LFs put MeTaL-completion on its triplet fallback, eight do not.
  for (const int m : {3, 8}) {
    const PlantedProblem problem =
        MakePlanted(400, std::vector<double>(m, 0.75),
                    std::vector<double>(m, 0.4), 17 + m);
    auto model = MakeLabelModel(GetParam());
    ASSERT_TRUE(model->Fit(problem.matrix, 2).ok());
    ProbaTable table;
    ASSERT_TRUE(model->PredictProbaTable(problem.matrix, 2, &table).ok());
    ASSERT_EQ(table.rows(), 400);
    EXPECT_NE(table.generation(), 0u);
    double into[2];
    for (int i = 0; i < table.rows(); ++i) {
      const ActiveRowView row = problem.matrix.ActiveRow(i);
      const std::vector<double> sparse =
          model->PredictProbaSparse(row, m).value();
      ASSERT_TRUE(model->PredictProbaInto(row, m, 2, into).ok());
      ASSERT_EQ(std::memcmp(into, sparse.data(), sizeof(into)), 0)
          << model->name() << " row " << i;
      ASSERT_EQ(std::memcmp(table.row(i), sparse.data(), sizeof(into)), 0)
          << model->name() << " row " << i;
    }
    // A class-count mismatch fails and leaves the table unsealed.
    EXPECT_FALSE(model->PredictProbaTable(problem.matrix, 3, &table).ok());
    EXPECT_EQ(table.generation(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, LabelModelParamTest,
                         testing::Values(LabelModelType::kMajorityVote,
                                         LabelModelType::kDawidSkene,
                                         LabelModelType::kMetal,
                                         LabelModelType::kMetalCompletion,
                                         LabelModelType::kGenerative));

TEST(MajorityVoteTest, FollowsMajority) {
  LabelMatrix matrix(1);
  matrix.AddColumn({1});
  matrix.AddColumn({1});
  matrix.AddColumn({0});
  MajorityVoteModel model;
  ASSERT_TRUE(model.Fit(matrix, 2).ok());
  EXPECT_EQ(ArgMax(model.PredictProba({1, 1, 0}).value()), 1);
  EXPECT_EQ(ArgMax(model.PredictProba({0, 0, 1}).value()), 0);
}

TEST(DawidSkeneTest, RecoversPlantedConfusions) {
  // LF 0 accurate (0.9), LF 1 adversarial (0.2 -> should be learned as
  // systematically flipped and still exploited).
  const PlantedProblem problem =
      MakePlanted(4000, {0.9, 0.2, 0.8}, {1.0, 1.0, 1.0}, 17);
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  const double accuracy =
      Accuracy(model.PredictAll(problem.matrix).value(), problem.labels);
  EXPECT_GT(accuracy, 0.9);
  // Confusion of LF 0 is strongly diagonal (the better-than-random anchor
  // shades the exact values, so check dominance rather than equality)...
  const Matrix& confusion = model.confusion(0);
  EXPECT_GT(confusion(0, 0), 3.0 * confusion(0, 1));
  EXPECT_GT(confusion(1, 1), 3.0 * confusion(1, 0));
  // ...while the adversarial LF is learned as systematically flipped and
  // still exploited.
  const Matrix& adversarial = model.confusion(1);
  EXPECT_GT(adversarial(0, 1), adversarial(0, 0));
  EXPECT_GT(adversarial(1, 0), adversarial(1, 1));
}

TEST(DawidSkeneTest, MulticlassAggregation) {
  // Three classes, three decent LFs.
  Rng rng(19);
  const int n = 2000;
  LabelMatrix matrix(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = rng.UniformInt(3);
  for (int j = 0; j < 3; ++j) {
    std::vector<int8_t> column(n, kAbstain);
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.7)) continue;
      if (rng.Bernoulli(0.75)) {
        column[i] = static_cast<int8_t>(labels[i]);
      } else {
        column[i] = static_cast<int8_t>(rng.UniformInt(3));
      }
    }
    matrix.AddColumn(std::move(column));
  }
  DawidSkeneModel model;
  ASSERT_TRUE(model.Fit(matrix, 3).ok());
  EXPECT_GT(Accuracy(model.PredictAll(matrix).value(), labels), 0.8);
}

TEST(MetalModelTest, RecoversPlantedAccuracyParameters) {
  const std::vector<double> accuracies = {0.9, 0.65, 0.8};
  const PlantedProblem problem =
      MakePlanted(8000, accuracies, {0.8, 0.8, 0.8}, 23);
  MetalModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  for (size_t j = 0; j < accuracies.size(); ++j) {
    // a_j = 2 * accuracy - 1 under the planted model.
    EXPECT_NEAR(model.accuracy_param(static_cast<int>(j)),
                2.0 * accuracies[j] - 1.0, 0.1)
        << "LF " << j;
  }
}

TEST(MetalModelTest, EstimatesClassBalance) {
  const PlantedProblem problem =
      MakePlanted(5000, {0.85, 0.85, 0.85}, {0.9, 0.9, 0.9}, 29,
                  /*positive_prior=*/0.7);
  MetalModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  EXPECT_NEAR(model.positive_prior(), 0.7, 0.05);
}

TEST(MetalModelTest, RejectsMulticlass) {
  LabelMatrix matrix(2);
  matrix.AddColumn({0, 2});
  MetalModel model;
  EXPECT_FALSE(model.Fit(matrix, 3).ok());
}

TEST(MetalModelTest, SingleLfFallsBackGracefully) {
  const PlantedProblem problem = MakePlanted(500, {0.9}, {0.8}, 31);
  MetalModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  // With one LF the model must still follow its votes.
  EXPECT_GT(Accuracy(model.PredictAll(problem.matrix).value(), problem.labels), 0.85);
}

TEST(MetalModelTest, HigherAccuracyLfGetsMoreWeight) {
  const PlantedProblem problem =
      MakePlanted(6000, {0.95, 0.6, 0.75}, {0.9, 0.9, 0.9}, 37);
  MetalModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  // Conflict between LF0 (strong) and LF1 (weak): follow LF0.
  const std::vector<double> p = model.PredictProba({1, 0, -1}).value();
  EXPECT_GT(p[1], 0.5);
}

TEST(MetalCompletionTest, RecoversPlantedAccuracyParameters) {
  const std::vector<double> accuracies = {0.9, 0.65, 0.8,  0.7, 0.85,
                                          0.75, 0.6, 0.82, 0.68};
  const PlantedProblem problem = MakePlanted(
      8000, accuracies, std::vector<double>(accuracies.size(), 0.8), 41);
  MetalCompletionModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  EXPECT_FALSE(model.used_fallback());
  for (size_t j = 0; j < accuracies.size(); ++j) {
    EXPECT_NEAR(model.accuracy_param(static_cast<int>(j)),
                2.0 * accuracies[j] - 1.0, 0.12)
        << "LF " << j;
  }
}

TEST(MetalCompletionTest, SmallLfSetsUseTripletFallback) {
  const PlantedProblem problem =
      MakePlanted(2000, {0.9, 0.7, 0.8}, {0.8, 0.8, 0.8}, 47);
  MetalCompletionModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  EXPECT_TRUE(model.used_fallback());
  // Accessors and prediction must work through the fallback.
  EXPECT_GT(model.accuracy_param(0), 0.0);
  EXPECT_GT(Accuracy(model.PredictAll(problem.matrix).value(), problem.labels), 0.85);
}

TEST(MetalCompletionTest, RejectsMulticlass) {
  LabelMatrix matrix(2);
  matrix.AddColumn({0, 2});
  MetalCompletionModel model;
  EXPECT_FALSE(model.Fit(matrix, 3).ok());
}

TEST(MetalCompletionTest, AggregatesConditionallyIndependentLfs) {
  const PlantedProblem problem = MakePlanted(
      4000, {0.85, 0.75, 0.7, 0.8, 0.65}, {1.0, 1.0, 1.0, 1.0, 1.0}, 43);
  MetalCompletionModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  EXPECT_GT(Accuracy(model.PredictAll(problem.matrix).value(), problem.labels),
            0.86);
}

TEST(GenerativeModelTest, LearnsHigherThetaForBetterLfs) {
  const std::vector<double> accuracies = {0.9, 0.6, 0.8};
  const PlantedProblem problem =
      MakePlanted(6000, accuracies, {0.9, 0.9, 0.9}, 53);
  GenerativeModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  EXPECT_GT(model.theta(0), model.theta(2));
  EXPECT_GT(model.theta(2), model.theta(1));
  EXPECT_GT(model.theta(1), 0.0);
  // sigmoid(2θ) approximates each LF's accuracy.
  for (size_t j = 0; j < accuracies.size(); ++j) {
    const double implied = 1.0 / (1.0 + std::exp(-2.0 * model.theta(j)));
    EXPECT_NEAR(implied, accuracies[j], 0.1) << "LF " << j;
  }
}

TEST(GenerativeModelTest, LearnsClassBias) {
  const PlantedProblem problem = MakePlanted(
      6000, {0.85, 0.8, 0.8}, {0.9, 0.9, 0.9}, 59, /*positive_prior=*/0.75);
  GenerativeModel model;
  ASSERT_TRUE(model.Fit(problem.matrix, 2).ok());
  EXPECT_GT(model.class_bias(), 0.05);
}

TEST(GenerativeModelTest, RejectsMulticlass) {
  LabelMatrix matrix(2);
  matrix.AddColumn({0, 2});
  GenerativeModel model;
  EXPECT_FALSE(model.Fit(matrix, 3).ok());
}

TEST(LabelModelFactoryTest, ParseNames) {
  EXPECT_EQ(ParseLabelModelType("mv"), LabelModelType::kMajorityVote);
  EXPECT_EQ(ParseLabelModelType("DS"), LabelModelType::kDawidSkene);
  EXPECT_EQ(ParseLabelModelType("metal"), LabelModelType::kMetal);
  EXPECT_EQ(ParseLabelModelType("metal-mc"),
            LabelModelType::kMetalCompletion);
  EXPECT_EQ(ParseLabelModelType("???"), LabelModelType::kMetalCompletion);
}

}  // namespace
}  // namespace activedp
