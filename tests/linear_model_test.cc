#include "ml/linear_model.h"

#include <gtest/gtest.h>

#include <cstring>

#include "math/vector_ops.h"
#include "ml/featurizer.h"
#include "util/rng.h"

namespace activedp {
namespace {

SparseVector Dense2(double a, double b) {
  SparseVector v;
  v.PushBack(0, a);
  v.PushBack(1, b);
  return v;
}

/// Linearly separable 2-D blobs.
void MakeBlobs(int n, double sep, Rng& rng, std::vector<SparseVector>* x,
               std::vector<int>* y) {
  for (int i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(0.5) ? 1 : 0;
    const double sign = label == 1 ? 1.0 : -1.0;
    x->push_back(
        Dense2(rng.Normal(sign * sep, 1.0), rng.Normal(sign * sep, 1.0)));
    y->push_back(label);
  }
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  Rng rng(3);
  std::vector<SparseVector> x;
  std::vector<int> y;
  MakeBlobs(300, 2.0, rng, &x, &y);
  Result<LogisticRegression> model = LogisticRegression::FitHard(x, y, 2, 2);
  ASSERT_TRUE(model.ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) correct += model->Predict(x[i]) == y[i];
  EXPECT_GT(correct / static_cast<double>(x.size()), 0.95);
}

TEST(LogisticRegressionTest, ProbabilitiesSumToOne) {
  Rng rng(5);
  std::vector<SparseVector> x;
  std::vector<int> y;
  MakeBlobs(100, 1.0, rng, &x, &y);
  Result<LogisticRegression> model = LogisticRegression::FitHard(x, y, 2, 2);
  ASSERT_TRUE(model.ok());
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> p = model->PredictProba(x[i]);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
    EXPECT_GE(p[0], 0.0);
    EXPECT_GE(p[1], 0.0);
  }
}

TEST(LogisticRegressionTest, SoftLabelTrainingMatchesHardOnOneHot) {
  Rng rng(7);
  std::vector<SparseVector> x;
  std::vector<int> y;
  MakeBlobs(200, 1.5, rng, &x, &y);
  std::vector<std::vector<double>> soft(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    soft[i] = {y[i] == 0 ? 1.0 : 0.0, y[i] == 1 ? 1.0 : 0.0};
  }
  LogisticRegressionOptions options;
  options.seed = 9;
  Result<LogisticRegression> hard =
      LogisticRegression::FitHard(x, y, 2, 2, options);
  Result<LogisticRegression> softm =
      LogisticRegression::Fit(x, soft, 2, 2, options);
  ASSERT_TRUE(hard.ok());
  ASSERT_TRUE(softm.ok());
  // Same data, same seed -> identical predictions.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(hard->Predict(x[i]), softm->Predict(x[i]));
  }
}

TEST(LogisticRegressionTest, UncertainSoftLabelsYieldUncertainModel) {
  // All targets 50/50 -> predictions should stay near 0.5.
  std::vector<SparseVector> x;
  std::vector<std::vector<double>> soft;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    x.push_back(Dense2(rng.Normal(), rng.Normal()));
    soft.push_back({0.5, 0.5});
  }
  Result<LogisticRegression> model = LogisticRegression::Fit(x, soft, 2, 2);
  ASSERT_TRUE(model.ok());
  const std::vector<double> p = model->PredictProba(Dense2(0.3, -0.2));
  EXPECT_NEAR(p[1], 0.5, 0.1);
}

TEST(LogisticRegressionTest, SampleWeightsZeroExcludesExamples) {
  // Two contradictory clusters; zero-weighting one side flips the model.
  std::vector<SparseVector> x = {Dense2(1, 1), Dense2(1.1, 0.9),
                                 Dense2(1, 0.8), Dense2(0.9, 1.2)};
  std::vector<std::vector<double>> y = {
      {0.0, 1.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 0.0}};
  LogisticRegressionOptions options;
  options.epochs = 80;
  Result<LogisticRegression> pos = LogisticRegression::Fit(
      x, y, 2, 2, options, /*sample_weights=*/{1.0, 1.0, 0.0, 0.0});
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos->Predict(Dense2(1, 1)), 1);
  Result<LogisticRegression> neg = LogisticRegression::Fit(
      x, y, 2, 2, options, /*sample_weights=*/{0.0, 0.0, 1.0, 1.0});
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->Predict(Dense2(1, 1)), 0);
}

TEST(LogisticRegressionTest, MulticlassSoftmax) {
  // Three separable clusters on a line.
  Rng rng(13);
  std::vector<SparseVector> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    const int label = rng.UniformInt(3);
    x.push_back(Dense2(rng.Normal(3.0 * label, 0.5), 0.0));
    y.push_back(label);
  }
  Result<LogisticRegression> model = LogisticRegression::FitHard(x, y, 3, 2);
  ASSERT_TRUE(model.ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) correct += model->Predict(x[i]) == y[i];
  EXPECT_GT(correct / static_cast<double>(x.size()), 0.9);
}

TEST(LogisticRegressionTest, PredictProbaIntoBitwiseEqualsSoftmaxOfLogits) {
  Rng rng(21);
  std::vector<SparseVector> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    const int label = rng.UniformInt(3);
    x.push_back(Dense2(rng.Normal(2.0 * label, 0.7), rng.Normal(0.0, 1.0)));
    y.push_back(label);
  }
  Result<LogisticRegression> model = LogisticRegression::FitHard(x, y, 3, 2);
  ASSERT_TRUE(model.ok());
  double out[3];
  for (const SparseVector& row : x) {
    model->PredictProbaInto(row, out);
    const std::vector<double> reference = Softmax(model->Logits(row));
    const std::vector<double> wrapped = model->PredictProba(row);
    ASSERT_EQ(std::memcmp(out, reference.data(), sizeof(out)), 0);
    ASSERT_EQ(std::memcmp(out, wrapped.data(), sizeof(out)), 0);
  }
}

TEST(LogisticRegressionTest, InvalidInputsRejected) {
  EXPECT_FALSE(LogisticRegression::FitHard({}, {}, 2, 2).ok());
  std::vector<SparseVector> x = {Dense2(1, 1)};
  EXPECT_FALSE(LogisticRegression::FitHard(x, {0, 1}, 2, 2).ok());
  EXPECT_FALSE(LogisticRegression::FitHard(x, {5}, 2, 2).ok());
  EXPECT_FALSE(LogisticRegression::FitHard(x, {0}, 1, 2).ok());
}

TEST(LogisticRegressionTest, DeterministicForSeed) {
  Rng rng(17);
  std::vector<SparseVector> x;
  std::vector<int> y;
  MakeBlobs(100, 0.5, rng, &x, &y);
  LogisticRegressionOptions options;
  options.seed = 21;
  Result<LogisticRegression> a =
      LogisticRegression::FitHard(x, y, 2, 2, options);
  Result<LogisticRegression> b =
      LogisticRegression::FitHard(x, y, 2, 2, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a->PredictProba(x[i]), b->PredictProba(x[i]));
  }
}

}  // namespace
}  // namespace activedp
