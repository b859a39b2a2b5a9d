// Randomized property tests across module boundaries: invariants that must
// hold for arbitrary seeds/inputs rather than hand-picked cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>

#include "core/confusion.h"
#include "core/label_pick.h"
#include "data/synthetic_text.h"
#include "labelmodel/metal_completion.h"
#include "labelmodel/metal_model.h"
#include "labelmodel/spin_utils.h"
#include "math/vector_ops.h"
#include "text/tokenizer.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace activedp {
namespace {

class SeededPropertyTest : public testing::TestWithParam<int> {};

TEST_P(SeededPropertyTest, CsvRoundTripsArbitraryFields) {
  Rng rng(GetParam());
  const int cols = rng.UniformInt(1, 5);
  std::vector<std::string> header;
  for (int c = 0; c < cols; ++c) header.push_back("c" + std::to_string(c));
  CsvWriter writer(header);
  std::vector<std::vector<std::string>> rows;
  const char kAlphabet[] = "ab,\"x ;'|";
  for (int r = 0; r < 20; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      std::string field;
      const int len = rng.UniformInt(0, 8);
      for (int k = 0; k < len; ++k) {
        field += kAlphabet[rng.UniformInt(
            static_cast<int>(sizeof(kAlphabet)) - 1)];
      }
      row.push_back(field);
    }
    rows.push_back(row);
    writer.AddRow(std::move(row));
  }
  Result<std::vector<std::vector<std::string>>> parsed =
      ParseCsv(writer.ToString());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), rows.size() + 1);
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ((*parsed)[r + 1], rows[r]);
  }
}

TEST_P(SeededPropertyTest, SoftmaxIsDistributionForRandomLogits) {
  Rng rng(GetParam());
  std::vector<double> logits(rng.UniformInt(2, 6));
  for (double& l : logits) l = rng.Uniform(-50.0, 50.0);
  const std::vector<double> p = Softmax(logits);
  double total = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(ArgMax(p), ArgMax(logits));
}

TEST_P(SeededPropertyTest, TokenizerEmitsOnlyLowercaseAlnum) {
  Rng rng(GetParam());
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += static_cast<char>(rng.UniformInt(32, 126));
  }
  Tokenizer tokenizer;
  for (const auto& token : tokenizer.Tokenize(text)) {
    EXPECT_FALSE(token.empty());
    for (char c : token) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
      EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)));
    }
  }
}

TEST_P(SeededPropertyTest, SpinNaiveBayesClassSymmetry) {
  // Flipping every vote and the prior must flip the posterior.
  Rng rng(GetParam());
  const int m = rng.UniformInt(1, 10);
  std::vector<double> accuracies(m);
  std::vector<int> votes(m), flipped(m);
  for (int j = 0; j < m; ++j) {
    accuracies[j] = rng.Uniform(-0.9, 0.9);
    const int v = rng.UniformInt(3) - 1;  // -1 (abstain), 0, 1
    votes[j] = v;
    flipped[j] = v == kAbstain ? kAbstain : 1 - v;
  }
  const double prior = rng.Uniform(0.05, 0.95);
  const std::vector<double> p =
      SpinNaiveBayesProba(MakeSpinLogOdds(accuracies, prior), votes);
  const std::vector<double> q =
      SpinNaiveBayesProba(MakeSpinLogOdds(accuracies, 1.0 - prior), flipped);
  EXPECT_NEAR(p[1], q[0], 1e-9);
  EXPECT_NEAR(p[0], q[1], 1e-9);
}

TEST_P(SeededPropertyTest, ConFusionSourcesAreConsistentWithInputs) {
  Rng rng(GetParam());
  const int n = 100;
  std::vector<std::vector<double>> al(n), lm(n);
  std::vector<bool> active(n);
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.8)) {
      const double p = rng.Uniform(0.5, 1.0);
      al[i] = {p, 1.0 - p};
    }
    const double q = rng.Uniform(0.0, 1.0);
    lm[i] = {q, 1.0 - q};
    active[i] = rng.Bernoulli(0.6);
  }
  const double tau = rng.Uniform(0.0, 1.0);
  const AggregatedLabels out = ConFusion::Aggregate(al, lm, active, tau);
  for (int i = 0; i < n; ++i) {
    switch (out.source[i]) {
      case LabelSource::kActiveLearning:
        ASSERT_FALSE(al[i].empty());
        EXPECT_GE(Max(al[i]), tau);
        EXPECT_EQ(out.soft[i], al[i]);
        break;
      case LabelSource::kLabelModel:
        EXPECT_TRUE(active[i]);
        EXPECT_TRUE(al[i].empty() || Max(al[i]) < tau);
        EXPECT_EQ(out.soft[i], lm[i]);
        break;
      case LabelSource::kRejected:
        EXPECT_FALSE(active[i]);
        EXPECT_TRUE(out.soft[i].empty());
        EXPECT_EQ(out.hard[i], kAbstain);
        break;
    }
  }
}

TEST_P(SeededPropertyTest, EncodeWeakLabelIsAntisymmetricForBinary) {
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(0, 2), -EncodeWeakLabel(1, 2));
  // And centred for any class count.
  const int classes = 2 + (GetParam() % 4);
  double total = 0.0;
  for (int c = 0; c < classes; ++c) total += EncodeWeakLabel(c, classes);
  EXPECT_NEAR(total, 0.0, 1e-9);
}

TEST_P(SeededPropertyTest, GeneratedTextDatasetsAreWellFormed) {
  Rng rng(GetParam());
  SyntheticTextConfig config;
  config.num_examples = 120;
  config.signal_group_size = 1 + (GetParam() % 5);
  config.groups_per_doc = 1 + (GetParam() % 4);
  const Dataset dataset = GenerateSyntheticText(config, rng);
  EXPECT_EQ(dataset.size(), 120);
  const std::vector<double> balance = dataset.ClassBalance();
  EXPECT_NEAR(balance[0] + balance[1], 1.0, 1e-9);
  for (const auto& e : dataset.examples()) {
    // Term counts consistent with text.
    int tokens_in_text = 1;
    for (char c : e.text) tokens_in_text += (c == ' ');
    int counted = 0;
    for (const auto& [id, count] : e.term_counts) counted += count;
    EXPECT_LE(counted, tokens_in_text);  // OOV tokens may be dropped
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         testing::Range(1, 9));

TEST(LabelModelRobustnessTest, DuplicatedLfInflatesCompletionNotTriplets) {
  // Fragility documentation: present one LF ten times. The faithful
  // matrix-completion estimator trusts the (violated) independence
  // assumption and inflates its accuracy estimates relative to the robust
  // median-of-triplets estimator.
  Rng rng(99);
  const int n = 4000;
  std::vector<int> labels(n);
  for (auto& y : labels) y = rng.Bernoulli(0.5);
  // The underlying LF: accuracy 0.7, coverage 0.8.
  std::vector<int8_t> base(n, kAbstain);
  for (int i = 0; i < n; ++i) {
    if (!rng.Bernoulli(0.8)) continue;
    base[i] = static_cast<int8_t>(rng.Bernoulli(0.7) ? labels[i]
                                                     : 1 - labels[i]);
  }
  LabelMatrix matrix(n);
  for (int copies = 0; copies < 10; ++copies) matrix.AddColumn(base);

  MetalModel triplets;
  ASSERT_TRUE(triplets.Fit(matrix, 2).ok());
  MetalCompletionModel completion;
  ASSERT_TRUE(completion.Fit(matrix, 2).ok());
  ASSERT_FALSE(completion.used_fallback());

  // True a = 2*0.7-1 = 0.4. The completion estimate should be the (more)
  // inflated of the two — exact duplication is the extreme dependence case.
  EXPECT_GE(completion.accuracy_param(0) + 1e-9, triplets.accuracy_param(0));
  EXPECT_GT(completion.accuracy_param(0), 0.55);
}

}  // namespace
}  // namespace activedp
