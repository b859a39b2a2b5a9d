#include "core/label_pick.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace activedp {
namespace {

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// ComputeColumnStats of every validation column (LabelPick's input).
std::vector<LfColumnStats> Stats(const LabelMatrix& valid,
                                 const std::vector<int>& labels) {
  std::vector<LfColumnStats> stats;
  for (int j = 0; j < valid.num_cols(); ++j) {
    std::vector<int8_t> column(valid.num_rows());
    for (int i = 0; i < valid.num_rows(); ++i) {
      column[i] = static_cast<int8_t>(valid.At(i, j));
    }
    stats.push_back(ComputeColumnStats(column, labels));
  }
  return stats;
}

TEST(EncodeWeakLabelTest, BinarySpinEncoding) {
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(kAbstain, 2), 0.0);
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(1, 2), 1.0);
}

TEST(EncodeWeakLabelTest, MulticlassCentered) {
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(kAbstain, 3), 0.0);
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(0, 3), -1.0);
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(1, 3), 0.0);
  EXPECT_DOUBLE_EQ(EncodeWeakLabel(2, 3), 1.0);
}

struct PickFixtureResult {
  LabelMatrix valid{0};
  std::vector<int> valid_labels;
  LabelMatrix queries{0};
  std::vector<int> pseudo_labels;
};

/// Builds a scenario with 4 LFs:
///   0: accurate, informative
///   1: exact duplicate of 0 (redundant)
///   2: accurate, independent information
///   3: worse than random on validation
PickFixtureResult MakeScenario(int n_valid, int n_query, uint64_t seed) {
  Rng rng(seed);
  PickFixtureResult out;
  out.valid = LabelMatrix(n_valid);
  out.queries = LabelMatrix(n_query);

  std::vector<int> valid_labels(n_valid), query_labels(n_query);
  for (auto& y : valid_labels) y = rng.Bernoulli(0.5);
  for (auto& y : query_labels) y = rng.Bernoulli(0.5);

  auto make_column = [&](const std::vector<int>& labels, double accuracy,
                         Rng& r) {
    std::vector<int8_t> column(labels.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      const bool correct = r.Bernoulli(accuracy);
      column[i] = static_cast<int8_t>(correct ? labels[i] : 1 - labels[i]);
    }
    return column;
  };

  // LF0 and its duplicate share one RNG stream so they agree exactly.
  Rng lf0_valid_rng(seed ^ 1), lf0_query_rng(seed ^ 2);
  const auto v0 = make_column(valid_labels, 0.9, lf0_valid_rng);
  const auto q0 = make_column(query_labels, 0.9, lf0_query_rng);
  out.valid.AddColumn(v0);
  out.queries.AddColumn(q0);
  out.valid.AddColumn(v0);  // duplicate
  out.queries.AddColumn(q0);
  Rng rest(seed ^ 3);
  out.valid.AddColumn(make_column(valid_labels, 0.85, rest));
  out.queries.AddColumn(make_column(query_labels, 0.85, rest));
  out.valid.AddColumn(make_column(valid_labels, 0.3, rest));  // harmful
  out.queries.AddColumn(make_column(query_labels, 0.3, rest));

  out.valid_labels = valid_labels;
  out.pseudo_labels = query_labels;
  return out;
}

TEST(LabelPickTest, PrunesWorseThanRandomLfs) {
  const PickFixtureResult scenario = MakeScenario(200, 60, 7);
  LabelPickOptions options;
  options.select_markov_blanket = false;  // isolate step 1
  Result<std::vector<int>> picked =
      LabelPick(2, Stats(scenario.valid, scenario.valid_labels),
                scenario.queries, scenario.pseudo_labels, options);
  ASSERT_TRUE(picked.ok());
  EXPECT_TRUE(Contains(*picked, 0));
  EXPECT_TRUE(Contains(*picked, 2));
  EXPECT_FALSE(Contains(*picked, 3)) << "harmful LF survived";
}

TEST(LabelPickTest, BlanketDropsExactDuplicate) {
  const PickFixtureResult scenario = MakeScenario(300, 120, 11);
  LabelPickOptions options;
  options.blanket.method = BlanketMethod::kNeighborhoodSelection;
  options.blanket.penalty = 0.02;
  Result<std::vector<int>> picked =
      LabelPick(2, Stats(scenario.valid, scenario.valid_labels),
                scenario.queries, scenario.pseudo_labels, options);
  ASSERT_TRUE(picked.ok());
  // The informative LFs stay; the duplicate pair 0/1 need not both stay.
  EXPECT_TRUE(Contains(*picked, 0) || Contains(*picked, 1));
  EXPECT_TRUE(Contains(*picked, 2));
  EXPECT_FALSE(Contains(*picked, 3));
  EXPECT_LT(picked->size(), 4u);
}

TEST(LabelPickTest, FewQueriesSkipBlanket) {
  const PickFixtureResult scenario = MakeScenario(100, 4, 13);
  LabelPickOptions options;
  options.min_queries_for_blanket = 10;
  Result<std::vector<int>> picked =
      LabelPick(2, Stats(scenario.valid, scenario.valid_labels),
                scenario.queries, scenario.pseudo_labels, options);
  ASSERT_TRUE(picked.ok());
  // Only step-1 pruning applies.
  EXPECT_EQ(picked->size(), 3u);
}

TEST(LabelPickTest, NeverReturnsEmpty) {
  // All LFs worse than random: fall back to keeping everything.
  Rng rng(17);
  LabelMatrix valid(50);
  LabelMatrix queries(20);
  std::vector<int> valid_labels(50), pseudo(20, 1);
  for (auto& y : valid_labels) y = rng.Bernoulli(0.5);
  for (int j = 0; j < 2; ++j) {
    std::vector<int8_t> v(50), q(20, 1);
    for (int i = 0; i < 50; ++i) {
      v[i] = static_cast<int8_t>(1 - valid_labels[i]);  // always wrong
    }
    valid.AddColumn(std::move(v));
    queries.AddColumn(std::move(q));
  }
  Result<std::vector<int>> picked =
      LabelPick(2, Stats(valid, valid_labels), queries, pseudo, {});
  ASSERT_TRUE(picked.ok());
  EXPECT_FALSE(picked->empty());
}

TEST(LabelPickTest, KeepsLfsThatNeverFireOnValidation) {
  Rng rng(19);
  LabelMatrix valid(50);
  LabelMatrix queries(30);
  std::vector<int> valid_labels(50), pseudo(30);
  for (auto& y : valid_labels) y = rng.Bernoulli(0.5);
  for (auto& y : pseudo) y = rng.Bernoulli(0.5);
  // LF that abstains everywhere on validation (unknown accuracy).
  valid.AddColumn(std::vector<int8_t>(50, kAbstain));
  std::vector<int8_t> q(30);
  for (int i = 0; i < 30; ++i) q[i] = static_cast<int8_t>(pseudo[i]);
  queries.AddColumn(std::move(q));
  LabelPickOptions options;
  options.select_markov_blanket = false;
  Result<std::vector<int>> picked =
      LabelPick(2, Stats(valid, valid_labels), queries, pseudo, options);
  ASSERT_TRUE(picked.ok());
  EXPECT_TRUE(Contains(*picked, 0));
}

TEST(LabelPickTest, DisablingBothStepsKeepsAll) {
  const PickFixtureResult scenario = MakeScenario(100, 50, 23);
  LabelPickOptions options;
  options.prune_by_validation_accuracy = false;
  options.select_markov_blanket = false;
  Result<std::vector<int>> picked =
      LabelPick(2, Stats(scenario.valid, scenario.valid_labels),
                scenario.queries, scenario.pseudo_labels, options);
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked->size(), 4u);
}

TEST(LabelPickTest, RejectsZeroLfs) {
  LabelMatrix empty(0);
  EXPECT_FALSE(LabelPick(2, {}, empty, {}, {}).ok());
}

}  // namespace
}  // namespace activedp
