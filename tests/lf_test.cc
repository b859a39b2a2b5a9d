#include <gtest/gtest.h>

#include <optional>

#include "lf/label_function.h"
#include "lf/lf_applier.h"
#include "util/rng.h"

namespace activedp {
namespace {

Example TextExample(std::vector<std::pair<int, int>> term_counts, int label) {
  Example e;
  e.term_counts = std::move(term_counts);
  e.label = label;
  return e;
}

Example TabularExample(std::vector<double> features, int label) {
  Example e;
  e.features = std::move(features);
  e.label = label;
  return e;
}

TEST(KeywordLfTest, FiresOnKeywordPresence) {
  const KeywordLf lf(/*token_id=*/3, "check", /*label=*/1);
  EXPECT_EQ(lf.Apply(TextExample({{1, 1}, {3, 2}}, 0)), 1);
  EXPECT_EQ(lf.Apply(TextExample({{1, 1}, {4, 1}}, 0)), kAbstain);
  EXPECT_EQ(lf.label(), 1);
  EXPECT_EQ(lf.Name(), "check -> class1");
  EXPECT_EQ(lf.Key(), "kw:3:1");
}

TEST(ThresholdLfTest, FiresByOperator) {
  const ThresholdLf le(/*feature=*/0, 2.0, StumpOp::kLessEqual, 0);
  EXPECT_EQ(le.Apply(TabularExample({1.5}, 0)), 0);
  EXPECT_EQ(le.Apply(TabularExample({2.0}, 0)), 0);  // boundary included
  EXPECT_EQ(le.Apply(TabularExample({2.5}, 0)), kAbstain);
  const ThresholdLf ge(0, 2.0, StumpOp::kGreaterEqual, 1);
  EXPECT_EQ(ge.Apply(TabularExample({2.0}, 0)), 1);
  EXPECT_EQ(ge.Apply(TabularExample({1.0}, 0)), kAbstain);
}

TEST(ThresholdLfTest, KeysDistinguishOperatorAndClass) {
  const ThresholdLf a(0, 1.0, StumpOp::kLessEqual, 0);
  const ThresholdLf b(0, 1.0, StumpOp::kGreaterEqual, 0);
  const ThresholdLf c(0, 1.0, StumpOp::kLessEqual, 1);
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_NE(a.Key(), c.Key());
}

Dataset TinyDataset() {
  DatasetMeta meta;
  meta.num_classes = 2;
  std::vector<Example> examples = {
      TextExample({{0, 1}}, 1),          // contains token 0
      TextExample({{1, 1}}, 0),          // contains token 1
      TextExample({{0, 1}, {1, 1}}, 1),  // both
      TextExample({{2, 1}}, 0),          // neither
  };
  return Dataset(meta, std::move(examples));
}

TEST(LfApplierTest, ApplyLfProducesColumn) {
  const Dataset dataset = TinyDataset();
  const KeywordLf lf(0, "w0", 1);
  const std::vector<int8_t> column = ApplyLf(lf, dataset);
  EXPECT_EQ(column, (std::vector<int8_t>{1, -1, 1, -1}));
}

TEST(LfApplierTest, ApplyLfsBuildsMatrix) {
  const Dataset dataset = TinyDataset();
  std::vector<LfPtr> lfs = {std::make_shared<KeywordLf>(0, "w0", 1),
                            std::make_shared<KeywordLf>(1, "w1", 0)};
  const LabelMatrix matrix = ApplyLfs(lfs, dataset);
  EXPECT_EQ(matrix.num_rows(), 4);
  EXPECT_EQ(matrix.num_cols(), 2);
  EXPECT_EQ(matrix.At(2, 0), 1);
  EXPECT_EQ(matrix.At(2, 1), 0);
  EXPECT_EQ(matrix.At(3, 0), kAbstain);
}

TEST(KeywordIndexTest, FiringLfsAndApplyLfsMatchThePerLfLoop) {
  Rng rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    // Keyword LFs over tokens 5..24 (trial 0 is the empty set). Two LFs may
    // share a token with different labels; examples also carry tokens below
    // and above the LFs' range, which the index must skip.
    std::vector<LfPtr> lfs;
    const int num_lfs = trial == 0 ? 0 : rng.UniformInt(1, 12);
    for (int j = 0; j < num_lfs; ++j) {
      lfs.push_back(std::make_shared<KeywordLf>(rng.UniformInt(5, 24), "w",
                                                rng.UniformInt(0, 2)));
    }
    if (num_lfs >= 2) {  // one shared token with different labels, always
      lfs.push_back(std::make_shared<KeywordLf>(
          static_cast<const KeywordLf&>(*lfs[0]).token_id(), "w",
          (lfs[0]->label() + 1) % 3));
    }
    std::vector<Example> examples;
    for (int i = 0; i < 40; ++i) {
      std::vector<std::pair<int, int>> counts;
      for (int t = 0; t < 30; ++t) {
        if (rng.UniformInt(4) == 0) counts.emplace_back(t, rng.UniformInt(1, 3));
      }
      examples.push_back(TextExample(std::move(counts), 0));
    }
    const Dataset dataset(DatasetMeta{}, examples);

    const std::optional<KeywordIndex> index = KeywordIndex::Build(lfs);
    ASSERT_TRUE(index.has_value());
    std::vector<int32_t> cols;
    std::vector<int8_t> labels;
    for (const Example& example : examples) {
      std::vector<int32_t> want_cols;
      std::vector<int8_t> want_labels;
      for (size_t j = 0; j < lfs.size(); ++j) {
        const int label = lfs[j]->Apply(example);
        if (label == kAbstain) continue;
        want_cols.push_back(static_cast<int32_t>(j));
        want_labels.push_back(static_cast<int8_t>(label));
      }
      index->FiringLfs(example, &cols, &labels);  // buffers reused
      EXPECT_EQ(cols, want_cols) << "trial " << trial;
      EXPECT_EQ(labels, want_labels) << "trial " << trial;
    }
    const LabelMatrix matrix = ApplyLfs(lfs, dataset);
    ASSERT_EQ(matrix.num_cols(), static_cast<int>(lfs.size()));
    for (size_t j = 0; j < lfs.size(); ++j) {
      const std::vector<int8_t> column = ApplyLf(*lfs[j], dataset);
      for (int i = 0; i < matrix.num_rows(); ++i) {
        ASSERT_EQ(matrix.At(i, static_cast<int>(j)), column[i])
            << "trial " << trial << " column " << j << " row " << i;
      }
    }
  }
}

TEST(KeywordIndexTest, OnlyKeywordSetsAreIndexed) {
  const std::vector<LfPtr> mixed = {
      std::make_shared<KeywordLf>(0, "w0", 1),
      std::make_shared<ThresholdLf>(0, 1.0, StumpOp::kLessEqual, 0)};
  EXPECT_FALSE(KeywordIndex::Build(mixed).has_value());
  const std::optional<KeywordIndex> index =
      KeywordIndex::Build({std::make_shared<KeywordLf>(7, "w7", 1)});
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(index->Find(7).nnz, 1);
  for (int token : {-1, 0, 6, 8, 1 << 30}) {
    EXPECT_EQ(index->Find(token).nnz, 0) << token;
  }
}

TEST(LabelMatrixTest, EntriesAndActivity) {
  LabelMatrix matrix(3);
  matrix.AddColumn({1, -1, 0});
  matrix.AddColumn({-1, -1, 1});
  EXPECT_EQ(matrix.At(0, 0), 1);
  EXPECT_EQ(matrix.At(0, 1), kAbstain);
  EXPECT_EQ(matrix.At(2, 0), 0);
  EXPECT_EQ(matrix.At(2, 1), 1);
  EXPECT_TRUE(matrix.AnyActive(0));
  EXPECT_FALSE(matrix.AnyActive(1));
  EXPECT_TRUE(matrix.AnyActive(2));
  const ActiveRowView row = matrix.ActiveRow(2);
  ASSERT_EQ(row.nnz, 2);
  EXPECT_EQ(row.cols[0], 0);
  EXPECT_EQ(row.labels[0], 0);
  EXPECT_EQ(row.cols[1], 1);
  EXPECT_EQ(row.labels[1], 1);
  EXPECT_EQ(matrix.ActiveRow(1).nnz, 0);
}

TEST(LabelMatrixTest, SelectColumnsAndRows) {
  LabelMatrix matrix(3);
  matrix.AddColumn({1, 0, -1});
  matrix.AddColumn({-1, 1, 0});
  const LabelMatrix cols = matrix.SelectColumns({1});
  EXPECT_EQ(cols.num_cols(), 1);
  EXPECT_EQ(cols.At(1, 0), 1);
  const LabelMatrix rows = matrix.SelectRows({2, 0});
  EXPECT_EQ(rows.num_rows(), 2);
  EXPECT_EQ(rows.At(0, 0), -1);
  EXPECT_EQ(rows.At(1, 0), 1);
}

TEST(LabelMatrixTest, RelabelOverwritesAFiringEntry) {
  LabelMatrix matrix(2);
  matrix.AddColumn({1, -1});
  matrix.Relabel(0, 0, 0);
  EXPECT_EQ(matrix.At(0, 0), 0);
  EXPECT_EQ(matrix.At(1, 0), kAbstain);
  // Only a vote can be relabelled: the row's shape never changes.
  EXPECT_DEATH(matrix.Relabel(1, 0, 0), "abstains");
}

TEST(LabelMatrixTest, OverallCoverage) {
  LabelMatrix matrix(4);
  matrix.AddColumn({1, -1, -1, -1});
  matrix.AddColumn({-1, 0, -1, -1});
  EXPECT_DOUBLE_EQ(matrix.OverallCoverage(), 0.5);
}

TEST(ColumnStatsTest, CoverageAndAccuracy) {
  const std::vector<int8_t> column = {1, 1, -1, 0};
  const std::vector<int> labels = {1, 0, 1, 0};
  const LfColumnStats stats = ComputeColumnStats(column, labels);
  EXPECT_EQ(stats.activations, 3);
  EXPECT_DOUBLE_EQ(stats.coverage, 0.75);
  EXPECT_NEAR(stats.accuracy, 2.0 / 3.0, 1e-12);
}

TEST(ColumnStatsTest, NeverFiring) {
  const LfColumnStats stats = ComputeColumnStats({-1, -1}, {0, 1});
  EXPECT_EQ(stats.activations, 0);
  EXPECT_DOUBLE_EQ(stats.coverage, 0.0);
  EXPECT_DOUBLE_EQ(stats.accuracy, 0.0);
}

}  // namespace
}  // namespace activedp
