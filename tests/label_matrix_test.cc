// Differential tests of LabelMatrix against a dense reference: after every
// AddColumn / Relabel / SelectColumns / SelectRows, each entry, each row's
// firing entries, the spin CSR and the pair-moment store must equal what a
// brute-force scan of the same dense columns gives, and label models fitted
// on a derived matrix must serialize exactly like models fitted on a fresh
// one.

#include "lf/lf_applier.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "labelmodel/dawid_skene.h"
#include "labelmodel/generative_model.h"
#include "labelmodel/majority_vote.h"
#include "labelmodel/metal_completion.h"
#include "labelmodel/metal_model.h"
#include "util/rng.h"

namespace activedp {
namespace {

using Columns = std::vector<std::vector<int8_t>>;

/// A random column over `num_classes` labels. The firing rate is drawn per
/// column and includes 0, so never-firing columns and all-abstain rows are
/// common.
std::vector<int8_t> RandomColumn(int num_rows, int num_classes, Rng& rng) {
  static const double kRates[] = {0.0, 0.05, 0.3, 0.9};
  const double rate = kRates[rng.UniformInt(4)];
  std::vector<int8_t> column(num_rows, static_cast<int8_t>(kAbstain));
  for (int i = 0; i < num_rows; ++i) {
    if (rng.Bernoulli(rate)) {
      column[i] = static_cast<int8_t>(rng.UniformInt(num_classes));
    }
  }
  return column;
}

LabelMatrix FromColumns(const Columns& columns, int num_rows) {
  LabelMatrix matrix(num_rows);
  for (const auto& column : columns) matrix.AddColumn(column);
  return matrix;
}

Columns ColumnsOf(const LabelMatrix& matrix) {
  Columns out(matrix.num_cols(), std::vector<int8_t>(matrix.num_rows()));
  for (int j = 0; j < matrix.num_cols(); ++j) {
    for (int i = 0; i < matrix.num_rows(); ++i) {
      out[j][i] = static_cast<int8_t>(matrix.At(i, j));
    }
  }
  return out;
}

int Spin(int label) { return label == 1 ? 1 : -1; }

/// Asserts that `actual` holds exactly the dense `expected` columns. Every
/// reference value is a direct scan of `expected`; none comes from another
/// LabelMatrix.
void ExpectMatchesDense(const LabelMatrix& actual, const Columns& expected,
                        int num_rows, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(actual.num_rows(), num_rows);
  const int m = static_cast<int>(expected.size());
  ASSERT_EQ(actual.num_cols(), m);
  int covered = 0;
  const CsrMatrix spins = actual.SpinCsr();
  ASSERT_EQ(spins.rows(), num_rows);
  for (int i = 0; i < num_rows; ++i) {
    std::vector<int32_t> cols;
    std::vector<int8_t> labels;
    for (int j = 0; j < m; ++j) {
      ASSERT_EQ(actual.At(i, j), expected[j][i]) << "entry " << i << "," << j;
      if (expected[j][i] == kAbstain) continue;
      cols.push_back(j);
      labels.push_back(expected[j][i]);
    }
    const int nnz = static_cast<int>(cols.size());
    covered += nnz > 0;
    ASSERT_EQ(actual.ActiveCount(i), nnz) << "row " << i;
    ASSERT_EQ(actual.AnyActive(i), nnz > 0) << "row " << i;
    const ActiveRowView row = actual.ActiveRow(i);
    ASSERT_EQ(row.nnz, nnz) << "row " << i;
    ASSERT_EQ(spins.RowNnz(i), nnz) << "row " << i;
    for (int k = 0; k < nnz; ++k) {
      ASSERT_EQ(row.cols[k], cols[k]) << "row " << i;
      ASSERT_EQ(row.labels[k], labels[k]) << "row " << i;
      ASSERT_EQ(spins.RowIndices(i)[k], cols[k]) << "row " << i;
      ASSERT_EQ(spins.RowValues(i)[k], static_cast<double>(Spin(labels[k])))
          << "row " << i;
    }
  }
  ASSERT_EQ(actual.OverallCoverage(),
            num_rows == 0 ? 0.0 : static_cast<double>(covered) / num_rows);

  const SpinPairMoments& moments = actual.PairMoments();
  ASSERT_EQ(moments.num_cols(), m);
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      int sum = 0, count = 0;
      for (int i = 0; i < num_rows; ++i) {
        if (expected[a][i] == kAbstain || expected[b][i] == kAbstain) continue;
        sum += Spin(expected[a][i]) * Spin(expected[b][i]);
        ++count;
      }
      ASSERT_EQ(moments.Sum(a, b), sum) << a << "," << b;
      ASSERT_EQ(moments.Count(a, b), count) << a << "," << b;
    }
    ASSERT_EQ(moments.Active(a), moments.Count(a, a));
  }
}

/// Random column selection: an ascending subset, a permuted subset with a
/// possible repeat, a single column, or every column in order.
std::vector<int> RandomSelection(int num_cols, Rng& rng) {
  std::vector<int> cols;
  switch (rng.UniformInt(4)) {
    case 0:
      for (int j = 0; j < num_cols; ++j) {
        if (rng.Bernoulli(0.6)) cols.push_back(j);
      }
      break;
    case 1:
      for (int j = 0; j < num_cols; ++j) {
        if (rng.Bernoulli(0.7)) cols.push_back(j);
      }
      if (!cols.empty() && rng.Bernoulli(0.5)) {
        cols.push_back(cols[rng.UniformInt(static_cast<int>(cols.size()))]);
      }
      rng.Shuffle(cols);
      break;
    case 2:
      cols.push_back(rng.UniformInt(num_cols));
      break;
    default:
      for (int j = 0; j < num_cols; ++j) cols.push_back(j);
  }
  return cols;
}

/// Random rows: repeats and any order.
std::vector<int> RandomRows(int num_rows, Rng& rng) {
  std::vector<int> rows(rng.UniformInt(1, 60));
  for (int& r : rows) r = rng.UniformInt(num_rows);
  return rows;
}

TEST(LabelMatrixDifferentialTest, InterleavedOperationsMatchDenseReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int num_classes = seed % 2 == 0 ? 2 : 3;
    int n = rng.UniformInt(1, 60);
    Columns expected;
    LabelMatrix matrix(n);
    for (int j = rng.UniformInt(0, 4); j > 0; --j) {
      expected.push_back(RandomColumn(n, num_classes, rng));
      matrix.AddColumn(expected.back());
    }
    ExpectMatchesDense(matrix, expected, n, "start, seed " +
                                                std::to_string(seed));
    for (int step = 0; step < 40; ++step) {
      const int m = matrix.num_cols();
      std::string op;
      switch (m == 0 ? 0 : rng.UniformInt(6)) {
        case 0:
        case 1: {
          op = "AddColumn";
          expected.push_back(RandomColumn(n, num_classes, rng));
          matrix.AddColumn(expected.back());
          break;
        }
        case 2: {
          op = "Relabel";
          // Every firing entry of one random row, as the Revising-LF
          // baseline does; an all-abstain row leaves the matrix as it is.
          const int row = rng.UniformInt(n);
          const int label = rng.UniformInt(num_classes);
          for (int j = 0; j < m; ++j) {
            if (expected[j][row] == kAbstain) continue;
            expected[j][row] = static_cast<int8_t>(label);
            matrix.Relabel(row, j, label);
          }
          break;
        }
        case 3:
        case 4: {
          op = "SelectColumns";
          const std::vector<int> cols = RandomSelection(m, rng);
          Columns selected;
          for (int j : cols) selected.push_back(expected[j]);
          LabelMatrix child = matrix.SelectColumns(cols);
          // The parent is unchanged by the selection and keeps working.
          ExpectMatchesDense(matrix, expected, n,
                             "parent after SelectColumns, seed " +
                                 std::to_string(seed));
          matrix = std::move(child);
          expected = std::move(selected);
          break;
        }
        default: {
          op = "SelectRows";
          const std::vector<int> rows = RandomRows(n, rng);
          const int k = static_cast<int>(rows.size());
          for (auto& column : expected) {
            std::vector<int8_t> selected(k);
            for (int i = 0; i < k; ++i) selected[i] = column[rows[i]];
            column = std::move(selected);
          }
          matrix = matrix.SelectRows(rows);
          n = k;
        }
      }
      ExpectMatchesDense(matrix, expected, n,
                         op + ", seed " + std::to_string(seed) + ", step " +
                             std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LabelMatrixDifferentialTest, DerivedMatricesAreIndependent) {
  Rng rng(7);
  const int n = 30;
  Columns expected;
  LabelMatrix parent(n);
  for (int j = 0; j < 5; ++j) {
    expected.push_back(RandomColumn(n, 2, rng));
    parent.AddColumn(expected.back());
  }
  // Row 4 fires on every column, so both relabels below hit a vote.
  for (int j = 0; j < 5; ++j) expected[j][4] = 1;
  parent = FromColumns(expected, n);
  LabelMatrix child = parent.SelectColumns({3, 1});
  Columns child_expected = {expected[3], expected[1]};
  LabelMatrix rows = parent.SelectRows({4, 4, 0});

  child.Relabel(4, 0, 0);
  child_expected[0][4] = 0;
  parent.Relabel(4, 1, 0);
  expected[1][4] = 0;
  expected.push_back(RandomColumn(n, 2, rng));
  parent.AddColumn(expected.back());

  ExpectMatchesDense(parent, expected, n, "parent");
  ExpectMatchesDense(child, child_expected, n, "child");
  Columns rows_expected;
  for (int j = 0; j < 5; ++j) rows_expected.push_back({1, 1, expected[j][0]});
  ExpectMatchesDense(rows, rows_expected, 3, "row selection");
}

/// Binary or 3-class weak labels with a hidden ground truth: LF j fires
/// with its own coverage and votes the truth with its own accuracy.
LabelMatrix RandomLabelMatrix(int n, int m, int num_classes, Rng& rng) {
  std::vector<int> truth(n);
  for (int& y : truth) y = rng.UniformInt(num_classes);
  LabelMatrix matrix(n);
  for (int j = 0; j < m; ++j) {
    const double coverage = rng.Uniform(0.05, 0.6);
    const double accuracy = rng.Uniform(0.55, 0.9);
    std::vector<int8_t> column(n, static_cast<int8_t>(kAbstain));
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(coverage)) continue;
      int vote = truth[i];
      if (!rng.Bernoulli(accuracy)) {
        vote = (truth[i] + 1 + rng.UniformInt(num_classes - 1)) % num_classes;
      }
      column[i] = static_cast<int8_t>(vote);
    }
    matrix.AddColumn(std::move(column));
  }
  return matrix;
}

std::vector<std::unique_ptr<LabelModel>> ModelsFor(int num_classes) {
  std::vector<std::unique_ptr<LabelModel>> models;
  if (num_classes == 2) {
    models.push_back(std::make_unique<MetalModel>());
    models.push_back(std::make_unique<MetalCompletionModel>());
    models.push_back(std::make_unique<GenerativeModel>());
  }
  models.push_back(std::make_unique<MajorityVoteModel>());
  models.push_back(std::make_unique<DawidSkeneModel>());
  DawidSkeneOptions fired_only;
  fired_only.model_abstentions = false;
  models.push_back(std::make_unique<DawidSkeneModel>(fired_only));
  return models;
}

/// Every model's SerializeParams and PredictProbaAll after fitting on
/// `matrix`, concatenated in a fixed order.
std::vector<std::string> FitAll(const LabelMatrix& matrix, int num_classes) {
  std::vector<std::string> out;
  for (auto& model : ModelsFor(num_classes)) {
    const Status fit = model->Fit(matrix, num_classes);
    EXPECT_TRUE(fit.ok()) << model->name() << ": " << fit.ToString();
    Result<std::string> params = model->SerializeParams();
    EXPECT_TRUE(params.ok()) << model->name();
    out.push_back(model->name() + " " + (params.ok() ? *params : ""));
    Result<std::vector<std::vector<double>>> proba =
        model->PredictProbaAll(matrix);
    EXPECT_TRUE(proba.ok()) << model->name();
    std::string bits;
    if (proba.ok()) {
      for (const auto& row : *proba) {
        bits.append(reinterpret_cast<const char*>(row.data()),
                    row.size() * sizeof(double));
      }
    }
    out.push_back(bits);
  }
  return out;
}

TEST(LabelMatrixDifferentialTest, FitsOnDerivedMatricesMatchFreshOnes) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 101);
    const int num_classes = seed % 3 == 0 ? 3 : 2;
    const LabelMatrix base = RandomLabelMatrix(3000, 16, num_classes, rng);
    // Ascending subsets of at least 9 LFs exercise the completion solve
    // (not its small-m fallback); a permuted subset and a single column
    // exercise the sorting and fallback paths.
    std::vector<std::vector<int>> selections;
    std::vector<int> ascending;
    for (int j = 0; j < 16; ++j) {
      if (j % 5 != 2) ascending.push_back(j);
    }
    selections.push_back(ascending);
    std::vector<int> permuted = ascending;
    rng.Shuffle(permuted);
    selections.push_back(permuted);
    selections.push_back({rng.UniformInt(16)});
    for (const auto& cols : selections) {
      const LabelMatrix derived = base.SelectColumns(cols);
      const LabelMatrix fresh =
          FromColumns(ColumnsOf(derived), derived.num_rows());
      EXPECT_EQ(FitAll(derived, num_classes), FitAll(fresh, num_classes))
          << "seed " << seed << ", " << cols.size() << " columns";
    }
    // A row subset (the LabelPick query table) of the derived matrix.
    std::vector<int> rows;
    for (int i = 0; i < base.num_rows(); i += 7) rows.push_back(i);
    const LabelMatrix sliced = base.SelectColumns(ascending).SelectRows(rows);
    EXPECT_EQ(FitAll(sliced, num_classes),
              FitAll(FromColumns(ColumnsOf(sliced), sliced.num_rows()),
                     num_classes))
        << "seed " << seed << " row subset";
  }
}

}  // namespace
}  // namespace activedp
