// Differential tests of LabelMatrix's incrementally maintained state: after
// every AddColumn / Set / SelectColumns / SelectRows, the row view, active
// counts, spin CSR and pair-moment store must equal those of a matrix
// rebuilt from scratch out of the same columns, and label models fitted on
// a derived matrix must serialize exactly like models fitted on a fresh one.

#include "lf/lf_applier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "labelmodel/dawid_skene.h"
#include "labelmodel/majority_vote.h"
#include "labelmodel/metal_completion.h"
#include "labelmodel/metal_model.h"
#include "math/matrix.h"
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

LabelMatrix FromScratch(const Columns& columns, int num_rows) {
  LabelMatrix matrix(num_rows);
  for (const auto& column : columns) matrix.AddColumn(column);
  return matrix;
}

Columns ColumnsOf(const LabelMatrix& matrix) {
  Columns out;
  for (int j = 0; j < matrix.num_cols(); ++j) out.push_back(matrix.column(j));
  return out;
}

int Spin(int label) { return label == 1 ? 1 : -1; }

/// Asserts that `actual` holds exactly `expected` and that every derived
/// structure equals the from-scratch one bitwise. The pair-moment store is
/// also checked against a brute-force sum over the dense columns and against
/// the Gram matrix of the spin CSR.
void ExpectMatchesFromScratch(const LabelMatrix& actual,
                              const Columns& expected, int num_rows,
                              const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(actual.num_rows(), num_rows);
  ASSERT_EQ(actual.num_cols(), static_cast<int>(expected.size()));
  for (int j = 0; j < actual.num_cols(); ++j) {
    ASSERT_EQ(actual.column(j), expected[j]) << "column " << j;
  }
  const LabelMatrix reference = FromScratch(expected, num_rows);
  actual.EnsureRows();
  reference.EnsureRows();
  for (int i = 0; i < num_rows; ++i) {
    ASSERT_EQ(actual.ActiveCount(i), reference.ActiveCount(i)) << "row " << i;
    const ActiveRowView a = actual.ActiveRow(i);
    const ActiveRowView r = reference.ActiveRow(i);
    ASSERT_EQ(a.nnz, r.nnz) << "row " << i;
    ASSERT_TRUE(std::equal(a.cols, a.cols + a.nnz, r.cols)) << "row " << i;
    ASSERT_TRUE(std::equal(a.labels, a.labels + a.nnz, r.labels))
        << "row " << i;
  }

  const CsrMatrix spins = actual.SpinCsr();
  const CsrMatrix reference_spins = reference.SpinCsr();
  ASSERT_EQ(spins.nnz(), reference_spins.nnz());
  for (int i = 0; i < num_rows; ++i) {
    ASSERT_EQ(spins.RowNnz(i), reference_spins.RowNnz(i));
    for (int k = 0; k < spins.RowNnz(i); ++k) {
      ASSERT_EQ(spins.RowIndices(i)[k], reference_spins.RowIndices(i)[k]);
      ASSERT_EQ(spins.RowValues(i)[k], reference_spins.RowValues(i)[k]);
    }
  }

  const SpinPairMoments& moments = actual.PairMoments();
  ASSERT_TRUE(moments == reference.PairMoments());
  const Matrix gram = reference_spins.SelfInnerProduct();
  const int m = actual.num_cols();
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
      ASSERT_EQ(static_cast<double>(moments.Sum(a, b)), gram(a, b));
    }
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

TEST(LabelMatrixDifferentialTest, InterleavedOperationsMatchFromScratch) {
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
    for (int step = 0; step < 40; ++step) {
      // Leave the caches unbuilt, or build the row view only, or both, so
      // every operation runs against each cache state.
      switch (rng.UniformInt(3)) {
        case 0:
          break;
        case 1:
          matrix.EnsureRows();
          break;
        default:
          matrix.PairMoments();
      }
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
          op = "Set";
          const int row = rng.UniformInt(n);
          const int col = rng.UniformInt(m);
          // -1 is kAbstain.
          const int value = rng.UniformInt(num_classes + 1) - 1;
          expected[col][row] = static_cast<int8_t>(value);
          matrix.Set(row, col, value);
          break;
        }
        case 3:
        case 4: {
          op = "SelectColumns";
          const std::vector<int> cols = RandomSelection(m, rng);
          Columns selected;
          for (int j : cols) selected.push_back(expected[j]);
          const Columns parent_expected = expected;
          LabelMatrix child = matrix.SelectColumns(cols);
          // The parent is unchanged by the selection and keeps working.
          ExpectMatchesFromScratch(matrix, parent_expected, n,
                                   "parent after SelectColumns, seed " +
                                       std::to_string(seed));
          matrix = std::move(child);
          expected = std::move(selected);
          break;
        }
        default: {
          op = "SelectRows";
          const int k = rng.UniformInt(1, 60);
          std::vector<int> rows(k);
          for (int& r : rows) r = rng.UniformInt(n);
          for (auto& column : expected) {
            std::vector<int8_t> selected(k);
            for (int i = 0; i < k; ++i) selected[i] = column[rows[i]];
            column = std::move(selected);
          }
          matrix = matrix.SelectRows(rows);
          n = k;
        }
      }
      ExpectMatchesFromScratch(matrix, expected, n,
                               op + ", seed " + std::to_string(seed) +
                                   ", step " + std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LabelMatrixDifferentialTest, SelectedColumnsAreCopyOnWrite) {
  Rng rng(7);
  const int n = 30;
  Columns expected;
  LabelMatrix parent(n);
  for (int j = 0; j < 5; ++j) {
    expected.push_back(RandomColumn(n, 2, rng));
    parent.AddColumn(expected.back());
  }
  parent.PairMoments();
  LabelMatrix child = parent.SelectColumns({3, 1});
  Columns child_expected = {expected[3], expected[1]};

  child.Set(4, 0, expected[3][4] == 1 ? 0 : 1);
  child_expected[0][4] = expected[3][4] == 1 ? 0 : 1;
  parent.Set(5, 1, kAbstain);
  expected[1][5] = static_cast<int8_t>(kAbstain);
  expected.push_back(RandomColumn(n, 2, rng));
  parent.AddColumn(expected.back());

  ExpectMatchesFromScratch(parent, expected, n, "parent");
  ExpectMatchesFromScratch(child, child_expected, n, "child");
}

/// Binary or 3-class weak labels with a hidden ground truth: LF j fires
/// with its own coverage and votes the truth with its own accuracy.
LabelMatrix RandomLabelMatrix(int n, int m, int num_classes, Rng& rng) {
  std::vector<int> truth(n);
  for (int& y : truth) y = rng.UniformInt(num_classes);
  LabelMatrix matrix(n);
  matrix.PairMoments();  // from here on every column is merged in
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
  }
  models.push_back(std::make_unique<MajorityVoteModel>());
  models.push_back(std::make_unique<DawidSkeneModel>());
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
          FromScratch(ColumnsOf(derived), derived.num_rows());
      EXPECT_EQ(FitAll(derived, num_classes), FitAll(fresh, num_classes))
          << "seed " << seed << ", " << cols.size() << " columns";
    }
    // A row subset (the LabelPick query table) of the derived matrix.
    std::vector<int> rows;
    for (int i = 0; i < base.num_rows(); i += 7) rows.push_back(i);
    const LabelMatrix sliced = base.SelectColumns(ascending).SelectRows(rows);
    EXPECT_EQ(FitAll(sliced, num_classes),
              FitAll(FromScratch(ColumnsOf(sliced), sliced.num_rows()),
                     num_classes))
        << "seed " << seed << " row subset";
  }
}

}  // namespace
}  // namespace activedp
