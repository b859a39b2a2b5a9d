// Sparse data plane + numeric kernels (DESIGN.md §13):
//  - every kernel is bitwise identical to a test-local reference of the
//    canonical 4-lane association, including ragged tails;
//  - CsrMatrix round-trips dense matrices exactly and its products match the
//    dense path, including all-zero rows and empty columns;
//  - LabelMatrix's maintained active counts and lazily built CSR row view
//    agree with a reference scan, across mutation (AddColumn / Set);
//  - the label models' PredictProbaSparse is bitwise equal to dense
//    PredictProba on every row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "lf/lf_applier.h"
#include "labelmodel/majority_vote.h"
#include "labelmodel/metal_completion.h"
#include "labelmodel/metal_model.h"
#include "math/csr_matrix.h"
#include "math/kernels.h"
#include "math/matrix.h"
#include "util/rng.h"

namespace activedp {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Test-local references for the canonical 4-lane association
// (math/kernels.h), written independently of the kernels: lane l sums
// term(4i + l) over the full blocks in order of i, the lanes combine as
// (l0 + l1) + (l2 + l3), and the n % 4 tail terms follow one at a time.
template <typename Term>
double LaneReference(int n, Term term) {
  const int full = n - n % 4;
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (int l = 0; l < 4; ++l) {
    for (int i = 0; 4 * i + l < full; ++i) lane[l] += term(4 * i + l);
  }
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (int k = full; k < n; ++k) sum += term(k);
  return sum;
}

std::vector<double> SoftmaxReference(std::vector<double> v) {
  const int n = static_cast<int>(v.size());
  if (n == 0) return v;
  double max = v[0];
  for (int i = 1; i < n; ++i) max = std::max(max, v[i]);
  for (double& x : v) x = std::exp(x - max);
  const double total = LaneReference(n, [&](int i) { return v[i]; });
  for (double& x : v) x /= total;
  return v;
}

TEST(KernelsTest, LaneContractBitwiseFuzz) {
  Rng rng(20240809);
  // Sizes straddle every tail length of the 4-wide main loop, plus a couple
  // of larger blocks.
  const std::vector<int> sizes = {0,  1,  2,  3,  4,  5,  6,  7,  8,
                                  9,  15, 16, 17, 31, 64, 67, 255};
  for (const int n : sizes) {
    std::vector<double> a(n), b(n), w(4 * n + 1);
    for (double& v : a) v = rng.Normal();
    for (double& v : b) v = rng.Normal();
    for (double& v : w) v = rng.Normal();
    std::vector<int32_t> idx(n);
    {
      // Strictly ascending sparse indices into w.
      int cursor = 0;
      for (int k = 0; k < n; ++k) {
        cursor += 1 + rng.UniformInt(3);
        idx[k] = cursor;
      }
    }
    std::vector<double> soft(n);
    for (double& v : soft) v = rng.Uniform(-30.0, 30.0);

    EXPECT_EQ(Bits(LaneReference(n, [&](int i) { return a[i] * b[i]; })),
              Bits(kernels::DotDense(a.data(), b.data(), n)))
        << "DotDense n=" << n;
    EXPECT_EQ(
        Bits(LaneReference(n, [&](int k) { return a[k] * w[idx[k]]; })),
        Bits(kernels::DotSparse(idx.data(), a.data(), n, w.data())))
        << "DotSparse n=" << n;
    EXPECT_EQ(Bits(LaneReference(n, [&](int i) { return a[i]; })),
              Bits(kernels::Sum(a.data(), n)))
        << "Sum n=" << n;

    std::vector<double> axpy = b;
    kernels::Axpy(1.7, a.data(), axpy.data(), n);
    std::vector<double> scale = a;
    kernels::Scale(scale.data(), n, -0.37);
    std::vector<double> softmax = soft;
    kernels::SoftmaxInPlace(softmax.data(), n);
    const std::vector<double> ref_softmax = SoftmaxReference(soft);
    for (int k = 0; k < n; ++k) {
      ASSERT_EQ(Bits(b[k] + 1.7 * a[k]), Bits(axpy[k]))
          << "Axpy n=" << n << " k=" << k;
      ASSERT_EQ(Bits(a[k] * -0.37), Bits(scale[k]))
          << "Scale n=" << n << " k=" << k;
      ASSERT_EQ(Bits(ref_softmax[k]), Bits(softmax[k]))
          << "Softmax n=" << n << " k=" << k;
    }
  }
}

// Random dense matrix with controllable sparsity; `zero_rows` / `zero_cols`
// force whole rows/columns to zero (the CSR edge cases).
Matrix RandomSparseDense(Rng& rng, int rows, int cols, double density,
                         const std::vector<int>& zero_rows,
                         const std::vector<int>& zero_cols) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng.Uniform() < density) m(r, c) = rng.Normal();
    }
  }
  for (const int r : zero_rows) {
    for (int c = 0; c < cols; ++c) m(r, c) = 0.0;
  }
  for (const int c : zero_cols) {
    for (int r = 0; r < rows; ++r) m(r, c) = 0.0;
  }
  return m;
}

TEST(CsrMatrixTest, DenseRoundTripFuzz) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int rows = 1 + rng.UniformInt(40);
    const int cols = 1 + rng.UniformInt(30);
    const double density = rng.Uniform();  // includes near-0 and near-1
    std::vector<int> zero_rows, zero_cols;
    if (rows > 2) zero_rows = {0, rows - 1};
    if (cols > 2) zero_cols = {cols / 2};
    const Matrix dense =
        RandomSparseDense(rng, rows, cols, density, zero_rows, zero_cols);
    const CsrMatrix csr = CsrMatrix::FromDense(dense);
    ASSERT_EQ(csr.rows(), rows);
    ASSERT_EQ(csr.cols(), cols);
    const Matrix back = csr.ToDense();
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        ASSERT_EQ(Bits(dense(r, c)), Bits(back(r, c)))
            << "trial " << trial << " (" << r << "," << c << ")";
      }
    }
    for (const int r : zero_rows) EXPECT_EQ(csr.RowNnz(r), 0);
  }
}

TEST(CsrMatrixTest, ProductsMatchDenseFuzz) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int rows = 5 + rng.UniformInt(60);
    const int cols = 2 + rng.UniformInt(12);
    // Integer-valued entries: sums of products are exact, so sparse and
    // dense accumulation orders must agree to the last bit.
    Matrix dense(rows, cols);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (rng.Uniform() < 0.3) {
          dense(r, c) = static_cast<double>(rng.UniformInt(-3, 3));
        }
      }
    }
    const CsrMatrix csr = CsrMatrix::FromDense(dense);

    // RowDot == dense row dot restricted to stored entries (exact sums).
    std::vector<double> v(cols);
    for (double& x : v) x = static_cast<double>(rng.UniformInt(-5, 5));
    const std::vector<double> product = csr.MultiplyVector(v);
    for (int r = 0; r < rows; ++r) {
      double expected = 0.0;
      for (int c = 0; c < cols; ++c) expected += dense(r, c) * v[c];
      ASSERT_EQ(Bits(expected), Bits(product[r])) << "row " << r;
    }

    // A^T A == dense transpose-multiply (exact integer sums).
    const Matrix ata = csr.SelfInnerProduct();
    const Matrix dense_ata = dense.Transpose().Multiply(dense);
    for (int a = 0; a < cols; ++a) {
      for (int b = 0; b < cols; ++b) {
        ASSERT_EQ(Bits(dense_ata(a, b)), Bits(ata(a, b)))
            << "(" << a << "," << b << ")";
      }
    }
  }
}

// Reference LabelMatrix built with per-entry scans, for differential tests.
LabelMatrix RandomLabelMatrix(Rng& rng, int rows, int cols,
                              double fire_rate) {
  LabelMatrix matrix(rows);
  for (int j = 0; j < cols; ++j) {
    std::vector<int8_t> column(rows, kAbstain);
    for (int i = 0; i < rows; ++i) {
      if (rng.Uniform() < fire_rate) {
        column[i] = static_cast<int8_t>(rng.UniformInt(2));
      }
    }
    // Guarantee at least one all-abstain row and one all-abstain column.
    if (j == cols - 1) std::fill(column.begin(), column.end(), kAbstain);
    if (rows > 0) column[0] = kAbstain;
    matrix.AddColumn(std::move(column));
  }
  return matrix;
}

TEST(LabelMatrixTest, ActiveCountsAndRowsMatchReferenceScan) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const int rows = 1 + rng.UniformInt(50);
    const int cols = 1 + rng.UniformInt(10);
    LabelMatrix matrix = RandomLabelMatrix(rng, rows, cols, rng.Uniform());
    for (int i = 0; i < rows; ++i) {
      int expected_count = 0;
      std::vector<int32_t> expected_cols;
      std::vector<int8_t> expected_labels;
      for (int j = 0; j < cols; ++j) {
        if (matrix.At(i, j) != kAbstain) {
          ++expected_count;
          expected_cols.push_back(j);
          expected_labels.push_back(static_cast<int8_t>(matrix.At(i, j)));
        }
      }
      ASSERT_EQ(matrix.ActiveCount(i), expected_count) << "row " << i;
      ASSERT_EQ(matrix.AnyActive(i), expected_count > 0) << "row " << i;
      const ActiveRowView view = matrix.ActiveRow(i);
      ASSERT_EQ(view.nnz, expected_count) << "row " << i;
      for (int k = 0; k < view.nnz; ++k) {
        ASSERT_EQ(view.cols[k], expected_cols[k]) << "row " << i;
        ASSERT_EQ(view.labels[k], expected_labels[k]) << "row " << i;
      }
    }
    // SpinCsr: +1 for label 1, -1 for label 0, abstains dropped.
    const CsrMatrix spins = matrix.SpinCsr();
    for (int i = 0; i < rows; ++i) {
      const ActiveRowView view = matrix.ActiveRow(i);
      ASSERT_EQ(spins.RowNnz(i), view.nnz);
      for (int k = 0; k < view.nnz; ++k) {
        ASSERT_EQ(spins.RowIndices(i)[k], view.cols[k]);
        ASSERT_EQ(spins.RowValues(i)[k], view.labels[k] == 1 ? 1.0 : -1.0);
      }
    }
  }
}

TEST(LabelMatrixTest, RelabelKeepsCountsAndRows) {
  LabelMatrix matrix(3);
  matrix.AddColumn({0, kAbstain, 1});
  matrix.AddColumn({kAbstain, kAbstain, 0});
  EXPECT_EQ(matrix.ActiveCount(0), 1);
  EXPECT_FALSE(matrix.AnyActive(1));
  EXPECT_EQ(matrix.ActiveCount(2), 2);

  matrix.Relabel(0, 0, 1);  // 0 -> 1
  matrix.Relabel(2, 1, 1);  // 0 -> 1
  matrix.Relabel(2, 0, 1);  // 1 -> 1 (unchanged)
  EXPECT_EQ(matrix.ActiveCount(0), 1);
  EXPECT_FALSE(matrix.AnyActive(1));
  EXPECT_EQ(matrix.ActiveCount(2), 2);

  const ActiveRowView row2 = matrix.ActiveRow(2);
  ASSERT_EQ(row2.nnz, 2);
  EXPECT_EQ(row2.cols[0], 0);
  EXPECT_EQ(row2.labels[0], 1);
  EXPECT_EQ(row2.cols[1], 1);
  EXPECT_EQ(row2.labels[1], 1);
  // Row 2 now votes +1 twice: its pair's spin sum went -1 -> +1.
  EXPECT_EQ(matrix.PairMoments().Sum(0, 1), 1);
  EXPECT_EQ(matrix.PairMoments().Count(0, 1), 1);
}

TEST(LabelModelTest, SparsePredictionsBitwiseEqualDense) {
  Rng rng(4242);
  const LabelMatrix matrix = RandomLabelMatrix(rng, 300, 12, 0.25);

  MetalModel metal;
  ASSERT_TRUE(metal.Fit(matrix, 2).ok());
  MetalCompletionModel completion;
  ASSERT_TRUE(completion.Fit(matrix, 2).ok());
  MajorityVoteModel majority;
  ASSERT_TRUE(majority.Fit(matrix, 2).ok());
  const std::vector<const LabelModel*> models = {&metal, &completion,
                                                 &majority};

  for (const LabelModel* model : models) {
    for (int i = 0; i < matrix.num_rows(); ++i) {
      std::vector<int> row(matrix.num_cols());
      for (int j = 0; j < matrix.num_cols(); ++j) row[j] = matrix.At(i, j);
      const auto dense = model->PredictProba(row);
      ASSERT_TRUE(dense.ok()) << dense.status().ToString();
      const auto sparse =
          model->PredictProbaSparse(matrix.ActiveRow(i), matrix.num_cols());
      ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
      ASSERT_EQ(dense->size(), sparse->size());
      for (size_t c = 0; c < dense->size(); ++c) {
        ASSERT_EQ(Bits((*dense)[c]), Bits((*sparse)[c]))
            << "row " << i << " class " << c;
      }
    }
  }
}

}  // namespace
}  // namespace activedp
