#ifndef ACTIVEDP_MATH_CSR_MATRIX_H_
#define ACTIVEDP_MATH_CSR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "math/matrix.h"
#include "util/check.h"

namespace activedp {

/// Compressed-sparse-row matrix of doubles. The sparse counterpart of the
/// dense `Matrix`, sized for the pipeline's tall-skinny workloads: weak-label
/// spin matrices (n examples x m LFs, mostly abstains) and TF-IDF feature
/// rows. Column indices within a row are stored in ascending order, which is
/// what makes sparse traversals bitwise-equivalent to dense loops that skip
/// zeros in index order (see DESIGN.md §13).
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }
  CsrMatrix(int rows, int cols) : rows_(0), cols_(cols) {
    CHECK_GE(rows, 0);
    CHECK_GE(cols, 0);
    row_ptr_.reserve(rows + 1);
    row_ptr_.push_back(0);
  }

  /// Builds from a dense matrix, dropping entries with |value| <= eps.
  static CsrMatrix FromDense(const Matrix& dense, double eps = 0.0);

  /// Densifies (zeros where no stored entry).
  Matrix ToDense() const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// Appends one row given parallel (index, value) arrays with ascending
  /// indices in [0, cols). `count` may be 0 (an empty row).
  void AppendRow(const int32_t* indices, const double* values, int count);

  /// Reserves storage for an expected total nnz (builder hint).
  void ReserveNnz(int64_t nnz) {
    col_indices_.reserve(static_cast<size_t>(nnz));
    values_.reserve(static_cast<size_t>(nnz));
  }

  int RowNnz(int r) const {
    DCHECK(r >= 0 && r < rows_);
    return static_cast<int>(row_ptr_[r + 1] - row_ptr_[r]);
  }
  const int32_t* RowIndices(int r) const {
    DCHECK(r >= 0 && r < rows_);
    return col_indices_.data() + row_ptr_[r];
  }
  const double* RowValues(int r) const {
    DCHECK(r >= 0 && r < rows_);
    return values_.data() + row_ptr_[r];
  }

  /// Dot of row r with a dense vector w (w.size() >= cols()). Uses the
  /// canonical 4-lane sparse-dot kernel.
  double RowDot(int r, const double* w) const;

  /// this * v (v.size() == cols()); per-row sparse dots.
  std::vector<double> MultiplyVector(const std::vector<double>& v) const;

  /// A^T * A as a dense cols() x cols() matrix. Row-driven scatter in row
  /// order. Intended for tall-skinny matrices (cols small).
  Matrix SelfInnerProduct() const;

 private:
  int rows_;
  int cols_;
  std::vector<int64_t> row_ptr_;     // size rows_+1
  std::vector<int32_t> col_indices_; // ascending within each row
  std::vector<double> values_;
};

}  // namespace activedp

#endif  // ACTIVEDP_MATH_CSR_MATRIX_H_
