#ifndef ACTIVEDP_MATH_MATRIX_H_
#define ACTIVEDP_MATH_MATRIX_H_

#include <string>
#include <vector>

#include "util/check.h"

namespace activedp {

/// Dense row-major matrix of doubles. Small and dependency-free; sized for
/// the library's needs (covariance/precision matrices up to a few hundred
/// rows, model weight matrices).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    CHECK_GE(rows, 0);
    CHECK_GE(cols, 0);
  }

  static Matrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Pointer to the start of row r.
  double* RowPtr(int r) { return &data_[static_cast<size_t>(r) * cols_]; }
  const double* RowPtr(int r) const {
    return &data_[static_cast<size_t>(r) * cols_];
  }

  void Fill(double value);

  Matrix Transpose() const;

  /// this * other; dimensions must agree.
  Matrix Multiply(const Matrix& other) const;

  /// this * v (v.size() == cols()).
  std::vector<double> MultiplyVector(const std::vector<double>& v) const;

  /// Element-wise this + other.
  Matrix Add(const Matrix& other) const;

  /// Element-wise this - other.
  Matrix Subtract(const Matrix& other) const;

  /// Element-wise scaling.
  Matrix Scale(double factor) const;

  /// Max |a(i,j) - b(i,j)|.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

  /// Multi-line debug rendering.
  std::string DebugString(int digits = 4) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

}  // namespace activedp

#endif  // ACTIVEDP_MATH_MATRIX_H_
