#include "math/matrix.h"

#include <algorithm>
#include <cmath>

#include "math/kernels.h"
#include "util/string_util.h"

namespace activedp {
Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  for (int r = 0; r < rows_; ++r) {
    const double* a = RowPtr(r);
    double* o = out.RowPtr(r);
    for (int k = 0; k < cols_; ++k) {
      const double aval = a[k];
      if (aval == 0.0) continue;
      // Element-wise axpy (kernels.h).
      kernels::Axpy(aval, other.RowPtr(k), o, other.cols_);
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVector(const std::vector<double>& v) const {
  CHECK_EQ(static_cast<int>(v.size()), cols_);
  std::vector<double> out(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    out[r] = kernels::DotDense(RowPtr(r), v.data(), cols_);
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  CHECK_EQ(rows_, other.rows_);
  CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::Subtract(const Matrix& other) const {
  CHECK_EQ(rows_, other.rows_);
  CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double factor) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= factor;
  return out;
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CHECK_EQ(a.rows_, b.rows_);
  CHECK_EQ(a.cols_, b.cols_);
  double max_diff = 0.0;
  for (size_t i = 0; i < a.data_.size(); ++i)
    max_diff = std::max(max_diff, std::fabs(a.data_[i] - b.data_[i]));
  return max_diff;
}

std::string Matrix::DebugString(int digits) const {
  std::string out;
  for (int r = 0; r < rows_; ++r) {
    out += "[";
    for (int c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += FormatDouble((*this)(r, c), digits);
    }
    out += "]\n";
  }
  return out;
}

}  // namespace activedp
