#include "math/csr_matrix.h"

#include <cmath>

#include "math/kernels.h"

namespace activedp {

CsrMatrix CsrMatrix::FromDense(const Matrix& dense, double eps) {
  CsrMatrix out(dense.rows(), dense.cols());
  std::vector<int32_t> indices;
  std::vector<double> values;
  indices.reserve(dense.cols());
  values.reserve(dense.cols());
  for (int r = 0; r < dense.rows(); ++r) {
    indices.clear();
    values.clear();
    const double* row = dense.RowPtr(r);
    for (int c = 0; c < dense.cols(); ++c) {
      if (std::fabs(row[c]) > eps) {
        indices.push_back(c);
        values.push_back(row[c]);
      }
    }
    out.AppendRow(indices.data(), values.data(),
                  static_cast<int>(indices.size()));
  }
  return out;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    double* row = out.RowPtr(r);
    const int64_t begin = row_ptr_[r], end = row_ptr_[r + 1];
    for (int64_t k = begin; k < end; ++k) row[col_indices_[k]] = values_[k];
  }
  return out;
}

void CsrMatrix::AppendRow(const int32_t* indices, const double* values,
                          int count) {
  CHECK_GE(count, 0);
  for (int k = 0; k < count; ++k) {
    DCHECK(indices[k] >= 0 && indices[k] < cols_);
    DCHECK(k == 0 || indices[k] > indices[k - 1]);
  }
  col_indices_.insert(col_indices_.end(), indices, indices + count);
  values_.insert(values_.end(), values, values + count);
  row_ptr_.push_back(static_cast<int64_t>(col_indices_.size()));
  ++rows_;
}

double CsrMatrix::RowDot(int r, const double* w) const {
  return kernels::DotSparse(RowIndices(r), RowValues(r), RowNnz(r), w);
}

std::vector<double> CsrMatrix::MultiplyVector(
    const std::vector<double>& v) const {
  CHECK_EQ(static_cast<int>(v.size()), cols_);
  std::vector<double> out(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) out[r] = RowDot(r, v.data());
  return out;
}

Matrix CsrMatrix::SelfInnerProduct() const {
  Matrix out(cols_, cols_);
  for (int r = 0; r < rows_; ++r) {
    const int32_t* idx = RowIndices(r);
    const double* val = RowValues(r);
    const int count = RowNnz(r);
    for (int a = 0; a < count; ++a) {
      double* out_row = out.RowPtr(idx[a]);
      const double va = val[a];
      for (int b = 0; b < count; ++b) out_row[idx[b]] += va * val[b];
    }
  }
  return out;
}

}  // namespace activedp
