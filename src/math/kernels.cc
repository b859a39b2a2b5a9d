#include "math/kernels.h"

#include <cmath>

namespace activedp {
namespace kernels {

// The reductions below spell out the canonical 4-lane association
// (kernels.h); their order of operations is part of every recorded digest.

double DotDense(const double* a, const double* b, int n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double DotSparse(const int* indices, const double* values, int nnz,
                 const double* w) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int k = 0;
  for (; k + 4 <= nnz; k += 4) {
    l0 += values[k] * w[indices[k]];
    l1 += values[k + 1] * w[indices[k + 1]];
    l2 += values[k + 2] * w[indices[k + 2]];
    l3 += values[k + 3] * w[indices[k + 3]];
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (; k < nnz; ++k) sum += values[k] * w[indices[k]];
  return sum;
}

double Sum(const double* v, int n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += v[i];
    l1 += v[i + 1];
    l2 += v[i + 2];
    l3 += v[i + 3];
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) sum += v[i];
  return sum;
}

void Axpy(double alpha, const double* x, double* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(double* v, int n, double factor) {
  for (int i = 0; i < n; ++i) v[i] *= factor;
}

void SoftmaxInPlace(double* v, int n) {
  if (n <= 0) return;
  double max = v[0];
  for (int i = 1; i < n; ++i) {
    if (v[i] > max) max = v[i];
  }
  for (int i = 0; i < n; ++i) v[i] = std::exp(v[i] - max);
  const double total = Sum(v, n);
  for (int i = 0; i < n; ++i) v[i] /= total;
}

}  // namespace kernels
}  // namespace activedp
