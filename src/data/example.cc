#include "data/example.h"

#include <algorithm>
#include <cmath>

#include "math/kernels.h"
#include "util/check.h"

namespace activedp {

double SparseDot(const SparseVector& x, const std::vector<double>& w) {
#ifndef NDEBUG
  for (int i : x.indices) DCHECK(i < static_cast<int>(w.size()));
#endif
  return kernels::DotSparse(x.indices.data(), x.values.data(), x.nnz(),
                            w.data());
}

void SparseAxpy(double alpha, const SparseVector& x, std::vector<double>& w) {
  for (size_t i = 0; i < x.indices.size(); ++i) {
    DCHECK(x.indices[i] < static_cast<int>(w.size()));
    w[x.indices[i]] += alpha * x.values[i];
  }
}

void L2Normalize(SparseVector& x) {
  // Canonical 4-lane self-dot + element-wise scale (math/kernels.h).
  const double ss =
      kernels::DotDense(x.values.data(), x.values.data(), x.nnz());
  if (ss <= 0.0) return;
  const double inv = 1.0 / std::sqrt(ss);
  kernels::Scale(x.values.data(), x.nnz(), inv);
}

bool Example::HasToken(int id) const {
  auto it = std::lower_bound(
      term_counts.begin(), term_counts.end(), id,
      [](const std::pair<int, int>& tc, int key) { return tc.first < key; });
  return it != term_counts.end() && it->first == id;
}

}  // namespace activedp
