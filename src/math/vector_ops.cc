#include "math/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "math/kernels.h"
#include "util/check.h"

namespace activedp {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  CHECK_EQ(a.size(), b.size());
  return kernels::DotDense(a.data(), b.data(), static_cast<int>(a.size()));
}

void Axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  CHECK_EQ(x.size(), y.size());
  kernels::Axpy(alpha, x.data(), y.data(), static_cast<int>(x.size()));
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

double Sum(const std::vector<double>& v) {
  return kernels::Sum(v.data(), static_cast<int>(v.size()));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return Sum(v) / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double mean = Mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(v.size() - 1);
}

double LogSumExp(const std::vector<double>& logits) {
  CHECK(!logits.empty());
  const double max = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double x : logits) sum += std::exp(x - max);
  return max + std::log(sum);
}

std::vector<double> Softmax(const std::vector<double>& logits) {
  CHECK(!logits.empty());
  std::vector<double> out = logits;
  kernels::SoftmaxInPlace(out.data(), static_cast<int>(out.size()));
  return out;
}

double Entropy(const std::vector<double>& p) {
  return Entropy(p.data(), static_cast<int>(p.size()));
}

double Entropy(const double* p, int n) {
  double h = 0.0;
  for (int i = 0; i < n; ++i) {
    if (p[i] > 0.0) h -= p[i] * std::log(p[i]);
  }
  return h;
}

int ArgMax(const std::vector<double>& v) {
  CHECK(!v.empty());
  return static_cast<int>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

double Max(const std::vector<double>& v) {
  CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

}  // namespace activedp
