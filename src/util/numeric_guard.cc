#include "util/numeric_guard.h"

#include <cmath>

namespace activedp {

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool IsProbabilityVector(const double* p, int n, double tol) {
  if (n <= 0) return false;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    if (!std::isfinite(p[i]) || p[i] < -tol || p[i] > 1.0 + tol) return false;
    sum += p[i];
  }
  return std::fabs(sum - 1.0) <= tol * static_cast<double>(n) + tol;
}

bool RepairProbabilityVector(std::vector<double>* p) {
  if (p->empty()) return false;
  bool repaired = false;
  double sum = 0.0;
  for (double& v : *p) {
    if (!std::isfinite(v) || v < 0.0) {
      v = 0.0;
      repaired = true;
    }
    sum += v;
  }
  if (sum <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(p->size());
    for (double& v : *p) v = uniform;
    return true;
  }
  if (std::fabs(sum - 1.0) > 1e-12) {
    for (double& v : *p) v /= sum;
    repaired = repaired || std::fabs(sum - 1.0) > 1e-6;
  }
  return repaired;
}

}  // namespace activedp
