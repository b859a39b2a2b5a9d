#include "graphical/markov_blanket.h"

#include <cmath>

#include "core/recovery.h"
#include "graphical/graphical_lasso.h"
#include "graphical/lasso.h"
#include "math/stats.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/retry.h"

namespace activedp {
namespace {

/// Standardizes columns in place (mean 0, stddev 1); constant columns become
/// all-zero so they cannot correlate with anything.
Matrix Standardize(const Matrix& data) {
  const int n = data.rows();
  const int p = data.cols();
  Matrix out(n, p);
  for (int j = 0; j < p; ++j) {
    double mean = 0.0;
    for (int i = 0; i < n; ++i) mean += data(i, j);
    mean /= n;
    double var = 0.0;
    for (int i = 0; i < n; ++i) {
      const double d = data(i, j) - mean;
      var += d * d;
    }
    var /= std::max(1, n - 1);
    const double inv = var > 1e-12 ? 1.0 / std::sqrt(var) : 0.0;
    for (int i = 0; i < n; ++i) out(i, j) = (data(i, j) - mean) * inv;
  }
  return out;
}

Result<std::vector<int>> BlanketViaNeighborhood(
    const Matrix& standardized, int target,
    const MarkovBlanketOptions& options) {
  const int n = standardized.rows();
  const int p = standardized.cols();
  Matrix x(n, p - 1);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    y[i] = standardized(i, target);
    for (int j = 0, jj = 0; j < p; ++j) {
      if (j == target) continue;
      x(i, jj++) = standardized(i, j);
    }
  }
  LassoOptions lasso;
  lasso.lambda = options.penalty;
  ASSIGN_OR_RETURN(std::vector<double> beta, LassoRegression(x, y, lasso));
  std::vector<int> blanket;
  for (int j = 0, jj = 0; j < p; ++j) {
    if (j == target) continue;
    if (std::fabs(beta[jj]) > options.edge_tolerance) blanket.push_back(j);
    ++jj;
  }
  return blanket;
}

}  // namespace

std::vector<int> BlanketFromPrecision(const Matrix& precision, int target,
                                      double tolerance) {
  CHECK_GE(target, 0);
  CHECK_LT(target, precision.rows());
  std::vector<int> blanket;
  for (int i = 0; i < precision.rows(); ++i) {
    if (i == target) continue;
    if (std::fabs(precision(i, target)) > tolerance) blanket.push_back(i);
  }
  return blanket;
}

Result<std::vector<int>> MarkovBlanket(const Matrix& data, int target,
                                       const MarkovBlanketOptions& options,
                                       RecoveryLog* recovery) {
  const int p = data.cols();
  if (p < 2) return Status::InvalidArgument("need at least 2 variables");
  if (target < 0 || target >= p)
    return Status::OutOfRange("target column out of range");
  if (data.rows() < 3)
    return Status::InvalidArgument("need at least 3 observations");

  const Matrix standardized = Standardize(data);

  if (options.method == BlanketMethod::kNeighborhoodSelection) {
    return BlanketViaNeighborhood(standardized, target, options);
  }

  const Matrix cov = CovarianceMatrix(standardized);
  GraphicalLassoOptions glasso;
  glasso.rho = options.penalty;
  glasso.limits = options.limits;
  // An unconverged precision estimate has unreliable zeros — exactly the
  // structure the blanket reads — so it is surfaced as a retryable failure
  // here: first the retry layer gets its attempts, then the
  // neighbourhood-selection degrade below.
  const auto solve = [&]() -> Result<GraphicalLassoResult> {
    Result<GraphicalLassoResult> r = GraphicalLasso(cov, glasso);
    if (r.ok() && !r->report.converged) {
      return Status::Internal("graphical lasso " + r->report.ToString());
    }
    return r;
  };
  Result<GraphicalLassoResult> result =
      options.retrier != nullptr
          ? options.retrier->RunResulting<GraphicalLassoResult>(
                "glasso.solve", options.limits, solve)
          : solve();
  if (!result.ok()) {
    if (IsBudgetTrip(result.status())) {
      // A spent budget is not a degradable failure; degrading to the
      // neighbourhood path would just burn more of it.
      return result.status();
    }
    if (recovery != nullptr) {
      recovery->Record("glasso", result.status().ToString(),
                       "neighbourhood-selection blanket");
    } else {
      LOG(Warning) << "graphical lasso failed (" << result.status().ToString()
                   << "); falling back to neighbourhood selection";
    }
    return BlanketViaNeighborhood(standardized, target, options);
  }
  return BlanketFromPrecision(result->precision, target,
                              options.edge_tolerance);
}

}  // namespace activedp
