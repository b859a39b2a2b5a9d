#include "graphical/graphical_lasso.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "graphical/lasso.h"
#include "math/kernels.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace activedp {
namespace {

bool MatrixFinite(const Matrix& m) {
  for (int i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    for (int j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(row[j])) return false;
    }
  }
  return true;
}

}  // namespace

Result<GraphicalLassoResult> GraphicalLasso(
    const Matrix& sample_covariance, const GraphicalLassoOptions& options) {
  const int p = sample_covariance.rows();
  if (sample_covariance.cols() != p)
    return Status::InvalidArgument("covariance must be square");
  if (p < 2) return Status::InvalidArgument("need at least 2 variables");
  if (options.rho < 0.0)
    return Status::InvalidArgument("rho must be non-negative");
  if (!MatrixFinite(sample_covariance))
    return Status::InvalidArgument("covariance has non-finite entries");

  TraceSpan span("glasso.solve");
  span.AddArg("p", p);

  const FaultKind fault = CheckFault(
      "glasso.solve",
      {FaultKind::kError, FaultKind::kNan, FaultKind::kNoConverge});
  if (fault == FaultKind::kError) {
    return Status::Internal("injected fault at glasso.solve");
  }

  const Matrix& s = sample_covariance;
  // W starts at S with rho added to the diagonal (keeps W positive definite
  // even for degenerate S, e.g. constant columns).
  Matrix w = s;
  for (int j = 0; j < p; ++j) w(j, j) += options.rho;

  // Per-column lasso coefficients, kept across sweeps for warm starts and
  // for the final precision reconstruction.
  std::vector<std::vector<double>> betas(p, std::vector<double>(p - 1, 0.0));

  Matrix w11(p - 1, p - 1);
  std::vector<double> s12(p - 1);
  int iterations = 0;
  bool converged = false;
  double last_max_change = 0.0;
  for (; iterations < options.max_iterations; ++iterations) {
    const Status limit = options.limits.Check("glasso.solve");
    if (!limit.ok()) {
      // Partial-progress report: how far the sweep got before the budget
      // tripped, so callers can log/decide without rerunning.
      return Status(limit.code(),
                    "graphical lasso: " + limit.message() + " after " +
                        std::to_string(iterations) + " of " +
                        std::to_string(options.max_iterations) +
                        " sweeps (last delta " +
                        std::to_string(last_max_change) + ")");
    }
    double max_change = 0.0;
    // The column sweep is inherently sequential: each column update reads
    // the W produced by the previous one. The budget is checked per column.
    std::vector<double> w12_new(p - 1);
    for (int col = 0; col < p; ++col) {
      RETURN_IF_ERROR(options.limits.Check("glasso.solve"));
      // Partition: w11 = W without row/col `col`; s12 = S column `col`.
      // Each source row splits into two contiguous memcpy segments around
      // the dropped column — cache-blocked and branch-free per element.
      for (int ii = 0; ii < p - 1; ++ii) {
        const int i = ii < col ? ii : ii + 1;
        const double* src = w.RowPtr(i);
        double* dst = w11.RowPtr(ii);
        if (col > 0) {
          std::memcpy(dst, src, sizeof(double) * col);
        }
        if (col < p - 1) {
          std::memcpy(dst + col, src + col + 1, sizeof(double) * (p - 1 - col));
        }
        s12[ii] = s(i, col);
      }

      std::vector<double> beta =
          LassoQuadratic(w11, s12, options.rho, options.lasso_max_iterations,
                         options.lasso_tolerance);
      // w12 = W11 * beta into w12_new (no aliasing with the w11 reads), then
      // applied together with the convergence gap.
      for (int ii = 0; ii < p - 1; ++ii) {
        w12_new[ii] = kernels::DotDense(w11.RowPtr(ii), beta.data(), p - 1);
      }
      for (int ii = 0; ii < p - 1; ++ii) {
        const int i = ii < col ? ii : ii + 1;
        max_change = std::max(max_change, std::fabs(w(i, col) - w12_new[ii]));
        w(i, col) = w12_new[ii];
        w(col, i) = w12_new[ii];
      }
      betas[col] = std::move(beta);
    }
    last_max_change = max_change;
    if (!std::isfinite(max_change)) {
      return Status::Internal(
          "graphical lasso diverged: non-finite update at sweep " +
          std::to_string(iterations + 1));
    }
    if (max_change < options.tolerance) {
      converged = true;
      ++iterations;
      break;
    }
  }
  if (fault == FaultKind::kNoConverge) converged = false;

  // Reconstruct Theta from the final W and betas:
  //   theta_cc = 1 / (w_cc - w12' beta),  theta_12 = -beta * theta_cc.
  Matrix theta(p, p);
  for (int col = 0; col < p; ++col) {
    double w12_beta = 0.0;
    for (int i = 0, ii = 0; i < p; ++i) {
      if (i == col) continue;
      w12_beta += w(i, col) * betas[col][ii++];
    }
    const double denom = w(col, col) - w12_beta;
    if (denom <= 0.0)
      return Status::Internal("graphical lasso: non-positive pivot");
    const double theta_cc = 1.0 / denom;
    theta(col, col) = theta_cc;
    for (int i = 0, ii = 0; i < p; ++i) {
      if (i == col) continue;
      theta(i, col) = -betas[col][ii++] * theta_cc;
    }
  }
  // Symmetrize by averaging the two directed estimates.
  for (int i = 0; i < p; ++i) {
    for (int j = i + 1; j < p; ++j) {
      const double avg = 0.5 * (theta(i, j) + theta(j, i));
      theta(i, j) = avg;
      theta(j, i) = avg;
    }
  }

  if (fault == FaultKind::kNan) {
    theta(0, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  if (!MatrixFinite(theta) || !MatrixFinite(w)) {
    return Status::Internal(
        "graphical lasso produced a non-finite estimate");
  }

  MetricsRegistry::Global().counter("glasso.sweeps").Increment(iterations);
  span.AddArg("sweeps", iterations);
  span.AddArg("converged", converged ? 1 : 0);
  if (!converged) {
    TraceInstant("convergence", "glasso.solve",
                 "not converged after " + std::to_string(iterations) +
                     " sweeps (delta " + std::to_string(last_max_change) +
                     ")");
  }

  GraphicalLassoResult result;
  result.covariance = std::move(w);
  result.precision = std::move(theta);
  result.iterations = iterations;
  result.report.converged = converged;
  result.report.iterations = iterations;
  result.report.final_delta = last_max_change;
  result.report.finite = true;
  return result;
}

}  // namespace activedp
