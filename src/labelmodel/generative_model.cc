#include "labelmodel/generative_model.h"

#include <algorithm>
#include <cmath>

#include "labelmodel/spin_utils.h"
#include "util/check.h"
#include "util/string_util.h"

namespace activedp {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

Status GenerativeModel::Fit(const LabelMatrix& matrix, int num_classes) {
  if (num_classes != 2) {
    return Status::InvalidArgument(
        "GenerativeModel supports binary tasks only");
  }
  if (matrix.num_cols() == 0)
    return Status::InvalidArgument("label matrix has no LF columns");

  const int n = matrix.num_rows();
  const int m = matrix.num_cols();
  num_lfs_ = m;
  thetas_.assign(m, 0.2);  // mildly better-than-random initialization
  theta0_ = 0.0;

  std::vector<double> grad(m);
  for (int iter = 0; iter < options_.iterations; ++iter) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad0 = 0.0;

    // Data term: E_y[λ_j y | λ_i] summed over rows. With y ∈ {-1, +1} and
    // score(y) = θ_0 y + Σ_j θ_j λ_ij y, the posterior is
    // p_i = P(y=+1 | λ_i) = sigmoid(2 * score_half) where
    // score_half = θ_0 + Σ θ_j λ_ij.
    // Each row's active LFs come from the matrix's row view, in ascending
    // column order.
    for (int i = 0; i < n; ++i) {
      const ActiveRowView row = matrix.ActiveRow(i);
      double score_half = theta0_;
      for (int k = 0; k < row.nnz; ++k) {
        score_half += thetas_[row.cols[k]] * ToSpin(row.labels[k]);
      }
      const double p = Sigmoid(2.0 * score_half);
      const double ey = 2.0 * p - 1.0;  // E[y | λ_i]
      grad0 += ey;
      for (int k = 0; k < row.nnz; ++k) {
        grad[row.cols[k]] += ToSpin(row.labels[k]) * ey;
      }
    }

    // Model term: n * E_model[λ_j y]. Under the factorized model
    // E[λ_j y] = 2 sinh(θ_j) / (1 + 2 cosh θ_j); E[y] = tanh(θ_0) under the
    // class-bias factor alone (the per-LF sums are independent of y).
    for (int j = 0; j < m; ++j) {
      const double expected =
          2.0 * std::sinh(thetas_[j]) / (1.0 + 2.0 * std::cosh(thetas_[j]));
      grad[j] -= n * expected;
      grad[j] -= options_.l2 * n * thetas_[j];
    }
    grad0 -= n * std::tanh(theta0_);

    const double step = options_.learning_rate / n;
    for (int j = 0; j < m; ++j) {
      thetas_[j] = std::clamp(thetas_[j] + step * grad[j],
                              -options_.theta_clamp, options_.theta_clamp);
    }
    theta0_ = std::clamp(theta0_ + step * grad0, -options_.theta_clamp,
                         options_.theta_clamp);
  }
  return Status::Ok();
}

Result<std::string> GenerativeModel::SerializeParams() const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before SerializeParams");
  std::string out = std::to_string(num_lfs_);
  out += ' ';
  out += FormatExactDouble(theta0_);
  for (double t : thetas_) {
    out += ' ';
    out += FormatExactDouble(t);
  }
  return out;
}

Status GenerativeModel::RestoreParams(const std::string& params) {
  const std::vector<std::string> tokens = SplitWhitespace(params);
  int m = 0;
  if (tokens.empty() || !ParseInt(tokens[0], &m) || m <= 0) {
    return Status::InvalidArgument("generative-dp params: bad LF count");
  }
  if (static_cast<int>(tokens.size()) != 2 + m) {
    return Status::InvalidArgument(
        "generative-dp params: expected " + std::to_string(2 + m) +
        " tokens, got " + std::to_string(tokens.size()));
  }
  double theta0 = 0.0;
  if (!ParseDouble(tokens[1], &theta0)) {
    return Status::InvalidArgument("generative-dp params: bad theta0 '" +
                                   tokens[1] + "'");
  }
  std::vector<double> thetas(m);
  for (int j = 0; j < m; ++j) {
    if (!ParseDouble(tokens[2 + j], &thetas[j])) {
      return Status::InvalidArgument("generative-dp params: bad theta '" +
                                     tokens[2 + j] + "'");
    }
  }
  num_lfs_ = m;
  theta0_ = theta0;
  thetas_ = std::move(thetas);
  return Status::Ok();
}

Result<std::vector<double>> GenerativeModel::PredictProba(
    const std::vector<int>& weak_labels) const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  if (static_cast<int>(weak_labels.size()) != num_lfs_) {
    return Status::InvalidArgument(
        "weak-label row has " + std::to_string(weak_labels.size()) +
        " entries, model was fit on " + std::to_string(num_lfs_) + " LFs");
  }
  double score_half = theta0_;
  for (int j = 0; j < num_lfs_; ++j) {
    score_half += thetas_[j] * ToSpin(weak_labels[j]);
  }
  const double p1 = Sigmoid(2.0 * score_half);
  if (!std::isfinite(p1)) {
    return Status::Internal(
        "generative model prediction is non-finite");
  }
  return std::vector<double>{1.0 - p1, p1};
}

}  // namespace activedp
