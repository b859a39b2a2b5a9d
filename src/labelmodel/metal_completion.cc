#include "labelmodel/metal_completion.h"

#include <algorithm>
#include <cmath>

#include "labelmodel/spin_utils.h"
#include "math/kernels.h"
#include "math/linalg.h"
#include "math/matrix.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace activedp {

Status MetalCompletionModel::Fit(const LabelMatrix& matrix, int num_classes) {
  if (num_classes != 2) {
    return Status::InvalidArgument(
        "MetalCompletionModel supports binary tasks only");
  }
  if (matrix.num_cols() == 0)
    return Status::InvalidArgument("label matrix has no LF columns");

  const int n = matrix.num_rows();
  const int m = matrix.num_cols();
  num_lfs_ = 0;  // refuse predictions until this fit succeeds

  TraceSpan span("metal_completion.fit");
  span.AddArg("rows", n);
  span.AddArg("lfs", m);

  MetalModelOptions fallback_options;
  fallback_options.limits = options_.limits;
  const auto fit_fallback = [&]() -> Status {
    fallback_.emplace(fallback_options);
    RETURN_IF_ERROR(fallback_->Fit(matrix, num_classes));
    num_lfs_ = m;
    return Status::Ok();
  };
  if (m < options_.min_lfs_for_completion) return fit_fallback();
  fallback_.reset();

  // Spin means, coverages and class balance via majority vote, row-driven
  // off the matrix's CSR view (O(nnz) instead of O(n m)). Chunked over
  // rows with per-chunk partial sums combined in chunk order; every term is
  // a spin in {-1, +1} or a count, so the sums are exact integers and the
  // result is bitwise identical at any thread count.
  // Read before the parallel region: a first request builds the row view
  // and the store.
  const SpinPairMoments& moments = matrix.PairMoments();
  const int grain = BoundedGrain(n, 1024, 64);
  const int chunks = NumChunks(n, grain);
  std::vector<std::vector<double>> mean_part(chunks), coverage_part(chunks);
  std::vector<double> mv_positive_part(chunks, 0.0), mv_total_part(chunks, 0.0);
  RETURN_IF_ERROR(ParallelForChunks(
      ComputePool(), n, grain, options_.limits, "metal.completion",
      [&](int chunk, int begin, int end) {
        std::vector<double>& pmean = mean_part[chunk];
        std::vector<double>& pcov = coverage_part[chunk];
        pmean.assign(m, 0.0);
        pcov.assign(m, 0.0);
        for (int i = begin; i < end; ++i) {
          const ActiveRowView row = matrix.ActiveRow(i);
          double vote = 0.0;
          for (int k = 0; k < row.nnz; ++k) {
            const double s = row.labels[k] == 1 ? 1.0 : -1.0;
            pmean[row.cols[k]] += s;
            pcov[row.cols[k]] += 1.0;
            vote += s;
          }
          if (vote != 0.0) {
            mv_total_part[chunk] += 1.0;
            if (vote > 0.0) mv_positive_part[chunk] += 1.0;
          }
        }
      }));
  std::vector<double> mean(m, 0.0), coverage(m, 0.0);
  double mv_positive = 1.0, mv_total = 2.0;  // Laplace
  for (int c = 0; c < chunks; ++c) {
    for (int j = 0; j < m; ++j) {
      mean[j] += mean_part[c][j];
      coverage[j] += coverage_part[c][j];
    }
    mv_positive += mv_positive_part[c];
    mv_total += mv_total_part[c];
  }
  for (int j = 0; j < m; ++j) {
    mean[j] /= n;
    coverage[j] /= n;
  }
  positive_prior_ = mv_positive / mv_total;
  const double ey = 2.0 * positive_prior_ - 1.0;
  const double var_y = std::max(1e-3, 1.0 - ey * ey);

  // Spin covariance with a ridge (abstains contribute 0 spins), via the
  // pairwise active-product matrix P = S^T S of the spin matrix, which the
  // label matrix's pair-moment store holds (PairMoments().Sum):
  //   Σ(j, k) = P(j, k) / n − mean_j · mean_k.
  // This is the textbook expansion of Σ_i (s_ij − m_j)(s_ik − m_k) / n.
  // Every entry of P is an exact integer, so Σ is bitwise identical at any
  // thread count and however the store was built.
  RETURN_IF_ERROR(options_.limits.Check("metal.completion"));
  Matrix sigma(m, m);
  for (int j = 0; j < m; ++j) {
    for (int k = j; k < m; ++k) {
      sigma(j, k) =
          static_cast<double>(moments.Sum(j, k)) / n - mean[j] * mean[k];
      sigma(k, j) = sigma(j, k);
    }
    sigma(j, j) += options_.ridge;
  }

  ASSIGN_OR_RETURN(Matrix k_matrix, InverseSpd(sigma));

  // Rank-one completion: minimize L(z) = sum_{i != j} (K_ij + z_i z_j)^2 by
  // gradient descent. Initialize from sqrt of |K| row means with the
  // better-than-random sign convention.
  std::vector<double> z(m, 0.0);
  for (int i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int j = 0; j < m; ++j) {
      if (j != i) acc += std::fabs(k_matrix(i, j));
    }
    z[i] = std::sqrt(acc / std::max(1, m - 1)) + 1e-3;
  }
  // Scale the step size by the magnitude of K so a badly conditioned
  // covariance (e.g. duplicated LFs pushing Σ toward singularity) cannot
  // blow the iteration up, and keep z in a sane box.
  double max_abs_k = 1.0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (j != i) max_abs_k = std::max(max_abs_k, std::fabs(k_matrix(i, j)));
    }
  }
  const double step = options_.gd_learning_rate / max_abs_k;
  std::vector<double> grad(m);
  // grad_i = 4 * sum_{j != i} (K_ij + z_i z_j) z_j, split into vectorized
  // dots plus diagonal corrections:
  //   sum_j K_ij z_j − K_ii z_i + z_i (z·z − z_i^2).
  // Both dots use the canonical 4-lane kernel, so each grad[i] is a fixed
  // association independent of the thread count. Small
  // systems stay serial: the launch would cost more than the sweep.
  ThreadPool* const gd_pool = m >= 64 ? ComputePool() : nullptr;
  const int gd_grain = BoundedGrain(m, 16, 64);
  for (int iter = 0; iter < options_.gd_iterations; ++iter) {
    if ((iter & 31) == 0)
      RETURN_IF_ERROR(options_.limits.Check("metal.completion"));
    const double zz = kernels::DotDense(z.data(), z.data(), m);
    const Status gd_status = ParallelForChunks(
        gd_pool, m, gd_grain, RunLimits::Unlimited(), "metal.completion",
        [&](int /*chunk*/, int begin, int end) {
          for (int i = begin; i < end; ++i) {
            const double g =
                kernels::DotDense(k_matrix.RowPtr(i), z.data(), m) -
                k_matrix(i, i) * z[i] + z[i] * (zz - z[i] * z[i]);
            grad[i] = 4.0 * g;
          }
        });
    CHECK(gd_status.ok());  // unlimited budget: Check can never trip
    for (int i = 0; i < m; ++i) {
      z[i] = std::clamp(z[i] - step * grad[i], -100.0, 100.0);
    }
  }
  MetricsRegistry::Global()
      .counter("metal_completion.gd_iterations")
      .Increment(options_.gd_iterations);

  // Cov(λ, Y) = Σ_O z / sqrt(d) with d = (1 + z' Σ_O z) / Var(Y).
  std::vector<double> sigma_z = sigma.MultiplyVector(z);
  const double ztsz = kernels::DotDense(z.data(), sigma_z.data(), m);
  const double d = std::max(1e-6, (1.0 + ztsz) / var_y);
  std::vector<double> cov_ly(m);
  for (int i = 0; i < m; ++i) cov_ly[i] = sigma_z[i] / std::sqrt(d);

  // Global sign: LFs are better than random on average.
  double sign_probe = 0.0;
  for (int i = 0; i < m; ++i) sign_probe += cov_ly[i];
  const double sign = sign_probe >= 0.0 ? 1.0 : -1.0;

  // a_i = E[λ_i Y | active] = (Cov(λ_i, Y) + E[λ_i] E[Y]) / coverage_i.
  accuracies_.assign(m, 0.0);
  bool finite = true;
  for (int i = 0; i < m; ++i) {
    if (coverage[i] <= 0.0) continue;
    const double e_ly = sign * cov_ly[i] + mean[i] * ey;
    accuracies_[i] = std::clamp(e_ly / coverage[i], -options_.accuracy_clamp,
                                options_.accuracy_clamp);
    if (!std::isfinite(accuracies_[i])) finite = false;
  }
  // A diverged completion solve falls back to the robust estimator.
  if (!finite) return fit_fallback();
  log_odds_ = MakeSpinLogOdds(accuracies_, positive_prior_);
  num_lfs_ = m;
  return Status::Ok();
}

Result<std::string> MetalCompletionModel::SerializeParams() const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before SerializeParams");
  // Use the effective accessors so a fallback-handled fit serializes the
  // parameters that actually drive PredictProba; both paths share
  // SpinLogOdds, so restoring into completion state is bitwise
  // prediction-equivalent.
  std::vector<double> accuracies(num_lfs_);
  for (int j = 0; j < num_lfs_; ++j) accuracies[j] = accuracy_param(j);
  return EncodeSpinAccuracyParams(num_lfs_, positive_prior(), accuracies);
}

Status MetalCompletionModel::RestoreParams(const std::string& params) {
  RETURN_IF_ERROR(DecodeSpinAccuracyParams(
      name(), params, &num_lfs_, &positive_prior_, &accuracies_));
  log_odds_ = MakeSpinLogOdds(accuracies_, positive_prior_);
  fallback_.reset();
  return Status::Ok();
}

Result<std::vector<double>> MetalCompletionModel::PredictProba(
    const std::vector<int>& weak_labels) const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  if (fallback_.has_value()) return fallback_->PredictProba(weak_labels);
  if (static_cast<int>(weak_labels.size()) != num_lfs_) {
    return Status::InvalidArgument(
        "weak-label row has " + std::to_string(weak_labels.size()) +
        " entries, model was fit on " + std::to_string(num_lfs_) + " LFs");
  }
  return SpinNaiveBayesProba(log_odds_, weak_labels);
}

Result<std::vector<double>> MetalCompletionModel::PredictProbaSparse(
    const ActiveRowView& row, int num_cols) const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  if (fallback_.has_value()) {
    return fallback_->PredictProbaSparse(row, num_cols);
  }
  if (num_cols != num_lfs_) {
    return Status::InvalidArgument(
        "weak-label row has " + std::to_string(num_cols) +
        " entries, model was fit on " + std::to_string(num_lfs_) + " LFs");
  }
  return SpinNaiveBayesProbaSparse(log_odds_, row);
}

}  // namespace activedp
