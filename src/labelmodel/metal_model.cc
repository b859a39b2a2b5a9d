#include "labelmodel/metal_model.h"

#include <algorithm>
#include <cmath>

#include <limits>

#include "labelmodel/spin_utils.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/numeric_guard.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace activedp {

Status MetalModel::Fit(const LabelMatrix& matrix, int num_classes) {
  if (num_classes != 2) {
    return Status::InvalidArgument(
        "MetalModel supports binary tasks only; use DawidSkeneModel for "
        "multiclass");
  }
  if (matrix.num_cols() == 0)
    return Status::InvalidArgument("label matrix has no LF columns");

  TraceSpan span("metal.fit");
  span.AddArg("rows", matrix.num_rows());
  span.AddArg("lfs", matrix.num_cols());
  MetricsRegistry::Global().counter("metal.fits").Increment();

  // Single fault probe per fit: kError fails the whole fit (retryable —
  // the estimator re-initializes everything below, so a retried fit is
  // bitwise-identical to a fault-free one), kNan poisons the recovered
  // parameters after estimation.
  const FaultKind fault =
      CheckFault("metal.fit", {FaultKind::kNan, FaultKind::kError});
  if (fault == FaultKind::kError) {
    return Status::Internal("injected fault at metal.fit");
  }

  const int n = matrix.num_rows();
  const int m = matrix.num_cols();
  num_lfs_ = 0;  // refuse predictions until this fit succeeds

  // Pairwise moments come from the matrix's pair-moment store, which is
  // maintained as LF columns are appended (and inherited by SelectColumns),
  // so a fit does no pairwise pass of its own.
  const SpinPairMoments& moments = matrix.PairMoments();
  auto moment = [&](int i, int j, double* out) {
    const int count = moments.Count(i, j);
    if (count < options_.min_pair_count) return false;
    *out = static_cast<double>(moments.Sum(i, j)) / count;
    return true;
  };

  // One row-driven pass off the CSR view (O(nnz)): each row's majority-vote
  // spin, the class balance it implies, and the agreement-with-majority-vote
  // fallback accuracies. Every term is ±1 or a count, so the pass sums
  // integers and is exact. The sums are bounded by n, so int32 holds them.
  std::vector<int32_t> agree(m, 0), count(m, 0);
  int32_t pos_votes = 0, voted = 0;
  for (int begin = 0; begin < n; begin += kRowsPerLimitCheck) {
    RETURN_IF_ERROR(options_.limits.Check("metal.fit"));
    const int end = std::min(n, begin + kRowsPerLimitCheck);
    for (int i = begin; i < end; ++i) {
      const ActiveRowView row = matrix.ActiveRow(i);
      int vote = 0;
      for (int k = 0; k < row.nnz; ++k) vote += row.labels[k] == 1 ? 1 : -1;
      if (vote == 0) continue;
      const int mv_spin = vote > 0 ? 1 : -1;
      ++voted;
      if (mv_spin > 0) ++pos_votes;
      for (int k = 0; k < row.nnz; ++k) {
        ++count[row.cols[k]];
        agree[row.cols[k]] += row.labels[k] == 1 ? mv_spin : -mv_spin;
      }
    }
  }
  // Class balance from majority vote, Laplace-smoothed.
  const double pos = 1.0 + static_cast<double>(pos_votes);
  const double total = 2.0 + static_cast<double>(voted);
  std::vector<double> fallback(m, 0.5);
  for (int j = 0; j < m; ++j) {
    if (count[j] > 0) fallback[j] = static_cast<double>(agree[j]) / count[j];
  }
  positive_prior_ = pos / total;

  Rng rng(options_.seed);
  accuracies_.assign(m, 0.0);
  const double kMinMoment = 1e-3;
  for (int i = 0; i < m; ++i) {
    if ((i & 63) == 0) RETURN_IF_ERROR(options_.limits.Check("metal.fit"));
    std::vector<double> estimates;
    // Try up to max_triplets random (j, k) companions.
    for (int trial = 0;
         trial < options_.max_triplets_per_lf && m >= 3; ++trial) {
      int j = rng.UniformInt(m - 1);
      if (j >= i) ++j;
      int k = rng.UniformInt(m - 1);
      if (k >= i) ++k;
      if (k == j) continue;
      double mij, mik, mjk;
      if (!moment(i, j, &mij) || !moment(i, k, &mik) || !moment(j, k, &mjk))
        continue;
      if (std::fabs(mjk) < kMinMoment) continue;
      const double sq = std::fabs(mij * mik / mjk);
      estimates.push_back(std::sqrt(sq));
    }
    double a;
    if (!estimates.empty()) {
      std::nth_element(estimates.begin(),
                       estimates.begin() + estimates.size() / 2,
                       estimates.end());
      a = estimates[estimates.size() / 2];
    } else {
      a = fallback[i];
    }
    // Better-than-random sign assumption; keep magnitude within the clamp.
    accuracies_[i] =
        std::clamp(a, -options_.accuracy_clamp, options_.accuracy_clamp);
    if (accuracies_[i] < 0.0) accuracies_[i] = 0.0;
  }

  if (fault == FaultKind::kNan && !accuracies_.empty()) {
    accuracies_[0] = std::numeric_limits<double>::quiet_NaN();
  }
  // Finite guard: a degenerate moment system must surface as a Status the
  // caller can degrade on, never as silent NaN probabilities downstream.
  report_ = ConvergenceReport{};
  report_.iterations = 1;  // closed-form
  report_.finite =
      AllFinite(accuracies_) && std::isfinite(positive_prior_);
  report_.converged = report_.finite;
  if (!report_.finite) {
    TraceInstant("convergence", "metal.fit",
                 "non-finite accuracy parameters");
    return Status::Internal(
        "metal fit produced non-finite accuracy parameters");
  }
  log_odds_ = MakeSpinLogOdds(accuracies_, positive_prior_);
  num_lfs_ = m;
  return Status::Ok();
}

Status CheckSpinPredictShape(int num_lfs, int num_cols, int num_classes) {
  if (num_cols != num_lfs) {
    return Status::InvalidArgument(
        "weak-label row has " + std::to_string(num_cols) +
        " entries, model was fit on " + std::to_string(num_lfs) + " LFs");
  }
  if (num_classes != 2) {
    return Status::InvalidArgument("spin models predict 2 classes, not " +
                                   std::to_string(num_classes));
  }
  return Status::Ok();
}

std::string EncodeSpinAccuracyParams(int num_lfs, double positive_prior,
                                     const std::vector<double>& accuracies) {
  std::string out = std::to_string(num_lfs);
  out += ' ';
  out += FormatExactDouble(positive_prior);
  for (int j = 0; j < num_lfs; ++j) {
    out += ' ';
    out += FormatExactDouble(accuracies[j]);
  }
  return out;
}

Status DecodeSpinAccuracyParams(const std::string& model_name,
                                const std::string& params, int* num_lfs,
                                double* positive_prior,
                                std::vector<double>* accuracies) {
  const std::vector<std::string> tokens = SplitWhitespace(params);
  int m = 0;
  if (tokens.empty() || !ParseInt(tokens[0], &m) || m <= 0) {
    return Status::InvalidArgument(model_name + " params: bad LF count");
  }
  if (static_cast<int>(tokens.size()) != 2 + m) {
    return Status::InvalidArgument(
        model_name + " params: expected " + std::to_string(2 + m) +
        " tokens, got " + std::to_string(tokens.size()));
  }
  double prior = 0.0;
  if (!ParseDouble(tokens[1], &prior) || prior < 0.0 || prior > 1.0) {
    return Status::InvalidArgument(model_name + " params: bad prior '" +
                                   tokens[1] + "'");
  }
  std::vector<double> acc(m);
  for (int j = 0; j < m; ++j) {
    if (!ParseDouble(tokens[2 + j], &acc[j])) {
      return Status::InvalidArgument(model_name +
                                     " params: bad accuracy '" +
                                     tokens[2 + j] + "'");
    }
  }
  *num_lfs = m;
  *positive_prior = prior;
  *accuracies = std::move(acc);
  return Status::Ok();
}

Result<std::string> MetalModel::SerializeParams() const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before SerializeParams");
  return EncodeSpinAccuracyParams(num_lfs_, positive_prior_, accuracies_);
}

Status MetalModel::RestoreParams(const std::string& params) {
  RETURN_IF_ERROR(DecodeSpinAccuracyParams(name(), params, &num_lfs_,
                                           &positive_prior_, &accuracies_));
  log_odds_ = MakeSpinLogOdds(accuracies_, positive_prior_);
  return Status::Ok();
}

Result<std::vector<double>> MetalModel::PredictProba(
    const std::vector<int>& weak_labels) const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  RETURN_IF_ERROR(CheckSpinPredictShape(
      num_lfs_, static_cast<int>(weak_labels.size()), 2));
  std::vector<double> proba = SpinNaiveBayesProba(log_odds_, weak_labels);
  if (!IsProbabilityVector(proba.data(), 2)) {
    return Status::Internal("metal prediction is not a valid distribution");
  }
  return proba;
}

Result<std::vector<double>> MetalModel::PredictProbaSparse(
    const ActiveRowView& row, int num_cols) const {
  std::vector<double> proba(2);
  RETURN_IF_ERROR(PredictProbaInto(row, num_cols, 2, proba.data()));
  return proba;
}

Status MetalModel::PredictProbaInto(const ActiveRowView& row, int num_cols,
                                    int num_classes, double* out) const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  RETURN_IF_ERROR(CheckSpinPredictShape(num_lfs_, num_cols, num_classes));
  SpinNaiveBayesProbaSparse(log_odds_, row, out);
  if (!IsProbabilityVector(out, 2)) {
    return Status::Internal("metal prediction is not a valid distribution");
  }
  return Status::Ok();
}

}  // namespace activedp
