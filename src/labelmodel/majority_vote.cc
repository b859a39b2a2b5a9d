#include "labelmodel/majority_vote.h"

#include <algorithm>

#include "util/check.h"
#include "util/string_util.h"

namespace activedp {

Status MajorityVoteModel::Fit(const LabelMatrix& matrix, int num_classes) {
  if (num_classes < 2) return Status::InvalidArgument("need >= 2 classes");
  if (matrix.num_cols() == 0)
    return Status::InvalidArgument("label matrix has no LF columns");
  num_classes_ = num_classes;
  // Estimate class priors from per-row majority votes (uniform fallback).
  // Row-driven off the row view: O(nnz) instead of O(n m).
  std::vector<double> counts(num_classes, 1.0);  // Laplace smoothing
  std::vector<double> votes(num_classes, 0.0);
  for (int i = 0; i < matrix.num_rows(); ++i) {
    const ActiveRowView row = matrix.ActiveRow(i);
    if (row.nnz == 0) continue;
    std::fill(votes.begin(), votes.end(), 0.0);
    for (int k = 0; k < row.nnz; ++k) votes[row.labels[k]] += 1.0;
    int best = 0;
    for (int c = 1; c < num_classes; ++c) {
      if (votes[c] > votes[best]) best = c;
    }
    counts[best] += 1.0;
  }
  double total = 0.0;
  for (double c : counts) total += c;
  priors_.resize(num_classes);
  for (int c = 0; c < num_classes; ++c) priors_[c] = counts[c] / total;
  return Status::Ok();
}

Result<std::string> MajorityVoteModel::SerializeParams() const {
  if (num_classes_ <= 0)
    return Status::FailedPrecondition("Fit before SerializeParams");
  std::string out = std::to_string(num_classes_);
  for (double p : priors_) {
    out += ' ';
    out += FormatExactDouble(p);
  }
  return out;
}

Status MajorityVoteModel::RestoreParams(const std::string& params) {
  const std::vector<std::string> tokens = SplitWhitespace(params);
  int num_classes = 0;
  if (tokens.empty() || !ParseInt(tokens[0], &num_classes) ||
      num_classes < 2) {
    return Status::InvalidArgument("majority-vote params: bad class count");
  }
  if (static_cast<int>(tokens.size()) != 1 + num_classes) {
    return Status::InvalidArgument(
        "majority-vote params: expected " + std::to_string(1 + num_classes) +
        " tokens, got " + std::to_string(tokens.size()));
  }
  std::vector<double> priors(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    if (!ParseDouble(tokens[1 + c], &priors[c]) || priors[c] < 0.0) {
      return Status::InvalidArgument("majority-vote params: bad prior '" +
                                     tokens[1 + c] + "'");
    }
  }
  num_classes_ = num_classes;
  priors_ = std::move(priors);
  return Status::Ok();
}

Result<std::vector<double>> MajorityVoteModel::PredictProba(
    const std::vector<int>& weak_labels) const {
  if (num_classes_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  std::vector<double> votes(num_classes_, 0.0);
  int active = 0;
  for (int l : weak_labels) {
    if (l == kAbstain) continue;
    if (l < 0 || l >= num_classes_) {
      return Status::InvalidArgument("weak label " + std::to_string(l) +
                                     " outside [0, " +
                                     std::to_string(num_classes_) + ")");
    }
    votes[l] += 1.0;
    ++active;
  }
  if (active == 0) return priors_;
  // Blend with a weak prior so ties resolve toward the prior.
  std::vector<double> proba(num_classes_);
  double total = 0.0;
  for (int c = 0; c < num_classes_; ++c) {
    proba[c] = votes[c] + 0.1 * priors_[c];
    total += proba[c];
  }
  for (double& p : proba) p /= total;
  return proba;
}

Result<std::vector<double>> MajorityVoteModel::PredictProbaSparse(
    const ActiveRowView& row, int num_cols) const {
  (void)num_cols;  // votes depend only on the active entries
  if (num_classes_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  std::vector<double> votes(num_classes_, 0.0);
  for (int k = 0; k < row.nnz; ++k) {
    const int l = row.labels[k];
    if (l < 0 || l >= num_classes_) {
      return Status::InvalidArgument("weak label " + std::to_string(l) +
                                     " outside [0, " +
                                     std::to_string(num_classes_) + ")");
    }
    votes[l] += 1.0;
  }
  if (row.nnz == 0) return priors_;
  std::vector<double> proba(num_classes_);
  double total = 0.0;
  for (int c = 0; c < num_classes_; ++c) {
    proba[c] = votes[c] + 0.1 * priors_[c];
    total += proba[c];
  }
  for (double& p : proba) p /= total;
  return proba;
}

}  // namespace activedp
