#include "labelmodel/spin_utils.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace activedp {

SpinLogOdds MakeSpinLogOdds(const std::vector<double>& accuracies,
                            double positive_prior) {
  SpinLogOdds out;
  const double prior = std::clamp(positive_prior, 1e-6, 1.0 - 1e-6);
  out.prior = std::log(prior / (1.0 - prior));
  out.terms.resize(2 * accuracies.size());
  for (size_t j = 0; j < accuracies.size(); ++j) {
    const double a = std::clamp(accuracies[j], -0.999, 0.999);
    for (const double s : {-1.0, 1.0}) {
      out.terms[2 * j + (s > 0.0)] = std::log((1.0 + a * s) / (1.0 - a * s));
    }
  }
  return out;
}

namespace {

void ProbaFromLogOdds(double log_odds, double* out) {
  const double p1 = 1.0 / (1.0 + std::exp(-log_odds));
  out[0] = 1.0 - p1;
  out[1] = p1;
}

}  // namespace

std::vector<double> SpinNaiveBayesProba(const SpinLogOdds& log_odds,
                                        const std::vector<int>& weak_labels) {
  CHECK_EQ(log_odds.terms.size(), 2 * weak_labels.size());
  double sum = log_odds.prior;
  for (size_t j = 0; j < weak_labels.size(); ++j) {
    if (weak_labels[j] == kAbstain) continue;
    sum += log_odds.terms[2 * j + (weak_labels[j] == 1)];
  }
  std::vector<double> proba(2);
  ProbaFromLogOdds(sum, proba.data());
  return proba;
}

void SpinNaiveBayesProbaSparse(const SpinLogOdds& log_odds,
                               const ActiveRowView& row, double* out) {
  double sum = log_odds.prior;
  for (int k = 0; k < row.nnz; ++k) {
    sum += log_odds.terms[2 * static_cast<size_t>(row.cols[k]) +
                          (row.labels[k] == 1)];
  }
  ProbaFromLogOdds(sum, out);
}

}  // namespace activedp
