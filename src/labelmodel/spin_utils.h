#ifndef ACTIVEDP_LABELMODEL_SPIN_UTILS_H_
#define ACTIVEDP_LABELMODEL_SPIN_UTILS_H_

#include <vector>

#include "lf/lf_applier.h"

namespace activedp {

/// Binary weak label -> spin: class 1 -> +1, class 0 -> -1, abstain -> 0.
inline double ToSpin(int weak_label) {
  if (weak_label == kAbstain) return 0.0;
  return weak_label == 1 ? 1.0 : -1.0;
}

/// The per-fit terms of the naive-Bayes aggregation of binary weak labels
/// given per-LF accuracy parameters a_j = E[λ_j Y | λ_j active] ∈ (-1, 1)
/// and the positive-class prior: P(λ_j = s | Y = y) = (1 + a_j s y) / 2
/// conditional on activation, so a row's log-odds is the prior's plus, per
/// active LF, log((1 + a_j s) / (1 - a_j s)). Both spins' terms are
/// evaluated once per fit with exactly that expression, so a prediction
/// sums the same doubles in the same column order as evaluating them per
/// entry would, and does no `log` per entry. Used by both MeTaL-style label
/// models, rebuilt after Fit and RestoreParams.
struct SpinLogOdds {
  double prior = 0.0;
  /// [2j] is LF j's term for class 0 (s = -1), [2j + 1] for class 1.
  std::vector<double> terms;
};
SpinLogOdds MakeSpinLogOdds(const std::vector<double>& accuracies,
                            double positive_prior);

/// {P(y=0|λ), P(y=1|λ)} for one row of weak labels.
std::vector<double> SpinNaiveBayesProba(const SpinLogOdds& log_odds,
                                        const std::vector<int>& weak_labels);

/// Sparse variant over the non-abstain entries of a row (ascending column
/// order), written to out[0..2). Bitwise identical to the dense overload,
/// which skips abstains in the same column order.
void SpinNaiveBayesProbaSparse(const SpinLogOdds& log_odds,
                               const ActiveRowView& row, double* out);

}  // namespace activedp

#endif  // ACTIVEDP_LABELMODEL_SPIN_UTILS_H_
