#ifndef ACTIVEDP_ML_LINEAR_MODEL_H_
#define ACTIVEDP_ML_LINEAR_MODEL_H_

#include <cstdint>
#include <vector>

#include "data/example.h"
#include "math/matrix.h"
#include "math/proba_table.h"
#include "util/convergence.h"
#include "util/deadline.h"
#include "util/result.h"

namespace activedp {

struct LogisticRegressionOptions {
  double l2 = 3e-3;
  int epochs = 40;
  int batch_size = 32;
  double learning_rate = 0.05;  // Adam step size
  uint64_t seed = 1;
  /// The fit is reported converged when the largest parameter update in the
  /// final epoch is at most this (fixed-epoch SGD never stops early; this
  /// only drives the honesty of report().converged).
  double convergence_tolerance = 1e-2;
  /// Checked once per epoch; trips as DeadlineExceeded / Cancelled with the
  /// epoch count reached (partial progress) in the message.
  RunLimits limits;
  /// Warm start: when shaped (num_classes x dim+1) the fit begins from these
  /// weights instead of zeros — how the online retrainer refits incrementally
  /// from the served snapshot. Any other shape (including the default empty
  /// matrix) is ignored and the fit starts cold. Non-finite entries are
  /// rejected by the fit's finite guard (Status::Internal), never trained on.
  Matrix init_weights;
};

/// Multinomial (softmax) logistic regression on sparse features, trained
/// with mini-batch Adam on the cross-entropy against soft (probabilistic)
/// targets. Serves as the paper's active-learning model and downstream end
/// model (§4.1.3), both of which are logistic regressions; soft targets let
/// it train directly on the label model's probabilistic labels.
class LogisticRegression {
 public:
  LogisticRegression() = default;

  /// Trains on examples x[i] with soft targets y[i] (each a distribution
  /// over `num_classes`). Optional per-example weights (empty = all 1).
  static Result<LogisticRegression> Fit(
      const std::vector<SparseVector>& x,
      const std::vector<std::vector<double>>& y, int num_classes, int dim,
      const LogisticRegressionOptions& options = {},
      const std::vector<double>& sample_weights = {});

  /// Trains on hard integer labels.
  static Result<LogisticRegression> FitHard(
      const std::vector<SparseVector>& x, const std::vector<int>& labels,
      int num_classes, int dim, const LogisticRegressionOptions& options = {});

  /// Class-probability vector for one example.
  std::vector<double> PredictProba(const SparseVector& x) const;
  /// The same probabilities written to out[0..num_classes()); PredictProba
  /// wraps this, so both give the same bits.
  void PredictProbaInto(const SparseVector& x, double* out) const;
  /// Refills `table` with every example's probabilities and seals it.
  void PredictProbaTable(const std::vector<SparseVector>& x,
                         ProbaTable* table) const;

  /// Most likely class.
  int Predict(const SparseVector& x) const;

  /// Rebuilds a predict-only model from exported weights (row c holds
  /// [w_c (dim entries), b_c]); InvalidArgument on a shape mismatch. The
  /// report() of the result is empty — training history does not survive
  /// export.
  static Result<LogisticRegression> FromWeights(int num_classes, int dim,
                                                Matrix weights);

  int num_classes() const { return num_classes_; }
  int dim() const { return dim_; }

  /// Fitted parameter matrix (num_classes rows x dim+1 columns).
  const Matrix& weights() const { return weights_; }

  /// Raw (unnormalized) class scores w_c . x + b_c.
  std::vector<double> Logits(const SparseVector& x) const;

  /// Honest training outcome: iterations = Adam steps taken, final_delta =
  /// largest parameter update in the last epoch. Fit returns
  /// Status::Internal instead of a model when the weights diverge to
  /// non-finite values (fault site "lr.fit": kNan / kNoConverge / kError).
  const ConvergenceReport& report() const { return report_; }

 private:
  /// Logits written to out[0..num_classes_).
  void LogitsInto(const SparseVector& x, double* out) const;

  int num_classes_ = 0;
  int dim_ = 0;
  /// Row c holds [w_c (dim entries), b_c].
  Matrix weights_;
  ConvergenceReport report_;
};

}  // namespace activedp

#endif  // ACTIVEDP_ML_LINEAR_MODEL_H_
