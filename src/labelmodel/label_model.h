#ifndef ACTIVEDP_LABELMODEL_LABEL_MODEL_H_
#define ACTIVEDP_LABELMODEL_LABEL_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "lf/lf_applier.h"
#include "math/proba_table.h"
#include "util/deadline.h"
#include "util/result.h"

namespace activedp {

/// The generative model of data programming (§2.1): estimates LF accuracies
/// without ground truth from the weak-label matrix and turns each row of
/// weak labels into a probabilistic label f_l(x, Λ).
class LabelModel {
 public:
  virtual ~LabelModel() = default;

  /// Fits the model to the training weak-label matrix. Internal when the
  /// solve produces non-finite parameters (callers degrade, see
  /// core/recovery.h).
  virtual Status Fit(const LabelMatrix& matrix, int num_classes) = 0;

  /// Probabilistic label for one row of weak labels (entries in
  /// {kAbstain, 0..C-1}). On an all-abstain row returns the estimated class
  /// prior (callers decide coverage semantics separately). Untrusted
  /// runtime state surfaces as Status, never aborts: FailedPrecondition
  /// before Fit, InvalidArgument when the row's width or entries do not
  /// match the fitted model, Internal when the fitted parameters yield a
  /// non-finite distribution.
  virtual Result<std::vector<double>> PredictProba(
      const std::vector<int>& weak_labels) const = 0;

  /// Probabilistic label from the non-abstain entries of a row (ascending
  /// column order) plus the row's full width. Semantically — and for the
  /// overriding models bitwise — identical to densifying the view and
  /// calling PredictProba; the base implementation does exactly that.
  /// Models on the serving / batch hot path override this to skip the
  /// O(num_cols) densify+rescan per row.
  virtual Result<std::vector<double>> PredictProbaSparse(
      const ActiveRowView& row, int num_cols) const;

  /// PredictProbaSparse's bits written to out[0..num_classes). The base copies
  /// PredictProbaSparse (Internal on another width); the MeTaL-style models
  /// write their two probabilities directly.
  virtual Status PredictProbaInto(const ActiveRowView& row, int num_cols,
                                  int num_classes, double* out) const;

  virtual std::string name() const = 0;

  /// Serializes the fitted predict-time parameters as one line of
  /// space-separated tokens (doubles rendered with %.17g, so restored
  /// predictions are bitwise-identical to the source model's). The token
  /// layout is model-specific; pair with RestoreParams on a model of the
  /// same name() — serve/model_snapshot.cc persists `name()` next to the
  /// params and rebuilds via MakeLabelModelByName. FailedPrecondition
  /// before Fit; Unimplemented for models without a serializable form.
  virtual Result<std::string> SerializeParams() const;

  /// Restores predict-time parameters from SerializeParams output on a
  /// freshly constructed model. InvalidArgument on malformed input (wrong
  /// token count, non-finite values, invalid sizes); after an OK restore
  /// PredictProba is usable without Fit.
  virtual Status RestoreParams(const std::string& params);

  /// Installs a time budget / cancellation token honored by subsequent
  /// Fit calls. Default is a no-op: closed-form models (majority vote)
  /// finish in one pass and have nothing meaningful to interrupt.
  virtual void set_limits(const RunLimits& limits) { (void)limits; }

  /// Probabilistic labels for every row of a matrix; first row error wins.
  Result<std::vector<std::vector<double>>> PredictProbaAll(
      const LabelMatrix& matrix) const;

  /// Refills `table` with every row's PredictProbaInto and seals it (see
  /// math/proba_table.h); first row error wins and leaves it unsealed.
  Status PredictProbaTable(const LabelMatrix& matrix, int num_classes,
                           ProbaTable* table) const;

  /// Hard labels for every row; kAbstain on rows with no active LF.
  Result<std::vector<int>> PredictAll(const LabelMatrix& matrix) const;
};

enum class LabelModelType {
  kMajorityVote,
  kDawidSkene,
  /// Robust MeTaL-style moments estimator (median over triplets).
  kMetal,
  /// Faithful MeTaL matrix-completion estimator (the paper's label model;
  /// fragile under dependent LFs like the original).
  kMetalCompletion,
  /// Original data-programming generative model (NeurIPS 2016 / Snorkel),
  /// trained by exact marginal-likelihood gradient ascent.
  kGenerative,
};

/// Factory for the configured label-model type.
std::unique_ptr<LabelModel> MakeLabelModel(LabelModelType type);

/// Factory keyed by LabelModel::name() ("majority-vote", "dawid-skene",
/// "metal", "metal-completion", "generative-dp") — the inverse of the
/// name persisted in a model snapshot. InvalidArgument on unknown names.
Result<std::unique_ptr<LabelModel>> MakeLabelModelByName(
    const std::string& name);

/// Parses "mv" / "ds" / "metal" / "metal-mc" (case-insensitive); defaults to
/// kMetalCompletion on unknown input.
LabelModelType ParseLabelModelType(const std::string& name);

}  // namespace activedp

#endif  // ACTIVEDP_LABELMODEL_LABEL_MODEL_H_
