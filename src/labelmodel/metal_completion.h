#ifndef ACTIVEDP_LABELMODEL_METAL_COMPLETION_H_
#define ACTIVEDP_LABELMODEL_METAL_COMPLETION_H_

#include <optional>
#include <string>
#include <vector>

#include "labelmodel/label_model.h"
#include "labelmodel/metal_model.h"
#include "labelmodel/spin_utils.h"

namespace activedp {

struct MetalCompletionOptions {
  /// Ridge added to the spin covariance before inversion.
  double ridge = 0.01;
  /// Gradient descent on the rank-one completion objective.
  int gd_iterations = 400;
  double gd_learning_rate = 0.01;
  /// Accuracy parameters are clamped into [-clamp, clamp].
  double accuracy_clamp = 0.95;
  /// Below this many LFs the rank-one completion is under-determined (the
  /// off-diagonal system has too few equations) and the model delegates to
  /// the robust triplet estimator (MetalModel).
  int min_lfs_for_completion = 8;
  /// Checked every kRowsPerLimitCheck rows of the row scan, before the
  /// covariance build and every 32 descent steps; trips as
  /// DeadlineExceeded / Cancelled. Propagated into the triplet fallback.
  RunLimits limits;
};

/// The MeTaL label model (Ratner et al. 2019) specialized to one binary
/// task: LF outputs are mapped to spins; the inverse of their covariance
/// satisfies
///     Σ_O^{-1} = K - z z^T   (off-diagonal, under conditional independence)
/// where z ∝ Σ_O^{-1} Cov(λ, Y), so z is recovered by minimizing
///     L(z) = Σ_{i≠j} (K_ij + z_i z_j)^2
/// (the matrix-completion step), and LF accuracies follow from
/// Cov(λ, Y) = Σ_O z / sqrt(d). Unlike the robust median-of-triplets
/// estimator in MetalModel, this faithful formulation fits *every*
/// off-diagonal entry and therefore inherits real MeTaL's sensitivity to
/// dependent (correlated) LFs — the pathology LabelPick exists to remove
/// (§3.4). This is the paper's default label model (§4.1.3).
class MetalCompletionModel : public LabelModel {
 public:
  explicit MetalCompletionModel(MetalCompletionOptions options = {})
      : options_(options) {}

  Status Fit(const LabelMatrix& matrix, int num_classes) override;
  Result<std::vector<double>> PredictProba(
      const std::vector<int>& weak_labels) const override;
  Result<std::vector<double>> PredictProbaSparse(
      const ActiveRowView& row, int num_cols) const override;
  Status PredictProbaInto(const ActiveRowView& row, int num_cols,
                          int num_classes, double* out) const override;
  std::string name() const override { return "metal-completion"; }
  /// Params: `<num_lfs> <positive_prior> <a_0> .. <a_{m-1}>`, using the
  /// effective (fallback-aware) parameters; restore always lands in the
  /// completion state, which predicts identically.
  Result<std::string> SerializeParams() const override;
  Status RestoreParams(const std::string& params) override;
  void set_limits(const RunLimits& limits) override {
    options_.limits = limits;
  }

  /// Recovered accuracy parameter a_j = E[λ_j Y | λ_j active].
  double accuracy_param(int lf_index) const {
    if (fallback_.has_value()) return fallback_->accuracy_param(lf_index);
    return accuracies_[lf_index];
  }
  double positive_prior() const {
    if (fallback_.has_value()) return fallback_->positive_prior();
    return positive_prior_;
  }
  /// True when the small-m triplet fallback handled the last Fit.
  bool used_fallback() const { return fallback_.has_value(); }

 private:
  MetalCompletionOptions options_;
  std::vector<double> accuracies_;
  double positive_prior_ = 0.5;
  int num_lfs_ = 0;
  SpinLogOdds log_odds_;
  /// Engaged instead of the completion solve when m is small.
  std::optional<MetalModel> fallback_;
};

}  // namespace activedp

#endif  // ACTIVEDP_LABELMODEL_METAL_COMPLETION_H_
