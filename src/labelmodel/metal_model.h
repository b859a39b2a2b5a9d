#ifndef ACTIVEDP_LABELMODEL_METAL_MODEL_H_
#define ACTIVEDP_LABELMODEL_METAL_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labelmodel/label_model.h"
#include "labelmodel/spin_utils.h"
#include "util/convergence.h"
#include "util/deadline.h"

namespace activedp {

struct MetalModelOptions {
  /// Minimum number of co-activations before a pairwise moment is trusted.
  int min_pair_count = 5;
  /// Maximum number of (j, k) triplet pairs sampled per LF.
  int max_triplets_per_lf = 64;
  /// Accuracy parameters are clamped into [-clamp, clamp].
  double accuracy_clamp = 0.95;
  uint64_t seed = 13;
  /// Checked between estimation phases and periodically inside the row
  /// scans; trips as DeadlineExceeded / Cancelled.
  RunLimits limits;
};

/// MeTaL-style method-of-moments label model for binary tasks (the role
/// MeTaL [24] plays in the paper, §4.1.3). LF outputs are mapped to
/// {-1,0,+1}; under conditional independence the pairwise moments satisfy
/// E[v_i v_j] = a_i a_j where a_i = E[v_i Y | v_i active] is LF i's
/// accuracy parameter, so |a_i| is recovered in closed form from triplets
/// (i,j,k) as sqrt(|M_ij M_ik / M_jk|) — the same moment system MeTaL's
/// matrix completion solves. Signs follow the better-than-random
/// assumption; LFs with insufficient co-activation fall back to
/// agreement-with-majority-vote estimates. All eight paper datasets are
/// binary; multiclass aggregation is available via DawidSkeneModel.
class MetalModel : public LabelModel {
 public:
  explicit MetalModel(MetalModelOptions options = {}) : options_(options) {}

  Status Fit(const LabelMatrix& matrix, int num_classes) override;
  Result<std::vector<double>> PredictProba(
      const std::vector<int>& weak_labels) const override;
  Result<std::vector<double>> PredictProbaSparse(
      const ActiveRowView& row, int num_cols) const override;
  Status PredictProbaInto(const ActiveRowView& row, int num_cols,
                          int num_classes, double* out) const override;
  std::string name() const override { return "metal"; }
  /// Params: `<num_lfs> <positive_prior> <a_0> .. <a_{m-1}>`.
  Result<std::string> SerializeParams() const override;
  Status RestoreParams(const std::string& params) override;
  void set_limits(const RunLimits& limits) override {
    options_.limits = limits;
  }

  /// Recovered accuracy parameter a_j in [-clamp, clamp]; the implied LF
  /// accuracy is (1 + a_j) / 2.
  double accuracy_param(int lf_index) const { return accuracies_[lf_index]; }
  double positive_prior() const { return positive_prior_; }

  /// Honest fit report (the estimator is closed-form, so `converged` is
  /// true whenever the recovered parameters are finite).
  const ConvergenceReport& report() const { return report_; }

 private:
  MetalModelOptions options_;
  std::vector<double> accuracies_;
  double positive_prior_ = 0.5;
  int num_lfs_ = 0;
  SpinLogOdds log_odds_;
  ConvergenceReport report_;
};

/// Shared text codec for the spin accuracy-parameter family (metal,
/// metal-completion): one line `<num_lfs> <prior> <a_0> .. <a_{m-1}>`,
/// doubles in round-tripping %.17g form.
std::string EncodeSpinAccuracyParams(int num_lfs, double positive_prior,
                                     const std::vector<double>& accuracies);
Status DecodeSpinAccuracyParams(const std::string& model_name,
                                const std::string& params, int* num_lfs,
                                double* positive_prior,
                                std::vector<double>* accuracies);

/// InvalidArgument unless a spin-family prediction fits: the row is
/// `num_cols` wide for a model fit on `num_lfs` LFs, into 2 classes.
Status CheckSpinPredictShape(int num_lfs, int num_cols, int num_classes);

}  // namespace activedp

#endif  // ACTIVEDP_LABELMODEL_METAL_MODEL_H_
