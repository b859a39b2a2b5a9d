#ifndef ACTIVEDP_CORE_CONFUSION_H_
#define ACTIVEDP_CORE_CONFUSION_H_

#include <span>
#include <vector>

#include "lf/label_function.h"

namespace activedp {

/// Which objective the dynamic threshold tuning maximizes on the validation
/// set. The paper uses accuracy (§3.2) and discusses why coverage-maximizing
/// tuning collapses to τ=0 (pure active learning); both are provided.
enum class ConFusionObjective { kAccuracy, kCoverage };

/// Where each aggregated label came from.
enum class LabelSource { kActiveLearning, kLabelModel, kRejected };

/// Result of aggregating one dataset's predictions with Eq. 1.
struct AggregatedLabels {
  /// Soft label per row; empty vector when the row is rejected.
  std::vector<std::vector<double>> soft;
  /// argmax of soft, or kAbstain when rejected.
  std::vector<int> hard;
  std::vector<LabelSource> source;
  double threshold = 0.0;
  double coverage = 0.0;
};

/// Eq. 1's decision for one row.
struct RowLabel {
  LabelSource source = LabelSource::kRejected;
  /// First-maximum argmax of the followed probabilities; kAbstain when
  /// rejected.
  int hard = kAbstain;
};

/// ConFusion (§3.2): confidence-based aggregation of the active-learning
/// model and the label model.
class ConFusion {
 public:
  /// Eq. 1 for one row: follow f_a when `al` is non-empty and its
  /// confidence max(al) >= threshold; else follow f_l (`lm`) when
  /// `lm_active`, i.e. at least one selected LF fires; else reject. The one
  /// rule behind Aggregate and the served ModelSnapshot::Predict.
  static RowLabel AggregateRow(std::span<const double> al,
                               std::span<const double> lm, bool lm_active,
                               double threshold);

  /// AggregateRow on every row. `al_proba[i]` may be empty (no AL model ->
  /// pure label model); `lm_active[i]` false means every selected LF
  /// abstains on row i.
  static AggregatedLabels Aggregate(
      const std::vector<std::vector<double>>& al_proba,
      const std::vector<std::vector<double>>& lm_proba,
      const std::vector<bool>& lm_active, double threshold);

  /// Dynamic threshold tuning (§3.2): evaluates every candidate threshold in
  /// {0} ∪ {unique validation confidences} ∪ {1} and returns the one
  /// maximizing the chosen objective of the aggregated labels on the
  /// validation set (accuracy is computed over non-rejected rows only).
  /// Ties prefer higher coverage, then the smaller threshold.
  static double TuneThreshold(
      const std::vector<std::vector<double>>& al_proba_valid,
      const std::vector<std::vector<double>>& lm_proba_valid,
      const std::vector<bool>& lm_active_valid,
      const std::vector<int>& valid_labels,
      ConFusionObjective objective = ConFusionObjective::kAccuracy);
};

}  // namespace activedp

#endif  // ACTIVEDP_CORE_CONFUSION_H_
