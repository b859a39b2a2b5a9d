#ifndef ACTIVEDP_CORE_ACTIVEDP_H_
#define ACTIVEDP_CORE_ACTIVEDP_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "active/sampler.h"
#include "core/confusion.h"
#include "core/framework.h"
#include "core/label_pick.h"
#include "core/recovery.h"
#include "core/run_policy.h"
#include "core/session_io.h"
#include "labelmodel/label_model.h"
#include "lf/oracle.h"
#include "ml/linear_model.h"
#include "util/retry.h"

namespace activedp {

/// Configuration of the ActiveDP pipeline. The two `use_*` switches realize
/// the ablated variants of Table 3: Baseline = neither, LabelPick-only,
/// ConFusion-only, full ActiveDP = both.
struct ActiveDpOptions {
  SamplerType sampler_type = SamplerType::kAdp;
  LabelModelType label_model_type = LabelModelType::kMetal;
  /// ADP trade-off factor α (Eq. 2); < 0 selects the paper's per-task
  /// default: 0.5 for text, 0.99 for tabular (§3.3).
  double adp_alpha = -1.0;
  bool use_label_pick = true;
  bool use_confusion = true;
  ConFusionObjective tune_objective = ConFusionObjective::kAccuracy;
  SimulatedUserOptions user;
  LogisticRegressionOptions al_lr;
  LabelPickOptions label_pick;
  /// The AL model is trained once the pseudo-labelled set has at least this
  /// many instances spanning at least two classes.
  int min_labeled_for_al = 4;
  uint64_t seed = 42;
  /// Shared robustness policy (see core/run_policy.h). The pipeline
  /// consumes `policy.retry` (transient-failure sites "glasso.solve",
  /// "label_model.fit", "al_model.fit") and `policy.limits` (checked at
  /// each Step() and inside solver loops); the sink/path/trace fields are
  /// ignored here — ActiveDp keeps its own RetryLog/RecoveryLog
  /// (retry_log() / recovery()).
  RunPolicy policy;

  ActiveDpOptions() {
    // LabelPick runs every iteration, so the pipeline defaults to the
    // Meinshausen–Bühlmann neighbourhood-selection blanket (a single lasso;
    // identical blanket semantics) instead of the full graphical lasso,
    // which is cubic per refresh. Switch back via
    // label_pick.blanket.method = BlanketMethod::kGraphicalLasso
    // (compared in bench_micro_components).
    label_pick.blanket.method = BlanketMethod::kNeighborhoodSelection;
    // The blanket step should only drop clearly redundant LFs: every LF the
    // label model loses also loses its coverage (abstain semantics), so an
    // aggressive penalty starves the label model. With this penalty the
    // blanket is a near-no-op on tabular stump sets — matching the paper's
    // Table 3, where LabelPick leaves Occupancy/Census unchanged — and only
    // prunes strongly dependent keyword LFs on text.
    label_pick.blanket.penalty = 0.01;
  }
};

/// The ActiveDP framework (§3, Fig. 1). Training phase: each Step() asks the
/// ADP sampler for a query instance, the simulated user returns an LF, the
/// query/LF pair extends the pseudo-labelled set, and both the
/// active-learning model and the (LabelPick-filtered) label model are
/// retrained. Inference phase: CurrentTrainingLabels() tunes the ConFusion
/// threshold on the validation split and aggregates both models' predictions
/// over the training set (Eq. 1).
class ActiveDp : public InteractiveFramework {
 public:
  ActiveDp(const FrameworkContext& context, ActiveDpOptions options);

  std::string name() const override { return "activedp"; }
  Status Step() override;
  std::vector<std::vector<double>> CurrentTrainingLabels() override;

  /// Resumes a persisted session (see core/session_io.h): replays the saved
  /// LFs and query/pseudo-label pairs into a fresh pipeline and retrains
  /// both models once. Must be called before the first Step(). Entries with
  /// query index -1 (hand-written LFs) contribute no pseudo-label; a
  /// pseudo-label of -1 means the LF's own vote. Every LF (ValidateLfs),
  /// query index and pseudo-label is checked first: a refused session
  /// (InvalidArgument / OutOfRange) leaves the pipeline fresh.
  Status Restore(const SessionState& state);

  /// Snapshot of the current session for SaveSession().
  SessionState Snapshot() const;

  // --- Introspection (tests, examples, diagnostics) ---
  const std::vector<LfPtr>& lfs() const { return lfs_; }
  /// Indices (into lfs()) selected by LabelPick for the current label model.
  const std::vector<int>& selected_lfs() const { return selected_; }
  const std::vector<int>& query_indices() const { return query_indices_; }
  const std::vector<int>& pseudo_labels() const { return pseudo_labels_; }
  /// LabelPick's per-LF validation statistics, computed once per LF.
  const std::vector<LfColumnStats>& valid_column_stats() const {
    return valid_stats_;
  }
  bool has_al_model() const { return al_model_.has_value(); }
  /// The current active-learning model, or null before one is trained.
  const LogisticRegression* al_model() const {
    return al_model_.has_value() ? &*al_model_ : nullptr;
  }
  bool has_label_model() const { return label_model_ready_; }
  /// The label model currently serving predictions (the configured model,
  /// or the majority-vote fallback after a degradation), or null before
  /// one is trained. Only meaningful while has_label_model(); snapshot
  /// export (serve/snapshot_export.h) reads its fitted parameters.
  const LabelModel* label_model() const {
    return label_model_ready_ ? current_label_model() : nullptr;
  }
  /// τ chosen at the most recent CurrentTrainingLabels() call.
  double last_threshold() const { return last_threshold_; }
  int last_query() const { return last_query_; }
  const Sampler& sampler() const { return *sampler_; }
  /// Structured record of every degradation this run survived (label-model
  /// fallback to majority vote, AL-model training failures, blanket
  /// failures). Empty on a healthy run.
  const RecoveryLog& recovery() const { return recovery_; }
  /// Structured record of every retry the run's transient-failure sites
  /// took before degrading (or recovering). Empty on a healthy run.
  const RetryLog& retry_log() const { return retry_log_; }
  /// True while the label model in use is the majority-vote fallback rather
  /// than the configured model.
  bool using_fallback_label_model() const {
    return fallback_label_model_ != nullptr;
  }

 private:
  /// Both retrains degrade on a failed fit and record it in recovery(),
  /// except a budget trip (DeadlineExceeded / Cancelled), which they return
  /// unrecorded.
  Status RetrainAlModel();
  Status RetrainLabelModel();
  /// The label model currently serving predictions (configured model, or
  /// the majority-vote fallback after a degradation).
  const LabelModel* current_label_model() const {
    return fallback_label_model_ != nullptr ? fallback_label_model_.get()
                                            : label_model_.get();
  }
  /// Label-model accuracy on the validation split using only `columns`
  /// (-1 when the fit or its predictions fail); a budget trip is returned.
  Result<double> ValidationLabelModelAccuracy(
      const std::vector<int>& columns) const;
  SamplerContext BuildSamplerContext() const;
  /// Appends an LF's train and validation columns and validation stats.
  void AddLfColumns(const LabelFunction& lf);
  /// Label-model probabilities + activity over a weak-label matrix
  /// restricted to the selected LFs. Fails (instead of propagating garbage)
  /// when the model emits an invalid distribution.
  Status LabelModelPredictions(const LabelMatrix& matrix, ProbaTable* proba,
                               std::vector<bool>* active) const;

  const FrameworkContext* context_;
  ActiveDpOptions options_;
  SimulatedUser user_;
  std::unique_ptr<Sampler> sampler_;
  Rng rng_;
  double alpha_;

  std::vector<LfPtr> lfs_;
  LabelMatrix train_matrix_;
  LabelMatrix valid_matrix_;
  std::vector<LfColumnStats> valid_stats_;
  std::vector<int> query_indices_;
  std::vector<int> pseudo_labels_;
  std::vector<bool> queried_;
  int last_query_ = -1;

  std::optional<LogisticRegression> al_model_;
  std::unique_ptr<LabelModel> label_model_;
  /// Non-null while degraded to majority-vote aggregation (see recovery()).
  std::unique_ptr<LabelModel> fallback_label_model_;
  bool label_model_ready_ = false;
  std::vector<int> selected_;
  RecoveryLog recovery_;
  RetryLog retry_log_;
  /// Shared with the blanket step via options_.label_pick.blanket.retrier,
  /// so glasso retries draw from the same per-site budget and log.
  Retrier retrier_;

  // Caches refilled after each retraining (DESIGN.md §13, step caches).
  ProbaTable al_proba_train_;
  ProbaTable lm_proba_train_;
  std::vector<bool> lm_active_train_;
  double last_threshold_ = 0.0;
};

}  // namespace activedp

#endif  // ACTIVEDP_CORE_ACTIVEDP_H_
