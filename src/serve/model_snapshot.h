#ifndef ACTIVEDP_SERVE_MODEL_SNAPSHOT_H_
#define ACTIVEDP_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/confusion.h"
#include "data/dataset.h"
#include "data/example.h"
#include "labelmodel/label_model.h"
#include "lf/label_function.h"
#include "lf/lf_applier.h"
#include "math/matrix.h"
#include "ml/featurizer.h"
#include "ml/linear_model.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"
#include "util/result.h"

namespace activedp {

/// Current on-disk/state format version (see serve/snapshot_io.h). Bumped on
/// incompatible changes; loads of other versions are rejected.
inline constexpr int kSnapshotVersion = 1;

/// One served prediction: the ConFusion-aggregated soft label (Eq. 1), its
/// argmax, and which model produced it. `proba` is empty and `label` is
/// kAbstain when the instance is rejected (AL confidence below τ and every
/// selected LF abstains).
struct ServedPrediction {
  std::vector<double> proba;
  int label = kAbstain;
  LabelSource source = LabelSource::kRejected;
};

/// Serializable state of a finished ActiveDP run — everything inference
/// needs, nothing training needs. Plain data; ModelSnapshot::Create turns it
/// into a validated, predict-ready object and snapshot_io persists it.
struct SnapshotState {
  int version = kSnapshotVersion;
  std::string dataset;
  TaskType task = TaskType::kTextClassification;
  int num_classes = 0;
  int feature_dim = 0;
  /// ConFusion threshold τ tuned at export time.
  double threshold = 0.0;

  // Featurizer state. Text: vocabulary + TF-IDF idf table (idf size ==
  // vocabulary size == feature_dim). Tabular: per-feature standardization.
  Vocabulary vocab;
  TfidfOptions tfidf_options;
  std::vector<double> idf;
  std::vector<double> means;
  std::vector<double> inv_stddevs;

  /// The LabelPick-selected LFs, in label-model column order.
  std::vector<LfPtr> lfs;
  /// Fitted label-model parameters (labelmodel/label_model.h
  /// SerializeParams form); empty name = no label model in the snapshot.
  std::string label_model_name;
  std::string label_model_params;

  /// AL / downstream model weights (LogisticRegression layout: num_classes
  /// rows of [w, b]); either may be absent.
  std::optional<Matrix> al_weights;
  std::optional<Matrix> end_weights;
};

/// An immutable, predict-ready model bundle. Create() validates the state
/// and reconstructs the runtime objects once; afterwards every method is
/// const and thread-safe, so a snapshot can serve concurrent batches behind
/// a std::shared_ptr (serve/prediction_service.h hot-swaps them RCU-style).
///
/// Determinism: Predict and PredictBatch run every row through one private
/// routine, PredictRow, which calls the offline pipeline's own per-row
/// pieces: the featurizer, LogisticRegression::PredictProbaInto, the label
/// model's PredictProbaInto on the row's firing LFs in ascending column
/// order, and ConFusion::AggregateRow, the rule ConFusion::Aggregate applies
/// to every row. Served outputs are therefore bitwise identical to the
/// offline pipeline's for the same instance, at every batch size. The
/// row's buffers belong to the call, never to the snapshot.
class ModelSnapshot {
 public:
  /// Validates `state` (shape consistency, LFs that vote a snapshot class
  /// and read inside its rows, parseable label-model params that predict
  /// num_classes over the selected LFs, well-formed weight matrices; at
  /// least one model present) and builds the runtime featurizer and models.
  /// InvalidArgument on any inconsistency; a binary-only label-model family
  /// (MeTaL, MeTaL-completion, generative-DP) is refused for a multiclass
  /// snapshot.
  static Result<ModelSnapshot> Create(SnapshotState state);

  ModelSnapshot(ModelSnapshot&&) = default;
  ModelSnapshot& operator=(ModelSnapshot&&) = default;

  const SnapshotState& state() const { return state_; }
  int num_classes() const { return state_.num_classes; }
  int feature_dim() const { return state_.feature_dim; }
  double threshold() const { return state_.threshold; }
  bool has_al_model() const { return al_model_.has_value(); }
  bool has_label_model() const { return label_model_ != nullptr; }
  bool has_end_model() const { return end_model_.has_value(); }

  /// Builds an Example from raw text against the snapshot vocabulary
  /// (tokenize, map to ids, sorted term counts — the dataset loaders'
  /// construction). FailedPrecondition on a tabular snapshot.
  Result<Example> MakeTextExample(std::string_view text) const;

  /// Builds an Example from raw tabular features. InvalidArgument when the
  /// width differs from feature_dim; FailedPrecondition on a text snapshot.
  Result<Example> MakeTabularExample(std::vector<double> features) const;

  /// ConFusion-aggregated prediction for one instance (Eq. 1 with the
  /// exported τ): the AL model when its confidence reaches τ, else the label
  /// model where a selected LF fires, else rejected.
  Result<ServedPrediction> Predict(const Example& example) const;

  /// Predict on each row of a batch, inline on the calling thread, through
  /// one set of row buffers reused across the batch. Each row succeeds or
  /// fails independently; the result always has examples.size() entries in
  /// order.
  std::vector<Result<ServedPrediction>> PredictBatch(
      const std::vector<Example>& examples) const;

  /// Downstream-model probabilities, when end-model weights were exported.
  Result<std::vector<double>> EndModelProba(const Example& example) const;

 private:
  ModelSnapshot() = default;

  /// One row's working buffers. Each Predict call keeps one on its stack
  /// and each PredictBatch call one for the whole batch, so a row costs no
  /// buffer allocation after the first and the snapshot itself stays
  /// immutable and shareable between threads.
  struct RowScratch {
    SparseVector features;
    std::vector<double> al_proba;
    std::vector<double> lm_proba;
    /// The row's firing LFs: ascending label-model columns and their votes.
    std::vector<int32_t> lf_cols;
    std::vector<int8_t> lf_labels;
  };

  /// The served prediction of one row (see Predict), computed in `scratch`.
  Result<ServedPrediction> PredictRow(const Example& example,
                                      RowScratch* scratch) const;

  /// Shape validation (tabular width check); never featurizes.
  Status ValidateExample(const Example& example) const;

  /// Fills scratch->lf_cols / lf_labels with the selected LFs that fire on
  /// `example`, in column order: from the keyword index when every LF is a
  /// KeywordLf, else from each LF's Apply.
  void FiringLfs(const Example& example, RowScratch* scratch) const;

  SnapshotState state_;
  std::unique_ptr<Featurizer> featurizer_;
  std::unique_ptr<LabelModel> label_model_;
  std::optional<LogisticRegression> al_model_;
  std::optional<LogisticRegression> end_model_;
  /// Engaged when the snapshot has a label model and every selected LF is
  /// a KeywordLf (built once in Create).
  std::optional<KeywordIndex> keyword_index_;
};

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_MODEL_SNAPSHOT_H_
