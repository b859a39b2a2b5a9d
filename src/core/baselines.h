#ifndef ACTIVEDP_CORE_BASELINES_H_
#define ACTIVEDP_CORE_BASELINES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "active/sampler.h"
#include "core/framework.h"
#include "labelmodel/dawid_skene.h"
#include "labelmodel/label_model.h"
#include "lf/oracle.h"
#include "ml/linear_model.h"

namespace activedp {

/// Shared knobs for the baseline frameworks.
struct BaselineOptions {
  LabelModelType label_model_type = LabelModelType::kMetal;
  SimulatedUserOptions user;
  LogisticRegressionOptions al_lr;
  uint64_t seed = 42;
};

/// Nemo [12]: interactive data programming with the SEU sampler. Each
/// iteration queries an instance, the user returns an LF, and the label
/// model is trained on ALL returned LFs; training labels are the label
/// model's predictions on covered rows (no instance-level supervision and no
/// LF selection — the limitations §4.2 discusses).
class NemoFramework : public InteractiveFramework {
 public:
  NemoFramework(const FrameworkContext& context, BaselineOptions options);

  std::string name() const override { return "nemo"; }
  Status Step() override;
  std::vector<std::vector<double>> CurrentTrainingLabels() override;

  int num_lfs() const { return static_cast<int>(lfs_.size()); }

 private:
  const FrameworkContext* context_;
  BaselineOptions options_;
  SimulatedUser user_;
  std::unique_ptr<Sampler> sampler_;
  Rng rng_;
  std::vector<LfPtr> lfs_;
  LabelMatrix train_matrix_;
  std::vector<bool> queried_;
  std::unique_ptr<LabelModel> label_model_;
  bool label_model_ready_ = false;
  ProbaTable lm_proba_train_;
  std::vector<bool> lm_active_train_;
};

/// IWS [4] under the unbounded IWS-LSE-a setting: the system maintains a
/// global pool of candidate LFs, each iteration shows the most promising
/// unverified candidate to the expert (who answers accurate / not), and an
/// acquisition model over LF output statistics learns to predict which
/// candidates are accurate. The final LF set is every candidate the system
/// believes accurate (verified or predicted), and training labels come from
/// a label model over that set. The original's Gaussian-process accuracy
/// model is replaced by a logistic acquisition model over LF-output
/// features (documented substitution, DESIGN.md §1).
class IwsFramework : public InteractiveFramework {
 public:
  IwsFramework(const FrameworkContext& context, BaselineOptions options);

  std::string name() const override { return "iws"; }
  Status Step() override;
  std::vector<std::vector<double>> CurrentTrainingLabels() override;

  int num_verified() const { return static_cast<int>(verified_.size()); }

 private:
  /// Feature vector of a candidate LF for the acquisition model.
  std::vector<double> CandidateFeatures(int candidate_index) const;
  /// Probability each unverified candidate is accurate (acquisition model,
  /// or coverage prior before enough verifications exist).
  std::vector<double> PredictAccurate() const;

  const FrameworkContext* context_;
  BaselineOptions options_;
  SimulatedUser user_;
  Rng rng_;
  std::vector<LfCandidate> pool_;
  /// Candidate outputs on a fixed row subsample (features + agreement).
  std::vector<std::vector<int8_t>> pool_outputs_;
  std::vector<int> subsample_rows_;
  std::vector<bool> is_verified_;
  std::vector<int> verified_;        // indices into pool_
  std::vector<bool> verified_label_; // oracle's accurate/not answer
  std::unique_ptr<LabelModel> label_model_;
};

/// Revising LF (RLF) [21]: the LF set grows via the same user-driven
/// creation process as ActiveDP (the paper's protocol supplies Λ_t to RLF
/// for free); each iteration's human interaction labels the instance where
/// the label model is most uncertain, and all LF outputs on labelled
/// instances are corrected to the true label before the label model is
/// retrained.
class RlfFramework : public InteractiveFramework {
 public:
  RlfFramework(const FrameworkContext& context, BaselineOptions options);

  std::string name() const override { return "rlf"; }
  Status Step() override;
  std::vector<std::vector<double>> CurrentTrainingLabels() override;

  int num_labeled() const { return static_cast<int>(labeled_rows_.size()); }
  int num_lfs() const { return static_cast<int>(lfs_.size()); }

 private:
  void ReviseRow(int row, int label);

  const FrameworkContext* context_;
  BaselineOptions options_;
  SimulatedUser user_;
  Rng rng_;
  std::vector<LfPtr> lfs_;
  LabelMatrix train_matrix_;       // revised in place on labelled rows
  std::vector<bool> lf_queried_;   // rows consumed by LF creation
  std::vector<bool> labeled_;      // rows labelled by the expert
  std::vector<int> labeled_rows_;
  std::vector<int> labeled_values_;
  std::unique_ptr<LabelModel> label_model_;
  bool label_model_ready_ = false;
  ProbaTable lm_proba_train_;
};

/// Active WeaSuL [3] — the remaining row of the paper's Table 1: each
/// iteration's human interaction labels the instance where the label model
/// is most uncertain, and the labels guide *label-model training* (here:
/// semi-supervised Dawid–Skene EM with the expert labels clamped), rather
/// than revising LF outputs (RLF) or training a separate AL model
/// (ActiveDP). The LF set grows through the same user-driven creation
/// process the protocol supplies to RLF. Prediction remains LF-only.
class ActiveWeasulFramework : public InteractiveFramework {
 public:
  ActiveWeasulFramework(const FrameworkContext& context,
                        BaselineOptions options);

  std::string name() const override { return "active-weasul"; }
  Status Step() override;
  std::vector<std::vector<double>> CurrentTrainingLabels() override;

  int num_labeled() const { return static_cast<int>(labeled_rows_.size()); }
  int num_lfs() const { return static_cast<int>(lfs_.size()); }

 private:
  const FrameworkContext* context_;
  BaselineOptions options_;
  SimulatedUser user_;
  Rng rng_;
  std::vector<LfPtr> lfs_;
  LabelMatrix train_matrix_;
  std::vector<bool> lf_queried_;
  std::vector<bool> labeled_;
  std::vector<int> labeled_rows_;
  std::vector<int> labeled_values_;
  DawidSkeneModel label_model_;
  bool label_model_ready_ = false;
  ProbaTable lm_proba_train_;
};

/// Classical uncertainty sampling [16]: pure active learning. Each
/// iteration labels the instance with the highest predictive entropy under
/// a model trained on the labelled set; training labels are exactly the
/// labelled instances.
class UncertaintyFramework : public InteractiveFramework {
 public:
  UncertaintyFramework(const FrameworkContext& context,
                       BaselineOptions options);

  std::string name() const override { return "us"; }
  Status Step() override;
  std::vector<std::vector<double>> CurrentTrainingLabels() override;

  int num_labeled() const { return static_cast<int>(labeled_rows_.size()); }

 private:
  void Retrain();

  const FrameworkContext* context_;
  BaselineOptions options_;
  SimulatedUser user_;
  Rng rng_;
  std::vector<bool> queried_;
  std::vector<int> labeled_rows_;
  std::vector<int> labels_;
  std::optional<LogisticRegression> model_;
  ProbaTable proba_train_;
};

}  // namespace activedp

#endif  // ACTIVEDP_CORE_BASELINES_H_
