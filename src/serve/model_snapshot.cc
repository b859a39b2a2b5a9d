#include "serve/model_snapshot.h"

#include <cmath>
#include <map>
#include <span>
#include <utility>

#include "text/tokenizer.h"

namespace activedp {
namespace {

Status ValidateFeaturizerState(const SnapshotState& state) {
  if (state.task == TaskType::kTextClassification) {
    if (state.vocab.size() == 0) {
      return Status::InvalidArgument("text snapshot has an empty vocabulary");
    }
    if (static_cast<int>(state.idf.size()) != state.vocab.size() ||
        state.feature_dim != state.vocab.size()) {
      return Status::InvalidArgument(
          "text snapshot shape mismatch: vocab=" +
          std::to_string(state.vocab.size()) +
          " idf=" + std::to_string(state.idf.size()) +
          " feature_dim=" + std::to_string(state.feature_dim));
    }
    return Status::Ok();
  }
  if (static_cast<int>(state.means.size()) != state.feature_dim ||
      state.means.size() != state.inv_stddevs.size()) {
    return Status::InvalidArgument(
        "tabular snapshot shape mismatch: means=" +
        std::to_string(state.means.size()) +
        " inv_stddevs=" + std::to_string(state.inv_stddevs.size()) +
        " feature_dim=" + std::to_string(state.feature_dim));
  }
  return Status::Ok();
}

}  // namespace

Result<ModelSnapshot> ModelSnapshot::Create(SnapshotState state) {
  if (state.version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot version " + std::to_string(state.version) +
        " is not supported (expected " + std::to_string(kSnapshotVersion) +
        ")");
  }
  if (state.num_classes < 2) {
    return Status::InvalidArgument("snapshot needs >= 2 classes");
  }
  if (state.feature_dim <= 0) {
    return Status::InvalidArgument("snapshot has no features");
  }
  if (!(state.threshold >= 0.0 && state.threshold <= 1.0)) {
    return Status::InvalidArgument("snapshot threshold outside [0, 1]");
  }
  RETURN_IF_ERROR(ValidateFeaturizerState(state));
  RETURN_IF_ERROR(ValidateLfs(state.lfs, state.num_classes, state.task,
                              state.feature_dim));
  if (state.label_model_name.empty() && !state.al_weights.has_value()) {
    return Status::InvalidArgument(
        "snapshot has neither a label model nor AL weights");
  }
  if (!state.label_model_name.empty() && state.lfs.empty()) {
    return Status::InvalidArgument(
        "snapshot has a label model but no selected LFs");
  }

  ModelSnapshot snapshot;
  if (state.task == TaskType::kTextClassification) {
    snapshot.featurizer_ = std::make_unique<TextFeaturizer>(
        TfidfFeaturizer::FromState(state.tfidf_options, state.idf));
  } else {
    snapshot.featurizer_ = std::make_unique<TabularFeaturizer>(
        TabularFeaturizer::FromState(state.means, state.inv_stddevs));
  }
  if (!state.label_model_name.empty()) {
    ASSIGN_OR_RETURN(snapshot.label_model_,
                     MakeLabelModelByName(state.label_model_name));
    RETURN_IF_ERROR(
        snapshot.label_model_->RestoreParams(state.label_model_params));
    // One all-abstain row through the serving call. A model that cannot
    // predict this snapshot's class count over its LFs (a binary-only
    // family at k = 3, params for another LF count) would fail every row.
    std::vector<double> proba(state.num_classes);
    const Status probe = snapshot.label_model_->PredictProbaInto(
        ActiveRowView{}, static_cast<int>(state.lfs.size()),
        state.num_classes, proba.data());
    if (!probe.ok()) {
      return Status::InvalidArgument(
          "label model '" + state.label_model_name + "' cannot serve " +
          std::to_string(state.num_classes) + " classes over " +
          std::to_string(state.lfs.size()) + " LFs: " + probe.message());
    }
  }
  if (state.al_weights.has_value()) {
    ASSIGN_OR_RETURN(
        snapshot.al_model_,
        LogisticRegression::FromWeights(state.num_classes, state.feature_dim,
                                        *state.al_weights));
  }
  if (state.end_weights.has_value()) {
    ASSIGN_OR_RETURN(
        snapshot.end_model_,
        LogisticRegression::FromWeights(state.num_classes, state.feature_dim,
                                        *state.end_weights));
  }
  if (snapshot.label_model_ != nullptr) {
    snapshot.keyword_index_ = KeywordIndex::Build(state.lfs);
  }
  snapshot.state_ = std::move(state);
  return snapshot;
}

Result<Example> ModelSnapshot::MakeTextExample(std::string_view text) const {
  if (state_.task != TaskType::kTextClassification) {
    return Status::FailedPrecondition(
        "MakeTextExample on a tabular snapshot");
  }
  Example example;
  example.text = std::string(text);
  // Same construction as the dataset loaders: tokenize, map to vocabulary
  // ids, accumulate counts sorted by id (std::map iteration order).
  Tokenizer tokenizer;
  std::map<int, int> counts;
  for (const std::string& token : tokenizer.Tokenize(example.text)) {
    const int id = state_.vocab.GetId(token);
    if (id != Vocabulary::kUnknownId) ++counts[id];
  }
  example.term_counts.reserve(counts.size());
  for (const auto& [id, count] : counts) {
    example.term_counts.emplace_back(id, count);
  }
  return example;
}

Result<Example> ModelSnapshot::MakeTabularExample(
    std::vector<double> features) const {
  if (state_.task != TaskType::kTabularClassification) {
    return Status::FailedPrecondition("MakeTabularExample on a text snapshot");
  }
  if (static_cast<int>(features.size()) != state_.feature_dim) {
    return Status::InvalidArgument(
        "expected " + std::to_string(state_.feature_dim) + " features, got " +
        std::to_string(features.size()));
  }
  for (double v : features) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("non-finite feature value");
    }
  }
  Example example;
  example.features = std::move(features);
  return example;
}

Status ModelSnapshot::ValidateExample(const Example& example) const {
  if (state_.task == TaskType::kTabularClassification &&
      static_cast<int>(example.features.size()) != state_.feature_dim) {
    return Status::InvalidArgument(
        "example has " + std::to_string(example.features.size()) +
        " features, snapshot expects " + std::to_string(state_.feature_dim));
  }
  return Status::Ok();
}

void ModelSnapshot::FiringLfs(const Example& example,
                              RowScratch* scratch) const {
  // Room for every LF up front: a call grows these buffers at most once.
  scratch->lf_cols.reserve(state_.lfs.size());
  scratch->lf_labels.reserve(state_.lfs.size());
  if (keyword_index_.has_value()) {
    keyword_index_->FiringLfs(example, &scratch->lf_cols, &scratch->lf_labels);
    return;
  }
  scratch->lf_cols.clear();
  scratch->lf_labels.clear();
  for (size_t j = 0; j < state_.lfs.size(); ++j) {
    const int label = state_.lfs[j]->Apply(example);
    if (label == kAbstain) continue;
    scratch->lf_cols.push_back(static_cast<int32_t>(j));
    scratch->lf_labels.push_back(static_cast<int8_t>(label));
  }
}

Result<ServedPrediction> ModelSnapshot::PredictRow(const Example& example,
                                                   RowScratch* scratch) const {
  RETURN_IF_ERROR(ValidateExample(example));
  // One row of the offline inference phase: AL probabilities, label-model
  // probabilities + activity over the selected LFs, then Eq. 1 with the
  // exported τ through the rule ConFusion::Aggregate applies to each row.
  const int k = state_.num_classes;
  std::span<const double> al;
  if (al_model_.has_value()) {
    featurizer_->TransformInto(example, &scratch->features);
    scratch->al_proba.resize(k);
    al_model_->PredictProbaInto(scratch->features, scratch->al_proba.data());
    al = scratch->al_proba;
  }
  std::span<const double> lm;
  bool lm_active = false;
  if (label_model_ != nullptr) {
    FiringLfs(example, scratch);
    const ActiveRowView row{scratch->lf_cols.data(),
                            scratch->lf_labels.data(),
                            static_cast<int>(scratch->lf_cols.size())};
    lm_active = row.nnz > 0;
    scratch->lm_proba.resize(k);
    RETURN_IF_ERROR(label_model_->PredictProbaInto(
        row, static_cast<int>(state_.lfs.size()), k,
        scratch->lm_proba.data()));
    lm = scratch->lm_proba;
  }

  const RowLabel chosen =
      ConFusion::AggregateRow(al, lm, lm_active, state_.threshold);
  ServedPrediction prediction;
  prediction.label = chosen.hard;
  prediction.source = chosen.source;
  if (chosen.source == LabelSource::kActiveLearning) {
    prediction.proba.assign(al.begin(), al.end());
  } else if (chosen.source == LabelSource::kLabelModel) {
    prediction.proba.assign(lm.begin(), lm.end());
  }
  return prediction;
}

Result<ServedPrediction> ModelSnapshot::Predict(const Example& example) const {
  RowScratch scratch;
  return PredictRow(example, &scratch);
}

std::vector<Result<ServedPrediction>> ModelSnapshot::PredictBatch(
    const std::vector<Example>& examples) const {
  RowScratch scratch;
  std::vector<Result<ServedPrediction>> out;
  out.reserve(examples.size());
  for (const Example& example : examples) {
    out.push_back(PredictRow(example, &scratch));
  }
  return out;
}

Result<std::vector<double>> ModelSnapshot::EndModelProba(
    const Example& example) const {
  if (!end_model_.has_value()) {
    return Status::FailedPrecondition("snapshot has no end-model weights");
  }
  RETURN_IF_ERROR(ValidateExample(example));
  return end_model_->PredictProba(featurizer_->Transform(example));
}

}  // namespace activedp
