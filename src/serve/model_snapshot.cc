#include "serve/model_snapshot.h"

#include <cmath>
#include <map>
#include <utility>

#include "math/vector_ops.h"
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
  snapshot.state_ = std::move(state);

  // Keyword-only LF sets (the common text path) get an inverted token index:
  // serving then touches only each example's own tokens instead of scanning
  // every LF per prediction. Each KeywordLf owns one column and fires on
  // token presence, so the indexed fill is identical to the per-LF loop.
  if (snapshot.label_model_ != nullptr) {
    bool all_keyword = true;
    for (const LfPtr& lf : snapshot.state_.lfs) {
      if (dynamic_cast<const KeywordLf*>(lf.get()) == nullptr) {
        all_keyword = false;
        break;
      }
    }
    if (all_keyword) {
      auto& index = snapshot.keyword_index_.emplace();
      index.reserve(snapshot.state_.lfs.size());
      for (size_t j = 0; j < snapshot.state_.lfs.size(); ++j) {
        const auto* kw =
            static_cast<const KeywordLf*>(snapshot.state_.lfs[j].get());
        index[kw->token_id()].emplace_back(static_cast<int>(j), kw->label());
      }
    }
  }
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

void ModelSnapshot::ApplyLfsRow(const Example& example, std::vector<int>* row,
                                bool* active) const {
  if (keyword_index_.has_value()) {
    for (const auto& [token, count] : example.term_counts) {
      (void)count;  // presence semantics, matching Example::HasToken
      const auto it = keyword_index_->find(token);
      if (it == keyword_index_->end()) continue;
      for (const auto& [col, label] : it->second) {
        (*row)[col] = label;
        if (label != kAbstain) *active = true;
      }
    }
    return;
  }
  for (size_t j = 0; j < state_.lfs.size(); ++j) {
    (*row)[j] = state_.lfs[j]->Apply(example);
    if ((*row)[j] != kAbstain) *active = true;
  }
}

Result<ServedPrediction> ModelSnapshot::Predict(const Example& example) const {
  RETURN_IF_ERROR(ValidateExample(example));
  // One-row version of the offline inference phase: AL probabilities,
  // label-model probabilities + activity over the selected LFs, then
  // ConFusion::Aggregate with the exported τ. Aggregate is row-independent,
  // so this matches the offline batch call bitwise.
  std::vector<std::vector<double>> al_proba(1);
  if (al_model_.has_value()) {
    al_proba[0] = al_model_->PredictProba(featurizer_->Transform(example));
  }
  std::vector<std::vector<double>> lm_proba(1);
  std::vector<bool> lm_active(1, false);
  if (label_model_ != nullptr) {
    std::vector<int> row(state_.lfs.size(), kAbstain);
    bool active = false;
    ApplyLfsRow(example, &row, &active);
    lm_active[0] = active;
    ASSIGN_OR_RETURN(lm_proba[0], label_model_->PredictProba(row));
  }

  AggregatedLabels aggregated = ConFusion::Aggregate(
      al_proba, lm_proba, lm_active, state_.threshold);
  ServedPrediction prediction;
  prediction.proba = std::move(aggregated.soft[0]);
  prediction.label = aggregated.hard[0];
  prediction.source = aggregated.source[0];
  return prediction;
}

std::vector<Result<ServedPrediction>> ModelSnapshot::PredictBatch(
    const std::vector<Example>& examples) const {
  std::vector<Result<ServedPrediction>> out;
  out.reserve(examples.size());
  for (const Example& example : examples) out.push_back(Predict(example));
  return out;
}

Result<std::vector<double>> ModelSnapshot::EndModelProba(
    const Example& example) const {
  if (!end_model_.has_value()) {
    return Status::FailedPrecondition("snapshot has no end-model weights");
  }
  if (state_.task == TaskType::kTabularClassification &&
      static_cast<int>(example.features.size()) != state_.feature_dim) {
    return Status::InvalidArgument(
        "example has " + std::to_string(example.features.size()) +
        " features, snapshot expects " + std::to_string(state_.feature_dim));
  }
  return end_model_->PredictProba(featurizer_->Transform(example));
}

}  // namespace activedp
