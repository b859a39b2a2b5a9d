#include "labelmodel/label_model.h"

#include <algorithm>

#include "labelmodel/dawid_skene.h"
#include "labelmodel/generative_model.h"
#include "labelmodel/majority_vote.h"
#include "labelmodel/metal_completion.h"
#include "labelmodel/metal_model.h"
#include "math/vector_ops.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace activedp {
Result<std::string> LabelModel::SerializeParams() const {
  return Status::Unimplemented("label model '" + name() +
                               "' has no serializable parameter form");
}

Status LabelModel::RestoreParams(const std::string& params) {
  (void)params;
  return Status::Unimplemented("label model '" + name() +
                               "' has no serializable parameter form");
}

Result<std::vector<double>> LabelModel::PredictProbaSparse(
    const ActiveRowView& row, int num_cols) const {
  std::vector<int> weak_labels(num_cols, kAbstain);
  for (int k = 0; k < row.nnz; ++k) weak_labels[row.cols[k]] = row.labels[k];
  return PredictProba(weak_labels);
}

Status LabelModel::PredictProbaInto(const ActiveRowView& row, int num_cols,
                                    int num_classes, double* out) const {
  ASSIGN_OR_RETURN(const std::vector<double> proba,
                   PredictProbaSparse(row, num_cols));
  if (static_cast<int>(proba.size()) != num_classes) {
    return Status::Internal(name() + " predicted " +
                            std::to_string(proba.size()) + " classes, not " +
                            std::to_string(num_classes));
  }
  std::copy(proba.begin(), proba.end(), out);
  return Status::Ok();
}

Status LabelModel::PredictProbaTable(const LabelMatrix& matrix,
                                     int num_classes,
                                     ProbaTable* table) const {
  table->Resize(matrix.num_rows(), num_classes);
  for (int i = 0; i < matrix.num_rows(); ++i) {
    RETURN_IF_ERROR(PredictProbaInto(matrix.ActiveRow(i), matrix.num_cols(),
                                     num_classes, table->mutable_row(i)));
  }
  table->Seal();
  return Status::Ok();
}

Result<std::vector<std::vector<double>>> LabelModel::PredictProbaAll(
    const LabelMatrix& matrix) const {
  TraceSpan span("labelmodel.predict_all");
  span.AddArg("rows", matrix.num_rows());
  const int num_cols = matrix.num_cols();
  std::vector<std::vector<double>> out(matrix.num_rows());
  for (int i = 0; i < matrix.num_rows(); ++i) {
    ASSIGN_OR_RETURN(out[i],
                     PredictProbaSparse(matrix.ActiveRow(i), num_cols));
  }
  return out;
}

Result<std::vector<int>> LabelModel::PredictAll(
    const LabelMatrix& matrix) const {
  TraceSpan span("labelmodel.predict_all");
  span.AddArg("rows", matrix.num_rows());
  const int num_cols = matrix.num_cols();
  std::vector<int> out(matrix.num_rows(), kAbstain);
  for (int i = 0; i < matrix.num_rows(); ++i) {
    if (!matrix.AnyActive(i)) continue;  // keep kAbstain, O(1)
    ASSIGN_OR_RETURN(std::vector<double> proba,
                     PredictProbaSparse(matrix.ActiveRow(i), num_cols));
    out[i] = ArgMax(proba);
  }
  return out;
}

std::unique_ptr<LabelModel> MakeLabelModel(LabelModelType type) {
  switch (type) {
    case LabelModelType::kMajorityVote:
      return std::make_unique<MajorityVoteModel>();
    case LabelModelType::kDawidSkene:
      return std::make_unique<DawidSkeneModel>();
    case LabelModelType::kMetal:
      return std::make_unique<MetalModel>();
    case LabelModelType::kMetalCompletion:
      return std::make_unique<MetalCompletionModel>();
    case LabelModelType::kGenerative:
      return std::make_unique<GenerativeModel>();
  }
  return std::make_unique<MetalCompletionModel>();
}

Result<std::unique_ptr<LabelModel>> MakeLabelModelByName(
    const std::string& name) {
  if (name == "majority-vote") {
    return MakeLabelModel(LabelModelType::kMajorityVote);
  }
  if (name == "dawid-skene") {
    return MakeLabelModel(LabelModelType::kDawidSkene);
  }
  if (name == "metal") return MakeLabelModel(LabelModelType::kMetal);
  if (name == "metal-completion") {
    return MakeLabelModel(LabelModelType::kMetalCompletion);
  }
  if (name == "generative-dp") {
    return MakeLabelModel(LabelModelType::kGenerative);
  }
  return Status::InvalidArgument("unknown label-model name '" + name + "'");
}

LabelModelType ParseLabelModelType(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "mv" || lower == "majority-vote") {
    return LabelModelType::kMajorityVote;
  }
  if (lower == "ds" || lower == "dawid-skene") {
    return LabelModelType::kDawidSkene;
  }
  if (lower == "metal" || lower == "triplet") {
    return LabelModelType::kMetal;
  }
  if (lower == "generative" || lower == "snorkel" || lower == "dp") {
    return LabelModelType::kGenerative;
  }
  return LabelModelType::kMetalCompletion;
}

}  // namespace activedp
