#include "core/label_pick.h"

#include "math/matrix.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/logging.h"

namespace activedp {

double EncodeWeakLabel(int weak_label, int num_classes) {
  if (weak_label == kAbstain) return 0.0;
  if (num_classes == 2) return weak_label == 1 ? 1.0 : -1.0;
  return static_cast<double>(weak_label) - (num_classes - 1) / 2.0;
}

Result<std::vector<int>> LabelPick(
    int num_classes, const std::vector<LfColumnStats>& valid_stats,
    const LabelMatrix& query_matrix, const std::vector<int>& pseudo_labels,
    const LabelPickOptions& options, RecoveryLog* recovery) {
  const int num_lfs = static_cast<int>(valid_stats.size());
  if (num_lfs <= 0) return Status::InvalidArgument("no LFs to select from");
  CHECK_EQ(query_matrix.num_cols(), num_lfs);
  CHECK_EQ(query_matrix.num_rows(),
           static_cast<int>(pseudo_labels.size()));

  // Step 1: validation-accuracy pruning.
  std::vector<int> survivors;
  if (options.prune_by_validation_accuracy) {
    const double random_accuracy = 1.0 / num_classes;
    for (int j = 0; j < num_lfs; ++j) {
      const LfColumnStats& stats = valid_stats[j];
      // Too little evidence (including never firing on validation) is not
      // "worse than random"; keep such LFs.
      if (stats.activations < options.min_activations_to_prune ||
          stats.accuracy > random_accuracy) {
        survivors.push_back(j);
      }
    }
    if (survivors.empty()) {
      // Everything looked worse than random; trusting step 1 here would
      // leave the label model with nothing, so keep all.
      survivors.resize(num_lfs);
      for (int j = 0; j < num_lfs; ++j) survivors[j] = j;
    }
  } else {
    survivors.resize(num_lfs);
    for (int j = 0; j < num_lfs; ++j) survivors[j] = j;
  }

  const int t = query_matrix.num_rows();
  if (!options.select_markov_blanket || t < options.min_queries_for_blanket ||
      survivors.size() < 2) {
    return survivors;
  }

  // Step 2: Markov blanket of the label over L_Λ = {(Λ_t(x_l), ỹ_l)}.
  // Abstains encode to 0, so only each row's firing survivors are written.
  const int p = static_cast<int>(survivors.size()) + 1;  // + label column
  std::vector<int> position(num_lfs, -1);  // LF -> survivor column
  for (int jj = 0; jj < p - 1; ++jj) position[survivors[jj]] = jj;
  Matrix data(t, p);
  for (int i = 0; i < t; ++i) {
    const ActiveRowView row = query_matrix.ActiveRow(i);
    for (int e = 0; e < row.nnz; ++e) {
      const int jj = position[row.cols[e]];
      if (jj >= 0) data(i, jj) = EncodeWeakLabel(row.labels[e], num_classes);
    }
    data(i, p - 1) = EncodeWeakLabel(pseudo_labels[i], num_classes);
  }
  Result<std::vector<int>> blanket =
      MarkovBlanket(data, /*target=*/p - 1, options.blanket, recovery);
  if (!blanket.ok()) {
    if (IsBudgetTrip(blanket.status())) return blanket.status();
    // Degradation cascade step 1: a glasso/blanket failure reduces
    // LabelPick to its validation-accuracy pruning step.
    if (recovery != nullptr) {
      recovery->Record("glasso", blanket.status().ToString(),
                       "accuracy-pruning-only LabelPick (" +
                           std::to_string(survivors.size()) + " LFs kept)");
    } else {
      LOG(Warning) << "LabelPick blanket failed ("
                   << blanket.status().ToString() << "); keeping "
                   << survivors.size() << " accuracy-pruned LFs";
    }
    return survivors;
  }
  if (blanket->empty()) return survivors;

  std::vector<int> selected;
  selected.reserve(blanket->size());
  for (int idx : *blanket) selected.push_back(survivors[idx]);
  return selected;
}

}  // namespace activedp
