#ifndef ACTIVEDP_CORE_LABEL_PICK_H_
#define ACTIVEDP_CORE_LABEL_PICK_H_

#include <vector>

#include "core/recovery.h"
#include "graphical/markov_blanket.h"
#include "lf/lf_applier.h"
#include "util/result.h"

namespace activedp {

struct LabelPickOptions {
  /// Step 1: prune LFs whose validation accuracy is at or below random
  /// (1 / num_classes). LFs that never fire on validation are kept.
  bool prune_by_validation_accuracy = true;
  /// Minimum validation activations before the accuracy estimate is trusted
  /// for pruning. Low-coverage LFs fire on a handful of validation rows, and
  /// pruning on 2–3 Bernoulli samples removes a third of the *good* LFs by
  /// chance; below this evidence level the LF is kept.
  int min_activations_to_prune = 5;
  /// Step 2: Markov-blanket selection on the queried-instance table.
  bool select_markov_blanket = true;
  MarkovBlanketOptions blanket;
  /// Below this many queried instances the blanket step is skipped (the
  /// graphical model is under-determined) and all surviving LFs are kept.
  int min_queries_for_blanket = 20;
};

/// LabelPick (§3.4): selects the helpful LF subset Λ*_t ⊂ Λ_t used to train
/// the label model. First prunes LFs performing worse than random on the
/// holdout validation set; then builds the small labelled table
/// L_Λ = {(Λ_t(x_l), ỹ_l)} over the queried instances, infers the
/// dependency structure with the graphical lasso, and keeps the LFs in the
/// Markov blanket of the label. Returns indices into `lfs`; guaranteed
/// non-empty whenever `lfs` is non-empty (falls back to the survivors of
/// step 1, or to all LFs, when the blanket is empty/degenerate).
///
/// `valid_stats` holds each LF's ComputeColumnStats on the validation split
/// (aligned with `lfs`; a column never changes once added, so an interactive
/// session computes them once per LF); `query_matrix` holds LF outputs on
/// the queried instances (one row per query); `pseudo_labels` are the ỹ_l
/// inferred from user feedback. When `recovery` is non-null, a blanket
/// failure that degrades to accuracy-pruning-only selection is recorded
/// there; a budget trip (DeadlineExceeded / Cancelled) is returned instead.
Result<std::vector<int>> LabelPick(
    int num_classes, const std::vector<LfColumnStats>& valid_stats,
    const LabelMatrix& query_matrix, const std::vector<int>& pseudo_labels,
    const LabelPickOptions& options, RecoveryLog* recovery = nullptr);

/// Encodes weak labels for the graphical model: abstain -> 0; binary
/// classes -> ±1; multiclass c -> c - (C-1)/2 (centered).
double EncodeWeakLabel(int weak_label, int num_classes);

}  // namespace activedp

#endif  // ACTIVEDP_CORE_LABEL_PICK_H_
