#include "core/confusion.h"

#include <algorithm>
#include <cmath>

#include "math/vector_ops.h"
#include "util/check.h"

namespace activedp {

RowLabel ConFusion::AggregateRow(std::span<const double> al,
                                 std::span<const double> lm, bool lm_active,
                                 double threshold) {
  if (!al.empty()) {
    const auto best = std::max_element(al.begin(), al.end());
    if (*best >= threshold) {
      return {LabelSource::kActiveLearning,
              static_cast<int>(best - al.begin())};
    }
  }
  if (!lm_active) return {};  // rejected (Eq. 1 third case)
  CHECK(!lm.empty());
  return {LabelSource::kLabelModel,
          static_cast<int>(std::max_element(lm.begin(), lm.end()) -
                           lm.begin())};
}

AggregatedLabels ConFusion::Aggregate(
    const std::vector<std::vector<double>>& al_proba,
    const std::vector<std::vector<double>>& lm_proba,
    const std::vector<bool>& lm_active, double threshold) {
  const size_t n = lm_proba.size();
  CHECK_EQ(al_proba.size(), n);
  CHECK_EQ(lm_active.size(), n);

  AggregatedLabels out;
  out.threshold = threshold;
  out.soft.resize(n);
  out.hard.resize(n);
  out.source.resize(n);
  int covered = 0;
  for (size_t i = 0; i < n; ++i) {
    const RowLabel row =
        AggregateRow(al_proba[i], lm_proba[i], lm_active[i], threshold);
    out.hard[i] = row.hard;
    out.source[i] = row.source;
    if (row.source == LabelSource::kRejected) continue;
    out.soft[i] = row.source == LabelSource::kActiveLearning ? al_proba[i]
                                                             : lm_proba[i];
    ++covered;
  }
  out.coverage = n == 0 ? 0.0 : static_cast<double>(covered) / n;
  return out;
}

double ConFusion::TuneThreshold(
    const std::vector<std::vector<double>>& al_proba_valid,
    const std::vector<std::vector<double>>& lm_proba_valid,
    const std::vector<bool>& lm_active_valid,
    const std::vector<int>& valid_labels, ConFusionObjective objective) {
  const size_t n = lm_proba_valid.size();
  CHECK_EQ(al_proba_valid.size(), n);
  CHECK_EQ(lm_active_valid.size(), n);
  CHECK_EQ(valid_labels.size(), n);

  // Per-row facts: AL confidence (-1 when no AL prediction), whether each
  // model would be correct, and LM activity.
  struct RowInfo {
    double confidence;
    bool al_correct;
    bool lm_active;
    bool lm_correct;
  };
  std::vector<RowInfo> rows;
  rows.reserve(n);
  int al_count = 0, al_correct = 0;
  int lm_count = 0, lm_correct = 0;  // LM stats for rows NOT in the AL group
  for (size_t i = 0; i < n; ++i) {
    RowInfo info;
    info.confidence = al_proba_valid[i].empty() ? -1.0 : Max(al_proba_valid[i]);
    info.al_correct = !al_proba_valid[i].empty() &&
                      ArgMax(al_proba_valid[i]) == valid_labels[i];
    info.lm_active = lm_active_valid[i];
    info.lm_correct =
        lm_active_valid[i] && ArgMax(lm_proba_valid[i]) == valid_labels[i];
    if (info.confidence >= 0.0) {
      // At τ = 0 every row with an AL prediction is in the AL group.
      ++al_count;
      if (info.al_correct) ++al_correct;
    } else {
      if (info.lm_active) ++lm_count;
      if (info.lm_correct) ++lm_correct;
    }
    rows.push_back(info);
  }
  std::sort(rows.begin(), rows.end(),
            [](const RowInfo& a, const RowInfo& b) {
              return a.confidence < b.confidence;
            });

  // Candidate thresholds: {0} ∪ unique confidences ∪ {1}, ascending.
  std::vector<double> candidates;
  candidates.push_back(0.0);
  for (const auto& r : rows) {
    if (r.confidence >= 0.0 &&
        (candidates.empty() || candidates.back() != r.confidence)) {
      candidates.push_back(r.confidence);
    }
  }
  if (candidates.back() != 1.0) candidates.push_back(1.0);

  double best_tau = 0.0;
  double best_objective = -1.0;
  double best_coverage = -1.0;
  size_t next_row = 0;  // first row (by ascending confidence) still in AL group
  while (next_row < rows.size() && rows[next_row].confidence < 0.0) ++next_row;

  for (double tau : candidates) {
    // Move rows with confidence < tau from the AL group to the LM group.
    while (next_row < rows.size() && rows[next_row].confidence < tau) {
      const RowInfo& r = rows[next_row];
      --al_count;
      if (r.al_correct) --al_correct;
      if (r.lm_active) ++lm_count;
      if (r.lm_correct) ++lm_correct;
      ++next_row;
    }
    const int covered = al_count + lm_count;
    const double coverage =
        n == 0 ? 0.0 : static_cast<double>(covered) / n;
    const double accuracy =
        covered == 0 ? 0.0
                     : static_cast<double>(al_correct + lm_correct) / covered;
    const double score =
        objective == ConFusionObjective::kAccuracy ? accuracy : coverage;
    if (score > best_objective + 1e-12 ||
        (std::fabs(score - best_objective) <= 1e-12 &&
         coverage > best_coverage + 1e-12)) {
      best_objective = score;
      best_coverage = coverage;
      best_tau = tau;
    }
  }
  return best_tau;
}

}  // namespace activedp
