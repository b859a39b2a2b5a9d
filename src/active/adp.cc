#include "active/adp.h"

#include <cmath>

namespace activedp {

void AdpSampler::Refresh(const SamplerContext& context) {
  const bool has_al = context.al_proba != nullptr;
  const bool has_lm = context.lm_proba != nullptr;
  if (!has_al && !has_lm) return;
  const Key key{has_al ? context.al_proba->generation() : kAbsent,
                has_lm ? context.lm_proba->generation() : kAbsent,
                context.adp_alpha};
  if (key == key_ && key.al != 0 && key.lm != 0) return;
  key_ = key;
  const int n = context.train->size();
  DCHECK(!has_al || context.al_proba->rows() == n);
  DCHECK(!has_lm || context.lm_proba->rows() == n);
  score_.resize(n);
  for (int i = 0; i < n; ++i) {
    if (has_al && has_lm) {
      score_[i] = std::pow(context.al_proba->entropy(i), key.alpha) *
                  std::pow(context.lm_proba->entropy(i), 1.0 - key.alpha);
    } else if (has_al) {
      score_[i] = context.al_proba->entropy(i);
    } else {
      score_[i] = context.lm_proba->entropy(i);
    }
  }
}

int AdpSampler::SelectQuery(const SamplerContext& context, Rng& rng) {
  if (context.al_proba == nullptr && context.lm_proba == nullptr) {
    return internal::RandomUnqueried(context, rng);
  }
  Refresh(context);
  const auto& queried = *context.queried;
  const int n = context.train->size();
  int best = -1;
  double best_score = -1.0;
  for (int i = 0; i < n; ++i) {
    if (queried[i]) continue;
    if (score_[i] > best_score) {
      best_score = score_[i];
      best = i;
    }
  }
  return best;
}

}  // namespace activedp
