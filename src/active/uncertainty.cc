#include "active/uncertainty.h"

namespace activedp {

int UncertaintySampler::SelectQuery(const SamplerContext& context, Rng& rng) {
  if (context.al_proba == nullptr) {
    return internal::RandomUnqueried(context, rng);
  }
  const ProbaTable& proba = *context.al_proba;
  const auto& queried = *context.queried;
  int best = -1;
  double best_score = -1.0;
  for (int i = 0; i < proba.rows(); ++i) {
    if (queried[i]) continue;
    const double score = proba.entropy(i);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

}  // namespace activedp
