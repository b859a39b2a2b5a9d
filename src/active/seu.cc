#include "active/seu.h"

#include <algorithm>

#include "util/check.h"

namespace activedp {
namespace {

constexpr double kCoveredRowWeight = 0.3;

}  // namespace

void SeuSampler::EnsureIndex(const SamplerContext& context) {
  if (indexed_dataset_ == context.train) return;
  indexed_dataset_ = context.train;
  token_rows_.clear();
  if (context.train->meta().task != TaskType::kTextClassification) return;
  token_rows_.resize(context.train->vocabulary().size());
  for (int i = 0; i < context.train->size(); ++i) {
    for (const auto& [term, count] : context.train->example(i).term_counts) {
      if (term >= 0 && term < static_cast<int>(token_rows_.size())) {
        token_rows_[term].push_back(i);
      }
    }
  }
}

double SeuSampler::Utility(
    const LabelFunction& lf, const SamplerContext& context,
    std::unordered_map<std::string, double>& cache) const {
  const std::string key = lf.Key();
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  auto row_utility = [&](int row) {
    // Expected net-correct weak label under current beliefs; rows without
    // beliefs (no label model yet) contribute the uncovered bonus only.
    double p_correct = 0.5;
    if (context.lm_proba != nullptr) {
      p_correct = context.lm_proba->row(row)[lf.label()];
    }
    const bool covered =
        context.lm_active != nullptr && (*context.lm_active)[row];
    const double weight = covered ? kCoveredRowWeight : 1.0;
    return weight * (2.0 * p_correct - 1.0);
  };

  double utility = 0.0;
  const auto* keyword = dynamic_cast<const KeywordLf*>(&lf);
  if (keyword != nullptr && !token_rows_.empty()) {
    const int term = keyword->token_id();
    if (term >= 0 && term < static_cast<int>(token_rows_.size())) {
      for (int row : token_rows_[term]) utility += row_utility(row);
    }
  } else {
    for (int row = 0; row < context.train->size(); ++row) {
      if (lf.Apply(context.train->example(row)) == kAbstain) continue;
      utility += row_utility(row);
    }
  }
  cache.emplace(key, utility);
  return utility;
}

int SeuSampler::SelectQuery(const SamplerContext& context, Rng& rng) {
  CHECK(context.lf_space != nullptr) << "SEU requires the candidate LF space";
  EnsureIndex(context);

  // Candidate query pool.
  std::vector<int> unqueried;
  for (int i = 0; i < context.train->size(); ++i) {
    if (!(*context.queried)[i]) unqueried.push_back(i);
  }
  if (unqueried.empty()) return -1;
  std::vector<int> pool;
  if (static_cast<int>(unqueried.size()) <= options_.pool_subsample) {
    pool = unqueried;
  } else {
    for (int idx :
         rng.SampleWithoutReplacement(static_cast<int>(unqueried.size()),
                                      options_.pool_subsample)) {
      pool.push_back(unqueried[idx]);
    }
  }

  std::unordered_map<std::string, double> utility_cache;
  int best = pool.front();
  double best_score = -1e300;
  for (int i : pool) {
    // All LFs anchored at the instance, system view (no accuracy filter).
    std::vector<LfCandidate> candidates = context.lf_space->CandidatesFor(
        context.train->example(i), /*min_accuracy=*/-1.0,
        /*target_label=*/-1);
    if (candidates.empty()) continue;
    // Keep the highest-coverage candidates (the ones a user most plausibly
    // returns) to bound the cost.
    if (static_cast<int>(candidates.size()) >
        options_.max_candidates_per_instance) {
      std::partial_sort(
          candidates.begin(),
          candidates.begin() + options_.max_candidates_per_instance,
          candidates.end(), [](const LfCandidate& a, const LfCandidate& b) {
            return a.coverage > b.coverage;
          });
      candidates.resize(options_.max_candidates_per_instance);
    }
    double coverage_total = 0.0;
    for (const auto& c : candidates) coverage_total += c.coverage;
    if (coverage_total <= 0.0) continue;
    double score = 0.0;
    for (const auto& c : candidates) {
      const double p_user = c.coverage / coverage_total;
      score += p_user * Utility(*c.lf, context, utility_cache);
    }
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

}  // namespace activedp
