#ifndef ACTIVEDP_ACTIVE_SAMPLER_H_
#define ACTIVEDP_ACTIVE_SAMPLER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "lf/lf_candidates.h"
#include "math/proba_table.h"
#include "util/rng.h"

namespace activedp {

/// Snapshot of the interactive state a sampler may consult when choosing the
/// next query instance. Pointers may be null early in a run (e.g. before the
/// first LF exists or the first AL model is trained); samplers must degrade
/// gracefully (typically to random selection).
struct SamplerContext {
  const Dataset* train = nullptr;
  /// Active-learning model probabilities per training row, or null.
  const ProbaTable* al_proba = nullptr;
  /// Label-model probabilities per training row (prior on uncovered rows),
  /// or null when no LF exists yet.
  const ProbaTable* lm_proba = nullptr;
  /// Whether at least one selected LF fires on each row (aligned with
  /// lm_proba), or null.
  const std::vector<bool>* lm_active = nullptr;
  /// Rows already queried in earlier iterations (never re-query).
  const std::vector<bool>* queried = nullptr;
  /// Size of the pseudo-labelled set so far.
  int num_labeled = 0;
  /// Fraction of the pseudo-labelled set carrying class 1 (LAL state
  /// feature; 0.5 when nothing is labelled).
  double labeled_positive_fraction = 0.5;
  /// Candidate-LF space (needed by SEU), or null.
  const LfSpace* lf_space = nullptr;
  /// ADP trade-off factor α of Eq. 2 (0.5 text, 0.99 tabular in §3.3).
  double adp_alpha = 0.5;
};

/// Query-instance selection strategy (§3.3 / §4.3.2).
class Sampler {
 public:
  virtual ~Sampler() = default;
  virtual std::string name() const = 0;
  /// Index of the next query in [0, train->size()), or -1 when every
  /// instance has been queried.
  virtual int SelectQuery(const SamplerContext& context, Rng& rng) = 0;
  /// Called after a step refilled a probability table, so work cached from
  /// the tables is redone then, not in the next SelectQuery. Default: no-op.
  virtual void Refresh(const SamplerContext& context) { (void)context; }
};

enum class SamplerType {
  kPassive,
  kUncertainty,
  kLal,
  kSeu,
  kAdp,
};

/// Factory. LAL performs its offline meta-training at construction.
std::unique_ptr<Sampler> MakeSampler(SamplerType type, uint64_t seed = 29);

/// Parses "passive" / "us" / "lal" / "seu" / "adp"; defaults to kAdp.
SamplerType ParseSamplerType(const std::string& name);

namespace internal {
/// Uniformly random unqueried index, or -1 if none. Shared fallback.
int RandomUnqueried(const SamplerContext& context, Rng& rng);
}  // namespace internal

}  // namespace activedp

#endif  // ACTIVEDP_ACTIVE_SAMPLER_H_
