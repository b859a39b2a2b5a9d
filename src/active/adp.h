#ifndef ACTIVEDP_ACTIVE_ADP_H_
#define ACTIVEDP_ACTIVE_ADP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "active/sampler.h"

namespace activedp {

/// The paper's ADP sampler (Eq. 2, §3.3): selects
///   argmax_x Ent(f_a(x))^alpha * Ent(f_l(x))^(1-alpha),
/// balancing uncertainty of the active-learning model against uncertainty of
/// the label model. When only one model exists its entropy alone is used;
/// before either exists, selection is random.
///
/// The per-row scores are cached under the table generations and α; Refresh
/// recomputes them when the key changed or a table is hand-built
/// (generation 0), so SelectQuery is one scan over the cached scores.
class AdpSampler : public Sampler {
 public:
  std::string name() const override { return "adp"; }
  int SelectQuery(const SamplerContext& context, Rng& rng) override;
  void Refresh(const SamplerContext& context) override;

 private:
  /// Table generations (kAbsent without that model) and α behind score_.
  struct Key {
    uint64_t al = 0;
    uint64_t lm = 0;
    double alpha = 0.0;
    bool operator==(const Key&) const = default;
  };
  static constexpr uint64_t kAbsent = ~uint64_t{0};

  std::vector<double> score_;
  Key key_;
};

}  // namespace activedp

#endif  // ACTIVEDP_ACTIVE_ADP_H_
