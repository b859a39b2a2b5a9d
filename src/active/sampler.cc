#include "active/sampler.h"

#include "active/adp.h"
#include "active/lal.h"
#include "active/passive.h"
#include "active/seu.h"
#include "active/uncertainty.h"
#include "util/check.h"
#include "util/string_util.h"

namespace activedp {
namespace internal {

int RandomUnqueried(const SamplerContext& context, Rng& rng) {
  CHECK(context.train != nullptr);
  CHECK(context.queried != nullptr);
  std::vector<int> unqueried;
  for (int i = 0; i < context.train->size(); ++i) {
    if (!(*context.queried)[i]) unqueried.push_back(i);
  }
  if (unqueried.empty()) return -1;
  return unqueried[rng.UniformInt(static_cast<int>(unqueried.size()))];
}

}  // namespace internal

std::unique_ptr<Sampler> MakeSampler(SamplerType type, uint64_t seed) {
  switch (type) {
    case SamplerType::kPassive:
      return std::make_unique<PassiveSampler>();
    case SamplerType::kUncertainty:
      return std::make_unique<UncertaintySampler>();
    case SamplerType::kLal: {
      LalOptions options;
      options.seed = seed;
      return std::make_unique<LalSampler>(options);
    }
    case SamplerType::kSeu:
      return std::make_unique<SeuSampler>();
    case SamplerType::kAdp:
      return std::make_unique<AdpSampler>();
  }
  return std::make_unique<AdpSampler>();
}

SamplerType ParseSamplerType(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "passive" || lower == "random") return SamplerType::kPassive;
  if (lower == "us" || lower == "uncertainty") return SamplerType::kUncertainty;
  if (lower == "lal") return SamplerType::kLal;
  if (lower == "seu") return SamplerType::kSeu;
  return SamplerType::kAdp;
}

}  // namespace activedp
