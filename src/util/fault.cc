#include "util/fault.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace activedp {
namespace {

/// splitmix64 finalizer: uniform deterministic hash of (seed, counter).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string_view FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kNan:
      return "nan";
    case FaultKind::kNoConverge:
      return "no-converge";
    case FaultKind::kError:
      return "error";
    case FaultKind::kTruncateWrite:
      return "truncate-write";
    case FaultKind::kEmptyResponse:
      return "empty-response";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kLatencySpike:
      return "latency-spike";
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& site, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = sites_.insert_or_assign(site, SiteState{spec, 0, 0});
  (void)it;
  if (inserted) num_armed_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sites_.erase(site) > 0) {
    num_armed_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  num_armed_.fetch_sub(static_cast<int>(sites_.size()),
                       std::memory_order_relaxed);
  sites_.clear();
}

FaultKind FaultInjector::Check(std::string_view site, uint32_t honored_mask) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return FaultKind::kNone;
  SiteState& state = it->second;
  const int hit = state.hits++;
  if ((FaultKindBit(state.spec.kind) & honored_mask) == 0) {
    // The site cannot express this kind; the hit is counted but nothing
    // fires, so fire_count() stays an honest count of observable effects.
    return FaultKind::kNone;
  }
  if (hit < state.spec.trigger_after) return FaultKind::kNone;
  if (state.spec.max_fires >= 0 && state.fires >= state.spec.max_fires) {
    return FaultKind::kNone;
  }
  if (state.spec.probability < 1.0) {
    const double u =
        static_cast<double>(Mix(state.spec.seed ^ static_cast<uint64_t>(hit)) >>
                            11) *
        0x1.0p-53;
    if (u >= state.spec.probability) return FaultKind::kNone;
  }
  ++state.fires;
  // Fold the activation into the run timeline (the tracer's locks are
  // leaves, so calling out while holding mutex_ cannot deadlock).
  TraceInstant("fault", site, FaultKindToString(state.spec.kind));
  MetricsRegistry::Global().counter("fault.fires").Increment();
  return state.spec.kind;
}

int FaultInjector::fire_count(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

int FaultInjector::hit_count(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

void ChaosOutcome::Fail(const std::string& why) {
  passed = false;
  if (!failure.empty()) failure += "; ";
  failure += why;
}

void CheckChaosAccounting(const ChaosSite& site, FaultKind kind,
                          ChaosOutcome& outcome) {
  const bool honored = site.Honors(kind);
  if (!honored && outcome.fires > 0) {
    outcome.Fail("unhonored kind fired " + std::to_string(outcome.fires) +
                 " times");
  }
  if (honored && outcome.fires == 0) {
    outcome.Fail("site was never exercised (0 fires)");
  }
  if (outcome.fires > 0 && outcome.evidence == 0) {
    outcome.Fail("injected faults left no evidence");
  }
}

FaultScope::FaultScope(std::string site, const FaultSpec& spec) {
  Arm(std::move(site), spec);
}

FaultScope::FaultScope(std::string site, FaultKind kind) {
  Arm(std::move(site), kind);
}

FaultScope::~FaultScope() {
  for (const std::string& site : sites_) {
    FaultInjector::Global().Disarm(site);
  }
}

void FaultScope::Arm(std::string site, const FaultSpec& spec) {
  FaultInjector::Global().Arm(site, spec);
  sites_.push_back(std::move(site));
}

void FaultScope::Arm(std::string site, FaultKind kind) {
  FaultSpec spec;
  spec.kind = kind;
  Arm(std::move(site), spec);
}

int FaultScope::fire_count() const {
  return sites_.empty() ? 0 : fire_count(sites_.front());
}

int FaultScope::fire_count(const std::string& site) const {
  return FaultInjector::Global().fire_count(site);
}

int FaultScope::total_fires() const {
  int total = 0;
  for (const std::string& site : sites_) {
    total += FaultInjector::Global().fire_count(site);
  }
  return total;
}

}  // namespace activedp
