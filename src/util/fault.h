#ifndef ACTIVEDP_UTIL_FAULT_H_
#define ACTIVEDP_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace activedp {

/// What an armed fault site does when it fires.
enum class FaultKind {
  kNone = 0,
  /// Poison the stage's numeric output with NaN (the stage's own finite
  /// guards must catch it).
  kNan,
  /// Force the solver to report non-convergence.
  kNoConverge,
  /// Fail the operation with Status::Internal.
  kError,
  /// Truncate a file write partway through (simulates a crash mid-save;
  /// the write still reports success, as a killed process would).
  kTruncateWrite,
  /// Oracle-style sites return an empty/no-op response.
  kEmptyResponse,
  /// Corrupt the bytes a read path is about to verify (bit flip before the
  /// checksum check), so the site's own corruption detection must reject it.
  kCorrupt,
  /// Inject a latency spike (a bounded sleep) without failing the operation
  /// — the overload/tail-latency story, not the correctness one.
  kLatencySpike,
};

std::string_view FaultKindToString(FaultKind kind);

/// Bit for `kind` in an honored-kinds mask (see CheckFault below).
constexpr uint32_t FaultKindBit(FaultKind kind) {
  return 1u << static_cast<int>(kind);
}

/// Mask of every kind in `kinds`.
constexpr uint32_t FaultKindMask(std::initializer_list<FaultKind> kinds) {
  uint32_t mask = 0;
  for (FaultKind kind : kinds) mask |= FaultKindBit(kind);
  return mask;
}

/// All kinds honored — the default for sites that predate honored-kind
/// filtering.
constexpr uint32_t kAllFaultKinds = ~0u;

/// When and how often an armed site fires. Deterministic: given the same
/// spec and the same sequence of CheckFault() calls, the same calls fire.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  /// Skip this many hits before the first fire (0 = fire immediately).
  int trigger_after = 0;
  /// Stop firing after this many fires (-1 = unlimited).
  int max_fires = -1;
  /// Fire each due hit with this probability, decided by a per-site
  /// counter-based hash of `seed` (1.0 = always). Still deterministic.
  double probability = 1.0;
  uint64_t seed = 0;
};

/// Deterministic fault-injection registry. Compiled in always; the hot-path
/// query (CheckFault below) is a single relaxed atomic load when no site is
/// armed, so production runs pay nothing.
///
/// Every site, the kinds it honors and the subsystem that hosts it is listed
/// in DESIGN.md §7 (pipeline), §11 (serving) and §12 (continuous learning);
/// the chaos matrix runner (bench/chaos_matrix.cc) sweeps them all from one
/// table of ChaosSite rows.
class FaultInjector {
 public:
  /// Process-wide registry used by the ACTIVEDP_CHECK_FAULT sites.
  static FaultInjector& Global();

  /// Arms (or re-arms, resetting counters) a named site.
  void Arm(const std::string& site, const FaultSpec& spec);
  void Disarm(const std::string& site);
  void DisarmAll();

  /// Records a hit at `site` and returns the fault to inject now (kNone
  /// when the site is disarmed or not yet due). A due fault whose kind is
  /// not in `honored_mask` does NOT fire (and does not count as a fire):
  /// sites declare the kinds they can express, so fire_count() only ever
  /// counts injections that had an observable effect — the invariant the
  /// chaos matrix's fault accounting (CheckChaosAccounting) rests on.
  FaultKind Check(std::string_view site, uint32_t honored_mask = kAllFaultKinds);

  /// How many times `site` actually fired since it was (re-)armed.
  int fire_count(const std::string& site) const;
  /// How many times `site` was hit since it was (re-)armed.
  int hit_count(const std::string& site) const;

  bool any_armed() const {
    return num_armed_.load(std::memory_order_relaxed) > 0;
  }

 private:
  struct SiteState {
    FaultSpec spec;
    int hits = 0;
    int fires = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, SiteState, std::less<>> sites_;
  std::atomic<int> num_armed_{0};
};

/// Hot-path site query against the global registry; zero-cost (one relaxed
/// load) while nothing is armed. Sites pass the kinds they honor so an
/// armed-but-inexpressible kind never counts as a fire.
inline FaultKind CheckFault(std::string_view site,
                            uint32_t honored_mask = kAllFaultKinds) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.any_armed()) return FaultKind::kNone;
  return injector.Check(site, honored_mask);
}

inline FaultKind CheckFault(std::string_view site,
                            std::initializer_list<FaultKind> honored) {
  return CheckFault(site, FaultKindMask(honored));
}

/// One row of a chaos matrix: a fault site and the kinds it can express
/// (mirroring the mask its CheckFault call passes).
struct ChaosSite {
  const char* site;
  uint32_t honored;

  bool Honors(FaultKind kind) const {
    return (FaultKindBit(kind) & honored) != 0;
  }
};

/// What one chaos-matrix cell observed. Scenario callbacks fill it in;
/// CheckChaosAccounting then judges the fault bookkeeping.
struct ChaosOutcome {
  bool passed = true;
  std::string failure;
  /// Injected-fault fires observed by the armed site.
  int fires = 0;
  /// Pieces of evidence the fault was handled: retries, degradations,
  /// non-OK terminations, detected corruption, clean rejections,
  /// quarantines, breaker trips, rollbacks, absorbed spikes.
  int evidence = 0;
  /// Served responses on the surviving path whose digest diverged from the
  /// offline prediction of the snapshot that should be serving. Must be 0.
  int digest_mismatches = 0;

  void Fail(const std::string& why);
};

/// The fault-accounting check every chaos cell ends with: an unhonored kind
/// must never fire, an honored kind must fire at least once, and fires must
/// leave evidence. Records each violation on `outcome`.
void CheckChaosAccounting(const ChaosSite& site, FaultKind kind,
                          ChaosOutcome& outcome);

/// RAII arming for tests and chaos harnesses: arms on construction (or via
/// Arm(), for scopes covering several sites at once), disarms everything it
/// armed on destruction — so a failing test cannot leak an armed site into
/// later tests.
class FaultScope {
 public:
  FaultScope() = default;
  FaultScope(std::string site, const FaultSpec& spec);
  FaultScope(std::string site, FaultKind kind);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// Arms (or re-arms) another site under this scope's lifetime.
  void Arm(std::string site, const FaultSpec& spec);
  void Arm(std::string site, FaultKind kind);

  /// Fires at the first armed site (the single-site common case).
  int fire_count() const;
  int fire_count(const std::string& site) const;
  /// Total fires across every site this scope armed.
  int total_fires() const;

 private:
  std::vector<std::string> sites_;
};

}  // namespace activedp

#endif  // ACTIVEDP_UTIL_FAULT_H_
