#ifndef ACTIVEDP_SERVE_CHAOS_SCENARIO_H_
#define ACTIVEDP_SERVE_CHAOS_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/model_snapshot.h"
#include "serve/prediction_service.h"
#include "util/fault.h"
#include "util/result.h"

namespace activedp {

/// Everything a serve chaos scenario needs, built once per seed (training a
/// pipeline is the expensive part): two exported snapshots (A = baseline, B
/// = candidate) on disk and in memory, a request trace, and each snapshot's
/// offline prediction digest per trace row — the bitwise ground truth the
/// surviving-path check compares served responses against.
struct ServeChaosFixture {
  std::string dir;
  std::string snapshot_a_path;
  std::string snapshot_b_path;
  std::shared_ptr<const ModelSnapshot> snapshot_a;
  std::shared_ptr<const ModelSnapshot> snapshot_b;
  std::vector<Example> trace;
  std::vector<uint64_t> digests_a;
  std::vector<uint64_t> digests_b;
};

/// Trains a pipeline on a zoo dataset, exports snapshot A after `steps_a`
/// protocol steps and snapshot B after `steps_b` more, saves both under
/// `dir`, and precomputes the offline digests over the first `trace_size`
/// train examples (at least 8).
Result<ServeChaosFixture> BuildServeChaosFixture(const std::string& dir,
                                                 const std::string& dataset,
                                                 double scale, uint64_t seed,
                                                 int steps_a, int steps_b,
                                                 int trace_size);

/// Each trace row's offline prediction digest under `snapshot`.
Result<std::vector<uint64_t>> OfflineDigests(const ModelSnapshot& snapshot,
                                             const std::vector<Example>& trace);

/// The surviving-path check both chaos scenario modules end with: serves
/// every trace row through `service` and fails `outcome` on a failed
/// request or any reply whose digest differs from `expected` (counted in
/// `digest_mismatches`).
void CheckSurvivingPath(PredictionService& service,
                        const std::vector<Example>& trace,
                        const std::vector<uint64_t>& expected,
                        ChaosOutcome& outcome);

/// Runs one (site, kind, seed) cell of the chaos matrix's `serve` rows and
/// asserts the ServeGuard contract (DESIGN.md §11):
///
///   - nothing crashes; every injected fault is either cleanly rejected
///     (non-OK status, detected corruption) or auto-recovered (circuit
///     breaker back to last-known-good, rollout rollback, absorbed latency
///     spike) — counted in `evidence`;
///   - after the fault, the service still serves and every response is
///     bitwise identical to the offline prediction of the snapshot that
///     should be active (`digest_mismatches` == 0);
///   - registry state stays consistent: a failed or torn manifest write
///     never leaves partial state, a condemned candidate is marked failed,
///     a rollback re-activates the previous healthy snapshot.
///
/// The fault accounting (CheckChaosAccounting) is left to the caller. Each
/// scenario sets up a fresh registry + service from the fixture, so
/// scenarios are independent and order-insensitive.
ChaosOutcome RunServeChaosScenario(const ServeChaosFixture& fixture,
                                   const ChaosSite& site, FaultKind kind,
                                   uint64_t seed);

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_CHAOS_SCENARIO_H_
