#ifndef ACTIVEDP_ONLINE_LEARN_SCENARIO_H_
#define ACTIVEDP_ONLINE_LEARN_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/example.h"
#include "serve/model_snapshot.h"
#include "util/fault.h"
#include "util/result.h"

namespace activedp {

/// Everything a LearnGuard chaos scenario needs, built once per seed: a
/// deliberately *weak* base snapshot (few protocol steps, so retrains have
/// headroom), the featurized corpus the feedback rows index into, ground
/// truth for the simulated users, a holdout slice for the validation gate,
/// and a traffic trace for the staged rollout.
struct LearnChaosFixture {
  std::string dir;
  std::string snapshot_path;
  std::shared_ptr<const ModelSnapshot> snapshot;
  /// Featurized train rows — FeedbackEvent::row indexes into these.
  std::vector<SparseVector> features;
  /// Ground-truth label per train row (the simulated feedback source).
  std::vector<int> corpus_labels;
  std::vector<Example> holdout;
  std::vector<int> holdout_labels;
  /// Live-traffic window served during rollouts and the surviving-path sweep.
  std::vector<Example> trace;
};

Result<LearnChaosFixture> BuildLearnChaosFixture(const std::string& dir,
                                                 const std::string& dataset,
                                                 double scale, uint64_t seed,
                                                 int base_steps,
                                                 int trace_size);

/// Runs one (site, kind, seed) cell of the chaos matrix's `learn` rows and
/// asserts the continuous-learning contract (DESIGN.md §12):
///
///   - every injected fault ends in a clean rejection (non-OK status),
///     quarantine, or auto-rollback — never a crash, a served regression,
///     or a silently published bad candidate;
///   - the served snapshot is never touched by a failed cycle; after the
///     fault clears, a fresh feedback wave still retrains and publishes
///     (the loop is not wedged);
///   - after everything, served responses bitwise match the offline
///     predictions of the registry's active snapshot reloaded from its
///     registered path (`digest_mismatches` == 0).
///
/// The fault accounting (CheckChaosAccounting) is left to the caller. Each
/// scenario builds a fresh event log, registry, service and retrainer from
/// the fixture, so scenarios are independent and order-insensitive.
ChaosOutcome RunLearnChaosScenario(const LearnChaosFixture& fixture,
                                   const ChaosSite& site, FaultKind kind,
                                   uint64_t seed);

/// The chaos matrix's fault-free `learn` drill: the continuous-learning
/// contract under live traffic. Two client threads serve the trace through
/// PredictWithRetry for the whole run while eight drifting feedback waves
/// (exact labels for one chunk of rows, LF votes for the next) each feed one
/// retrain cycle behind a strictly-better validation gate. Fails `outcome`
/// unless
///
///   - at least three cycles publish, each strictly improving holdout
///     accuracy (counted in `evidence`), and no cycle ends other than
///     published, rejected or no-data;
///   - the background Start()/Stop() loop runs at least one cycle;
///   - no client request fails;
///   - served responses bitwise match the registry's active snapshot
///     reloaded from disk (`digest_mismatches` == 0), and that snapshot's
///     holdout accuracy beats the base's.
///
/// `fixture`'s base must be weak enough to leave room for three strict
/// improvements (four protocol steps on youtube at scale 0.1 with a 64-row
/// trace do).
ChaosOutcome RunLearnCleanWaves(const LearnChaosFixture& fixture,
                                uint64_t seed);

}  // namespace activedp

#endif  // ACTIVEDP_ONLINE_LEARN_SCENARIO_H_
