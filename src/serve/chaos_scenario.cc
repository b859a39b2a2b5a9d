#include "serve/chaos_scenario.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "serve/prediction_service.h"
#include "serve/rollout.h"
#include "serve/serve_client.h"
#include "serve/snapshot_export.h"
#include "serve/snapshot_io.h"
#include "serve/snapshot_registry.h"
#include "util/retry.h"

namespace activedp {
namespace {

/// Routing seed for the rollout drills: fixed so the canary index set (and
/// with it the promote/rollback expectations) is identical across scenario
/// seeds and harnesses.
constexpr uint64_t kRolloutSeed = 0x5eed;

}  // namespace

Result<std::vector<uint64_t>> OfflineDigests(const ModelSnapshot& snapshot,
                                             const std::vector<Example>& trace) {
  std::vector<uint64_t> digests;
  digests.reserve(trace.size());
  for (const Example& example : trace) {
    ASSIGN_OR_RETURN(const ServedPrediction prediction,
                     snapshot.Predict(example));
    digests.push_back(PredictionDigest(prediction));
  }
  return digests;
}

void CheckSurvivingPath(PredictionService& service,
                        const std::vector<Example>& trace,
                        const std::vector<uint64_t>& expected,
                        ChaosOutcome& outcome) {
  for (size_t i = 0; i < trace.size(); ++i) {
    const ServeReply served = service.Predict({.example = trace[i]});
    if (!served.ok()) {
      outcome.Fail("surviving-path request " + std::to_string(i) +
                   " failed: " + served.status.ToString());
      break;
    }
    if (PredictionDigest(served.prediction) != expected[i]) {
      ++outcome.digest_mismatches;
    }
  }
  if (outcome.digest_mismatches > 0) {
    outcome.Fail("served-digest divergence on the surviving path (" +
                 std::to_string(outcome.digest_mismatches) + " rows)");
  }
}

Result<ServeChaosFixture> BuildServeChaosFixture(const std::string& dir,
                                                 const std::string& dataset,
                                                 double scale, uint64_t seed,
                                                 int steps_a, int steps_b,
                                                 int trace_size) {
  std::filesystem::create_directories(dir);
  ServeChaosFixture fixture;
  fixture.dir = dir;
  fixture.snapshot_a_path =
      dir + "/chaos-snapshot-a-" + std::to_string(seed) + ".snapshot";
  fixture.snapshot_b_path =
      dir + "/chaos-snapshot-b-" + std::to_string(seed) + ".snapshot";

  ASSIGN_OR_RETURN(DataSplit split, MakeZooDataset(dataset, scale, seed));
  const FrameworkContext context = FrameworkContext::Build(split);
  ActiveDpOptions options;
  options.seed = seed ^ 23;
  ActiveDp pipeline(context, options);
  for (int t = 0; t < steps_a; ++t) RETURN_IF_ERROR(pipeline.Step());
  ASSIGN_OR_RETURN(ModelSnapshot early, ExportSnapshot(pipeline, context));
  fixture.snapshot_a =
      std::make_shared<const ModelSnapshot>(std::move(early));
  RETURN_IF_ERROR(SaveSnapshot(*fixture.snapshot_a, fixture.snapshot_a_path));

  for (int t = 0; t < steps_b; ++t) RETURN_IF_ERROR(pipeline.Step());
  ASSIGN_OR_RETURN(ModelSnapshot late, ExportSnapshot(pipeline, context));
  fixture.snapshot_b = std::make_shared<const ModelSnapshot>(std::move(late));
  RETURN_IF_ERROR(SaveSnapshot(*fixture.snapshot_b, fixture.snapshot_b_path));

  const int rows = std::min(trace_size, split.train.size());
  if (rows < 8) {
    return Status::InvalidArgument("serve chaos fixture trace too small");
  }
  fixture.trace.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    fixture.trace.push_back(split.train.example(i));
  }
  ASSIGN_OR_RETURN(fixture.digests_a,
                   OfflineDigests(*fixture.snapshot_a, fixture.trace));
  ASSIGN_OR_RETURN(fixture.digests_b,
                   OfflineDigests(*fixture.snapshot_b, fixture.trace));
  return fixture;
}

ChaosOutcome RunServeChaosScenario(const ServeChaosFixture& fixture,
                                   const ChaosSite& site, FaultKind kind,
                                   uint64_t seed) {
  ChaosOutcome outcome;
  const bool honored = site.Honors(kind);
  const std::string_view name = site.site;

  const std::string tag = std::string(name) + "-" +
                          std::string(FaultKindToString(kind)) + "-" +
                          std::to_string(seed);
  const std::string manifest = fixture.dir + "/registry-" + tag + ".manifest";
  std::filesystem::remove(manifest);

  // Un-faulted setup: registry with A active and B a registered candidate,
  // service serving A with a warm EWMA and A as the last-known-good.
  Result<SnapshotRegistry> opened = SnapshotRegistry::Open(manifest);
  if (!opened.ok()) {
    outcome.Fail("registry open failed: " + opened.status().ToString());
    return outcome;
  }
  SnapshotRegistry registry = std::move(*opened);
  const Result<int64_t> id_a =
      registry.Register(fixture.snapshot_a_path, -1, "baseline");
  const Result<int64_t> id_b =
      id_a.ok() ? registry.Register(fixture.snapshot_b_path, *id_a,
                                    "candidate")
                : id_a;
  if (!id_a.ok() || !id_b.ok() || !registry.Activate(*id_a).ok()) {
    outcome.Fail("registry setup failed");
    return outcome;
  }

  PredictionServiceOptions service_options;
  service_options.max_batch_size = 8;
  service_options.breaker_threshold = 2;
  PredictionService service(service_options);
  service.LoadSnapshot(fixture.snapshot_a);
  for (int i = 0; i < 4; ++i) {
    if (!service.Predict({.example = fixture.trace[i]}).ok()) {
      outcome.Fail("warm-up request failed");
      return outcome;
    }
  }

  // Which snapshot's offline digests the surviving path must match; drills
  // that legitimately end on the candidate switch this to B.
  const std::vector<uint64_t>* expected = &fixture.digests_a;

  FaultSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  spec.max_fires = -1;
  if (name == "serve.dispatch") {
    spec.max_fires = service_options.breaker_threshold;
  } else if (name == "serve.predict") {
    spec.max_fires = 3;
  }
  {
    FaultScope scope(site.site, spec);

    if (name == "snapshot.save") {
      const std::string resave = fixture.dir + "/resave-" + tag + ".snapshot";
      std::filesystem::remove(resave);
      const Status saved = SaveSnapshot(*fixture.snapshot_a, resave);
      const Result<ModelSnapshot> loaded =
          saved.ok() ? LoadSnapshot(resave)
                     : Result<ModelSnapshot>(saved);
      if (honored) {
        // kError: clean rejection at save. kTruncateWrite: the save lies
        // (reports success); the torn file must be *detected* on load.
        if (!saved.ok() || !loaded.ok()) {
          ++outcome.evidence;
        } else {
          outcome.Fail("torn snapshot export loaded cleanly");
        }
      } else if (!saved.ok() || !loaded.ok()) {
        outcome.Fail("unhonored kind disturbed the save/load roundtrip");
      }
      std::filesystem::remove(resave);
    } else if (name == "serve.snapshot_load") {
      const Result<ModelSnapshot> loaded =
          LoadSnapshot(fixture.snapshot_b_path);
      if (honored) {
        // kError: injected read failure. kCorrupt: bit flip ahead of the
        // checksum — the verification itself must reject the bytes.
        if (loaded.ok()) {
          outcome.Fail("corrupted snapshot load succeeded");
        } else {
          ++outcome.evidence;
        }
      } else if (!loaded.ok()) {
        outcome.Fail("unhonored kind failed the load: " +
                     loaded.status().ToString());
      }
    } else if (name == "registry.save") {
      const size_t records_before = registry.records().size();
      const Result<int64_t> probe =
          registry.Register(fixture.snapshot_b_path, *id_b, "fault-probe");
      if (honored && kind == FaultKind::kError) {
        if (probe.ok()) {
          outcome.Fail("faulted manifest write reported success");
        } else {
          ++outcome.evidence;
        }
        // No partial state, in memory or on disk.
        if (registry.records().size() != records_before ||
            registry.active_id() != *id_a) {
          outcome.Fail("failed save left partial in-memory state");
        }
        const Result<SnapshotRegistry> reopened =
            SnapshotRegistry::Open(manifest);
        if (!reopened.ok() ||
            reopened->records().size() != records_before ||
            reopened->active_id() != *id_a) {
          outcome.Fail("failed save left partial on-disk state");
        }
      } else if (honored) {
        // kTruncateWrite: the write pretends to succeed, leaving a torn
        // manifest; reopening must detect it cleanly — an InvalidArgument,
        // never a half-loaded registry.
        if (!probe.ok()) {
          outcome.Fail("torn manifest write did not report success");
        }
        const Result<SnapshotRegistry> reopened =
            SnapshotRegistry::Open(manifest);
        if (reopened.ok()) {
          outcome.Fail("torn manifest reopened cleanly");
        } else if (reopened.status().code() != StatusCode::kInvalidArgument) {
          outcome.Fail("torn manifest surfaced unexpectedly: " +
                       reopened.status().ToString());
        } else {
          ++outcome.evidence;
        }
      } else {
        const Result<SnapshotRegistry> reopened =
            SnapshotRegistry::Open(manifest);
        if (!probe.ok() || !reopened.ok() ||
            reopened->records().size() != records_before + 1) {
          outcome.Fail("unhonored kind disturbed the manifest write");
        }
      }
    } else if (name == "rollout.canary") {
      RolloutOptions rollout;
      rollout.canary_fraction = 0.3;
      rollout.window = std::min<int>(64, static_cast<int>(fixture.trace.size()));
      rollout.min_canary_samples = 4;
      rollout.seed = kRolloutSeed;
      rollout.client_threads = 2;
      const Result<RolloutReport> report =
          RunStagedRollout(service, registry, *id_b, fixture.trace, rollout);
      if (!report.ok()) {
        outcome.Fail("rollout infrastructure failure: " +
                     report.status().ToString());
      } else if (honored) {
        // Every canary request failed; the candidate must be auto-rolled
        // back, condemned in the registry, and the service left on A.
        if (report->decision != RolloutDecision::kRollback) {
          outcome.Fail("faulted canary was promoted");
        } else {
          ++outcome.evidence;
        }
        const Result<SnapshotRecord> condemned = registry.Get(*id_b);
        if (registry.active_id() != *id_a || !condemned.ok() ||
            condemned->status != SnapshotStatus::kFailed) {
          outcome.Fail("rollback not recorded in the registry");
        }
      } else {
        // A clean canary window promotes; the service hot-swaps to the
        // candidate, so the surviving path must serve B's digests.
        if (report->decision != RolloutDecision::kPromote) {
          outcome.Fail("clean candidate was rolled back: " + report->reason);
        } else if (registry.active_id() != *id_b) {
          outcome.Fail("promotion not recorded in the registry");
        } else {
          expected = &fixture.digests_b;
        }
      }
    } else if (name == "serve.dispatch") {
      // Promote the candidate, then fail its first `breaker_threshold`
      // batches: the circuit breaker must degrade back to the last-known-
      // good snapshot (A) and the registry rollback must record it.
      if (!registry.Activate(*id_b).ok()) {
        outcome.Fail("candidate activation failed");
      }
      service.LoadSnapshot(fixture.snapshot_b);
      RetryPolicy policy;
      policy.max_attempts = service_options.breaker_threshold + 2;
      policy.seed = seed;
      RetryLog retry_log;
      const ServeReply recovered = PredictWithRetry(
          service, {.example = fixture.trace[0]}, policy, &retry_log);
      if (honored) {
        if (!recovered.ok()) {
          outcome.Fail("client retry did not recover after the breaker: " +
                       recovered.status.ToString());
        }
        if (service.breaker_trips() < 1 ||
            service.snapshot() != fixture.snapshot_a) {
          outcome.Fail("breaker did not restore the last-known-good");
        } else {
          ++outcome.evidence;
        }
        if (retry_log.count("serve.submit") < 1) {
          outcome.Fail("failed batches left no retry evidence");
        }
        const Result<int64_t> back = registry.Rollback();
        const Result<SnapshotRecord> condemned = registry.Get(*id_b);
        if (!back.ok() || *back != *id_a || !condemned.ok() ||
            condemned->status != SnapshotStatus::kFailed) {
          outcome.Fail("registry rollback did not re-activate the baseline");
        } else {
          ++outcome.evidence;
        }
      } else {
        if (!recovered.ok() || service.breaker_trips() != 0) {
          outcome.Fail("unhonored kind disturbed dispatch");
        }
        expected = &fixture.digests_b;
      }
    }
    // site == "serve.predict" has no drill of its own: the latency spikes
    // fire inside the surviving-path sweep below, which must stay OK and
    // bitwise-correct regardless.

    // The service must still serve the snapshot that should now be active.
    CheckSurvivingPath(service, fixture.trace, *expected, outcome);

    outcome.fires = scope.fire_count();
  }

  // Latency spikes are self-evidencing: they fired, yet the sweep above
  // stayed OK and bitwise-correct — the fault was absorbed, not swallowed.
  if (name == "serve.predict" && honored && outcome.fires > 0 &&
      outcome.digest_mismatches == 0) {
    ++outcome.evidence;
  }

  std::filesystem::remove(manifest);
  return outcome;
}

}  // namespace activedp
