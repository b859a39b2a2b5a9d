#include "online/learn_scenario.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "online/event_log.h"
#include "online/retrainer.h"
#include "serve/chaos_scenario.h"
#include "serve/prediction_service.h"
#include "serve/rollout.h"
#include "serve/snapshot_export.h"
#include "serve/snapshot_io.h"
#include "serve/snapshot_registry.h"

namespace activedp {
namespace {

/// Fixed rollout routing seed so promote/rollback expectations are identical
/// across scenario seeds and harnesses (mirrors serve/chaos_scenario.cc).
constexpr uint64_t kRolloutSeed = 0x1ea4;

constexpr int kSegmentRecords = 64;

/// How a retrain cycle with an honored fault armed at `site` must end.
struct FaultedCycle {
  std::string_view site;
  RetrainOutcome outcome;
  /// The cycle must also have quarantined at least one segment.
  bool quarantines;
};

constexpr FaultedCycle kFaultedCycles[] = {
    // Every append failed, so the cycle legitimately sees no data.
    {"eventlog.append", RetrainOutcome::kNoData, false},
    {"eventlog.replay", RetrainOutcome::kQuarantined, true},
    {"retrain.fit", RetrainOutcome::kFitFailed, true},
    {"retrain.validate", RetrainOutcome::kQuarantined, true},
    {"publish.rollout", RetrainOutcome::kQuarantined, false},
};

}  // namespace

Result<LearnChaosFixture> BuildLearnChaosFixture(const std::string& dir,
                                                 const std::string& dataset,
                                                 double scale, uint64_t seed,
                                                 int base_steps,
                                                 int trace_size) {
  std::filesystem::create_directories(dir);
  LearnChaosFixture fixture;
  fixture.dir = dir;
  fixture.snapshot_path =
      dir + "/learn-base-" + std::to_string(seed) + ".snapshot";

  ASSIGN_OR_RETURN(DataSplit split, MakeZooDataset(dataset, scale, seed));
  const FrameworkContext context = FrameworkContext::Build(split);
  ActiveDpOptions options;
  options.seed = seed ^ 41;
  ActiveDp pipeline(context, options);
  // A deliberately short protocol run: the base snapshot must be weak enough
  // that feedback-driven retrains have headroom to improve it.
  for (int t = 0; t < base_steps; ++t) RETURN_IF_ERROR(pipeline.Step());
  ASSIGN_OR_RETURN(ModelSnapshot base, ExportSnapshot(pipeline, context));
  fixture.snapshot = std::make_shared<const ModelSnapshot>(std::move(base));
  RETURN_IF_ERROR(SaveSnapshot(*fixture.snapshot, fixture.snapshot_path));

  fixture.features = context.train_features;
  fixture.corpus_labels.reserve(split.train.size());
  for (int i = 0; i < split.train.size(); ++i) {
    fixture.corpus_labels.push_back(split.train.example(i).label);
  }
  const int holdout_rows = std::min(200, split.valid.size());
  for (int i = 0; i < holdout_rows; ++i) {
    fixture.holdout.push_back(split.valid.example(i));
    fixture.holdout_labels.push_back(context.valid_labels[i]);
  }
  const int trace_rows = std::min(trace_size, split.train.size());
  fixture.trace.reserve(trace_rows);
  for (int i = 0; i < trace_rows; ++i) {
    fixture.trace.push_back(split.train.example(i));
  }
  if (fixture.holdout.empty() || fixture.trace.size() < 8) {
    return Status::InvalidArgument(
        "learn chaos fixture too small (holdout or trace)");
  }
  return fixture;
}

ChaosOutcome RunLearnChaosScenario(const LearnChaosFixture& fixture,
                                   const ChaosSite& site, FaultKind kind,
                                   uint64_t seed) {
  ChaosOutcome outcome;
  const bool honored = site.Honors(kind);
  const std::string_view name = site.site;
  const bool torn_append =
      name == "eventlog.append" && kind == FaultKind::kTruncateWrite && honored;

  const std::string tag = std::string(name) + "-" +
                          std::string(FaultKindToString(kind)) + "-" +
                          std::to_string(seed);
  const std::string scenario_dir = fixture.dir + "/" + tag;
  std::error_code ec;
  std::filesystem::remove_all(scenario_dir, ec);
  const std::string log_dir = scenario_dir + "/log";
  const std::string manifest = scenario_dir + "/registry.manifest";

  // --- Un-faulted setup: durable log, registry with the weak base active,
  // service serving the base with the log attached.
  EventLogOptions log_options;
  log_options.max_records_per_segment = kSegmentRecords;
  Result<std::unique_ptr<EventLog>> opened_log =
      EventLog::Open(log_dir, log_options);
  if (!opened_log.ok()) {
    outcome.Fail("event log open failed: " + opened_log.status().ToString());
    return outcome;
  }
  std::unique_ptr<EventLog> log = std::move(*opened_log);

  Result<SnapshotRegistry> opened = SnapshotRegistry::Open(manifest);
  if (!opened.ok()) {
    outcome.Fail("registry open failed: " + opened.status().ToString());
    return outcome;
  }
  SnapshotRegistry registry = std::move(*opened);
  const Result<int64_t> base_id =
      registry.Register(fixture.snapshot_path, -1, "learn-base");
  if (!base_id.ok() || !registry.Activate(*base_id).ok()) {
    outcome.Fail("registry setup failed");
    return outcome;
  }

  PredictionServiceOptions service_options;
  service_options.max_batch_size = 8;
  PredictionService service(service_options);
  service.LoadSnapshot(fixture.snapshot);
  service.AttachEventLog(log.get());

  RetrainerOptions retrain_options;
  retrain_options.min_training_rows = 8;
  retrain_options.fit_budget_seconds = 60.0;
  retrain_options.lr.epochs = 25;
  retrain_options.lr.seed = seed ^ 99;
  // Chaos mode: validation is a formality (any candidate passes the gate) so
  // the drills exercise the fault paths deterministically; the strict
  // improvement contract is continuous_bench's job.
  retrain_options.min_accuracy_gain = -1.0;
  retrain_options.retry.max_attempts = 2;
  retrain_options.retry.seed = seed;
  retrain_options.rollout.canary_fraction = 0.3;
  retrain_options.rollout.window =
      std::min<int>(64, static_cast<int>(fixture.trace.size()));
  retrain_options.rollout.min_canary_samples = 4;
  retrain_options.rollout.seed = kRolloutSeed;
  retrain_options.snapshot_dir = scenario_dir + "/candidates";

  Retrainer::Config config;
  config.log = log.get();
  config.registry = &registry;
  config.service = &service;
  config.features = &fixture.features;
  config.holdout = &fixture.holdout;
  config.holdout_labels = &fixture.holdout_labels;
  config.rollout_trace = &fixture.trace;
  Retrainer retrainer(config, retrain_options);

  // Feeds one wave of exact labels; returns how many the service rejected.
  const int wave = std::min<int>(200, static_cast<int>(fixture.features.size()));
  auto feed_wave = [&] {
    int rejected = 0;
    for (int i = 0; i < wave; ++i) {
      const FeedbackEvent event{.type = FeedbackType::kExactLabel,
                                .row = i,
                                .label = fixture.corpus_labels[i]};
      if (!service.RecordFeedback(event).ok()) ++rejected;
    }
    return rejected;
  };

  // --- Drill: one feedback wave + one retrain cycle with the site armed.
  FaultSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  spec.max_fires = -1;
  // Let a few records land durably before the torn one, so recovery has a
  // valid prefix to keep.
  if (torn_append) spec.trigger_after = 3;
  {
    FaultScope scope(site.site, spec);

    const int rejected = feed_wave();
    if (name == "eventlog.append" && honored) {
      // Clean rejection at append: the caller was told, durability was not
      // silently lost (the torn-write flavour reports success exactly once —
      // the simulated crash — then refuses everything).
      if (rejected == 0) {
        outcome.Fail("faulted appends all reported success");
      } else {
        ++outcome.evidence;
      }
    } else if (rejected > 0) {
      outcome.Fail("feedback rejected with no append fault armed");
    }

    const Result<RetrainReport> cycle = retrainer.RunOnce();
    if (torn_append) {
      // The handle is past its simulated crash: the cycle must refuse
      // cleanly, not limp along on a torn log.
      if (cycle.ok()) {
        outcome.Fail("cycle on a poisoned log reported success");
      } else if (cycle.status().code() == StatusCode::kUnavailable) {
        ++outcome.evidence;
      } else {
        outcome.Fail("poisoned log surfaced unexpectedly: " +
                     cycle.status().ToString());
      }
    } else if (!cycle.ok()) {
      outcome.Fail("cycle infrastructure error: " + cycle.status().ToString());
    } else if (honored) {
      // The served snapshot must be untouched by any faulted cycle.
      if (service.snapshot() != fixture.snapshot) {
        outcome.Fail("faulted cycle touched the served snapshot");
      }
      const FaultedCycle* want = nullptr;
      for (const FaultedCycle& rule : kFaultedCycles) {
        if (rule.site == name) want = &rule;
      }
      if (want == nullptr) {
        outcome.Fail("no faulted-cycle expectation for this site");
      } else if (cycle->outcome != want->outcome ||
                 (want->quarantines && cycle->segments_quarantined == 0)) {
        outcome.Fail("faulted cycle ended " +
                     std::string(RetrainOutcomeToString(cycle->outcome)) +
                     ", want " +
                     std::string(RetrainOutcomeToString(want->outcome)) +
                     (want->quarantines ? " with a quarantine" : ""));
      } else if (want->outcome != RetrainOutcome::kNoData) {
        // A no-data cycle is the append rejection counted above, not new
        // evidence.
        ++outcome.evidence;
      }
      if (name == "publish.rollout") {
        // The candidate was registered before the fault; it must be
        // condemned, with the base still active.
        const Result<SnapshotRecord> condemned =
            registry.Get(cycle->candidate_id);
        if (!condemned.ok() ||
            condemned->status != SnapshotStatus::kFailed ||
            registry.active_id() != *base_id) {
          outcome.Fail("failed publish left registry inconsistent");
        } else {
          ++outcome.evidence;
        }
      }
    } else {
      // Unhonored kinds must not perturb a clean cycle: the wave retrains
      // and publishes (validation is a formality here, the rollout is clean).
      if (cycle->outcome != RetrainOutcome::kPublished) {
        outcome.Fail("unhonored kind disturbed the cycle: " +
                     std::string(RetrainOutcomeToString(cycle->outcome)) +
                     " (" + cycle->detail + ")");
      }
    }
    outcome.fires = scope.fire_count();
  }

  // --- Recovery: the fault is gone. A torn-append log is reopened (torn
  // tail truncated); then a fresh wave + a fresh cycle must still publish —
  // one poisoned drill can never wedge the loop.
  if (torn_append) {
    log.reset();
    Result<std::unique_ptr<EventLog>> reopened =
        EventLog::Open(log_dir, log_options);
    if (!reopened.ok()) {
      outcome.Fail("log reopen after torn append failed: " +
                   reopened.status().ToString());
      return outcome;
    }
    log = std::move(*reopened);
    service.AttachEventLog(log.get());
    config.log = log.get();
    ++outcome.evidence;
  }

  // A fresh retrainer (bound to the possibly-reopened log) mirrors a loop
  // restart; its empty quarantine also proves the on-disk segments that
  // survive are genuinely consumable.
  Retrainer recovery(config, retrain_options);
  {
    if (feed_wave() > 0) {
      outcome.Fail("clean feedback rejected after the fault cleared");
    }
    const Result<RetrainReport> cycle = recovery.RunOnce();
    if (!cycle.ok()) {
      outcome.Fail("post-fault cycle failed: " + cycle.status().ToString());
    } else if (cycle->outcome != RetrainOutcome::kPublished) {
      outcome.Fail("post-fault cycle did not publish: " +
                   std::string(RetrainOutcomeToString(cycle->outcome)) + " (" +
                   cycle->detail + ")");
    }
  }

  // --- Surviving path: the service must serve every trace row, bitwise
  // identical to the offline predictions of the registry's active snapshot
  // reloaded from its registered path.
  const std::optional<int64_t> active = registry.active_id();
  const Result<SnapshotRecord> active_record =
      active.has_value()
          ? registry.Get(*active)
          : Result<SnapshotRecord>(Status::NotFound("no active snapshot"));
  const Result<ModelSnapshot> offline =
      active_record.ok() ? LoadSnapshot(active_record->path)
                         : Result<ModelSnapshot>(active_record.status());
  const Result<std::vector<uint64_t>> expected =
      offline.ok() ? OfflineDigests(*offline, fixture.trace)
                   : Result<std::vector<uint64_t>>(offline.status());
  if (!expected.ok()) {
    outcome.Fail("active snapshot unservable offline: " +
                 expected.status().ToString());
  } else {
    CheckSurvivingPath(service, fixture.trace, *expected, outcome);
  }

  std::filesystem::remove_all(scenario_dir, ec);
  return outcome;
}

}  // namespace activedp
