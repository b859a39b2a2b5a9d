#include "online/learn_scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "online/event_log.h"
#include "online/retrainer.h"
#include "serve/chaos_scenario.h"
#include "serve/prediction_service.h"
#include "serve/rollout.h"
#include "serve/serve_client.h"
#include "serve/snapshot_export.h"
#include "serve/snapshot_io.h"
#include "serve/snapshot_registry.h"
#include "util/deadline.h"

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

/// One scenario's un-faulted setup: a durable log, a registry with the
/// fixture's weak base active, a service serving the base with the log
/// attached, and the retrainer's wiring over all of them. Heap-held, because
/// `config` borrows its members.
struct LearnRig {
  LearnRig(std::unique_ptr<EventLog> opened_log, SnapshotRegistry opened,
           int64_t base)
      : log(std::move(opened_log)),
        registry(std::move(opened)),
        base_id(base),
        service(PredictionServiceOptions{.max_batch_size = 8}) {}

  std::unique_ptr<EventLog> log;
  SnapshotRegistry registry;
  int64_t base_id;
  PredictionService service;
  Retrainer::Config config;
};

Result<std::unique_ptr<EventLog>> OpenLearnLog(
    const std::string& scenario_dir) {
  EventLogOptions options;
  options.max_records_per_segment = kSegmentRecords;
  return EventLog::Open(scenario_dir + "/log", options);
}

Result<std::unique_ptr<LearnRig>> OpenLearnRig(
    const LearnChaosFixture& fixture, const std::string& scenario_dir) {
  ASSIGN_OR_RETURN(std::unique_ptr<EventLog> log, OpenLearnLog(scenario_dir));
  ASSIGN_OR_RETURN(SnapshotRegistry registry,
                   SnapshotRegistry::Open(scenario_dir + "/registry.manifest"));
  ASSIGN_OR_RETURN(const int64_t base_id,
                   registry.Register(fixture.snapshot_path, -1, "learn-base"));
  RETURN_IF_ERROR(registry.Activate(base_id));
  auto rig = std::make_unique<LearnRig>(std::move(log), std::move(registry),
                                        base_id);
  rig->service.LoadSnapshot(fixture.snapshot);
  rig->service.AttachEventLog(rig->log.get());
  rig->config = {.log = rig->log.get(),
                 .registry = &rig->registry,
                 .service = &rig->service,
                 .features = &fixture.features,
                 .holdout = &fixture.holdout,
                 .holdout_labels = &fixture.holdout_labels,
                 .rollout_trace = &fixture.trace};
  return rig;
}

/// The retrainer options every learn scenario shares; callers set the fit
/// size and the validation gate.
RetrainerOptions LearnRetrainOptions(const LearnChaosFixture& fixture,
                                     uint64_t seed,
                                     const std::string& scenario_dir) {
  RetrainerOptions options;
  options.min_training_rows = 8;
  options.lr.seed = seed ^ 99;
  options.retry.seed = seed;
  options.rollout.canary_fraction = 0.3;
  options.rollout.window =
      std::min<int>(64, static_cast<int>(fixture.trace.size()));
  options.rollout.min_canary_samples = 4;
  options.rollout.seed = kRolloutSeed;
  options.snapshot_dir = scenario_dir + "/candidates";
  return options;
}

/// The surviving-path check every learn scenario ends with: the service
/// serves every trace row bitwise like the offline predictions of the
/// registry's active snapshot, reloaded from its registered path. Returns
/// that snapshot (an error when there is none to check against).
Result<ModelSnapshot> CheckActiveSnapshotServed(
    const LearnChaosFixture& fixture, LearnRig& rig, ChaosOutcome& outcome) {
  const std::optional<int64_t> active = rig.registry.active_id();
  if (!active.has_value()) return Status::NotFound("no active snapshot");
  ASSIGN_OR_RETURN(const SnapshotRecord record, rig.registry.Get(*active));
  ASSIGN_OR_RETURN(ModelSnapshot offline, LoadSnapshot(record.path));
  ASSIGN_OR_RETURN(const std::vector<uint64_t> expected,
                   OfflineDigests(offline, fixture.trace));
  CheckSurvivingPath(rig.service, fixture.trace, expected, outcome);
  return offline;
}

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

  Result<std::unique_ptr<LearnRig>> opened =
      OpenLearnRig(fixture, scenario_dir);
  if (!opened.ok()) {
    outcome.Fail("learn setup failed: " + opened.status().ToString());
    return outcome;
  }
  LearnRig& rig = **opened;
  PredictionService& service = rig.service;

  RetrainerOptions retrain_options =
      LearnRetrainOptions(fixture, seed, scenario_dir);
  retrain_options.fit_budget_seconds = 60.0;
  retrain_options.lr.epochs = 25;
  // Chaos mode: validation is a formality (any candidate passes the gate) so
  // the drills exercise the fault paths deterministically; the strict
  // improvement contract is RunLearnCleanWaves's job.
  retrain_options.min_accuracy_gain = -1.0;
  retrain_options.retry.max_attempts = 2;
  Retrainer retrainer(rig.config, retrain_options);

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
            rig.registry.Get(cycle->candidate_id);
        if (!condemned.ok() ||
            condemned->status != SnapshotStatus::kFailed ||
            rig.registry.active_id() != rig.base_id) {
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
    rig.log.reset();
    Result<std::unique_ptr<EventLog>> reopened = OpenLearnLog(scenario_dir);
    if (!reopened.ok()) {
      outcome.Fail("log reopen after torn append failed: " +
                   reopened.status().ToString());
      return outcome;
    }
    rig.log = std::move(*reopened);
    service.AttachEventLog(rig.log.get());
    rig.config.log = rig.log.get();
    ++outcome.evidence;
  }

  // A fresh retrainer (bound to the possibly-reopened log) mirrors a loop
  // restart; its empty quarantine also proves the on-disk segments that
  // survive are genuinely consumable.
  Retrainer recovery(rig.config, retrain_options);
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

  // --- Surviving path.
  const Result<ModelSnapshot> active =
      CheckActiveSnapshotServed(fixture, rig, outcome);
  if (!active.ok()) {
    outcome.Fail("active snapshot unservable offline: " +
                 active.status().ToString());
  }

  std::filesystem::remove_all(scenario_dir, ec);
  return outcome;
}

ChaosOutcome RunLearnCleanWaves(const LearnChaosFixture& fixture,
                                uint64_t seed) {
  constexpr int kWaves = 8;
  constexpr int kClients = 2;
  constexpr int kMinPublishes = 3;
  ChaosOutcome outcome;
  const std::string scenario_dir = fixture.dir + "/clean-waves";
  std::error_code ec;
  std::filesystem::remove_all(scenario_dir, ec);
  Result<std::unique_ptr<LearnRig>> opened =
      OpenLearnRig(fixture, scenario_dir);
  const Result<double> base_accuracy = Retrainer::HoldoutAccuracy(
      *fixture.snapshot, fixture.holdout, fixture.holdout_labels);
  if (!opened.ok() || !base_accuracy.ok()) {
    outcome.Fail("clean-waves setup failed");
    return outcome;
  }
  LearnRig& rig = **opened;

  RetrainerOptions retrain_options =
      LearnRetrainOptions(fixture, seed, scenario_dir);
  retrain_options.lr.epochs = 40;
  retrain_options.min_accuracy_gain = 0.0;  // strictly better
  retrain_options.poll_interval_seconds = 0.02;
  Retrainer retrainer(rig.config, retrain_options);

  // Live traffic for the whole run. Every request must succeed: hot swaps
  // cause no downtime, and sheds are absorbed by the retry-after hint.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> client_failures{0};
  RetryPolicy client_policy;
  client_policy.max_attempts = 6;
  client_policy.sleep = true;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; !stop.load(std::memory_order_relaxed); ++i) {
        const ServeReply served = PredictWithRetry(
            rig.service, {.example = fixture.trace[i % fixture.trace.size()]},
            client_policy);
        if (!served.ok()) client_failures.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // Drifting feedback: wave w delivers exact labels for chunk w and LF votes
  // for chunk w+1, which the exact labels override a wave later.
  const int corpus = static_cast<int>(fixture.features.size());
  const int chunk = std::max(16, corpus / (kWaves + 1));
  for (int w = 0; w < kWaves && w * chunk < corpus; ++w) {
    const int exact_end = std::min(corpus, (w + 1) * chunk);
    const int vote_end = std::min(corpus, exact_end + chunk);
    int rejected = 0;
    for (int i = w * chunk; i < vote_end; ++i) {
      const bool exact = i < exact_end;
      const FeedbackEvent event{
          .type = exact ? FeedbackType::kExactLabel : FeedbackType::kLfVote,
          .row = i,
          .label = fixture.corpus_labels[i],
          .lf_id = exact ? -1 : i % 5};
      if (!rig.service.RecordFeedback(event).ok()) ++rejected;
    }
    if (rejected > 0) {
      outcome.Fail(std::to_string(rejected) + " clean feedback events "
                   "rejected in wave " + std::to_string(w));
    }
    const Result<RetrainReport> cycle = retrainer.RunOnce();
    if (!cycle.ok()) {
      outcome.Fail("wave " + std::to_string(w) +
                   " cycle failed: " + cycle.status().ToString());
      break;
    }
    if (cycle->outcome == RetrainOutcome::kPublished) {
      ++outcome.evidence;
      // The strictly-better contract, re-checked from the report.
      if (cycle->candidate_accuracy <= cycle->active_accuracy) {
        outcome.Fail("published wave " + std::to_string(w) +
                     " did not improve accuracy");
      }
    } else if (cycle->outcome != RetrainOutcome::kRejected &&
               cycle->outcome != RetrainOutcome::kNoData) {
      outcome.Fail("clean wave " + std::to_string(w) + " ended " +
                   std::string(RetrainOutcomeToString(cycle->outcome)) +
                   " (" + cycle->detail + ")");
    }
  }
  if (outcome.evidence < kMinPublishes) {
    outcome.Fail("only " + std::to_string(outcome.evidence) +
                 " retrains published (need " +
                 std::to_string(kMinPublishes) + ")");
  }

  // The background loop under the same traffic runs cycles on its own
  // thread (kNoData: the waves are consumed).
  const int cycles_before = retrainer.stats().cycles;
  retrainer.Start();
  const Deadline deadline = Deadline::After(10.0);
  while (retrainer.stats().cycles < cycles_before + 3 && !deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  retrainer.Stop();
  if (retrainer.stats().cycles == cycles_before) {
    outcome.Fail("background loop never ran a cycle");
  }

  stop.store(true);
  for (std::thread& t : clients) t.join();
  if (client_failures.load() != 0) {
    outcome.Fail(std::to_string(client_failures.load()) +
                 " client requests failed during continuous learning");
  }

  const Result<ModelSnapshot> active =
      CheckActiveSnapshotServed(fixture, rig, outcome);
  const Result<double> final_accuracy =
      active.ok() ? Retrainer::HoldoutAccuracy(*active, fixture.holdout,
                                               fixture.holdout_labels)
                  : Result<double>(active.status());
  if (!final_accuracy.ok() || *final_accuracy <= *base_accuracy) {
    outcome.Fail("final accuracy did not beat the base");
  }
  std::filesystem::remove_all(scenario_dir, ec);
  return outcome;
}

}  // namespace activedp
