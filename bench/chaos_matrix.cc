// Chaos matrix: one table-driven runner for every fault-injection matrix in
// the system. Each row of the table below is one subsystem:
//
//   pipeline  the offline ActiveDP pipeline (DESIGN.md §7). Every cell must
//             not crash, account for every fire (a retry, a degradation, a
//             non-OK termination or a detected-corrupt artifact), keep its
//             metrics finite, leave a resumable checkpoint and stay inside
//             its wall-clock bound. A per-seed check proves a transient
//             single-fire metal.fit kError is absorbed by a retry with
//             metrics bitwise-identical to the fault-free run.
//   serve     ServeGuard (§11, serve/chaos_scenario.h). Every fault is
//             cleanly rejected or auto-recovered, and the surviving path
//             serves bitwise the offline digests of the snapshot that should
//             be active. Drills on the first seed cover the admission
//             triggers no fault site reaches (a shed burst and a deadline
//             storm) and a clean load, which must serve every request,
//             meet every serving SLO and dump nothing.
//   learn     LearnGuard (§12, online/learn_scenario.h). Every fault ends in
//             a clean rejection, a quarantine or an auto-rollback, and the
//             loop publishes again once the fault clears. A drill on the
//             first seed runs clean feedback waves under live traffic, which
//             must publish at least three strictly improving retrains.
//
// A row holds the matrix's sites and kinds, its seeds and fixture sizes, a
// per-seed fixture builder, a scenario callback per (site, kind) cell, its
// incident policy, the trace instants and dump reasons the whole run must
// show, and the counters its report prints. The runner does the shared work
// once: it arms the flight recorder for every cell, runs the fault
// accounting (CheckChaosAccounting) and the incident check
// (CheckIncidentDumps) after each cell, enforces the run-level gates,
// exports each matrix's trace to bench-archive/<out-stem>.<matrix>.trace.*
// and writes one JSON report.
//
// Registered as one ctest per matrix (LABELS chaos; learn also online):
//   ./build/bench/chaos_matrix --matrix=serve --out=BENCH_serve_chaos.json

#include <any>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/run_checkpoint.h"
#include "core/session_io.h"
#include "data/dataset_zoo.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "online/learn_scenario.h"
#include "serve/chaos_scenario.h"
#include "serve/prediction_service.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/retry.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace activedp {
namespace {

/// Per-run deadline of one pipeline protocol run (watchdog-enforced).
constexpr double kBudgetSeconds = 60.0;
/// Request-trace length of the serve and learn fixtures.
constexpr int kTraceSize = 48;
/// Where trace exports and incident dumps land (relative to the cwd).
constexpr char kArchiveDir[] = "bench-archive";

/// A cell outside the site × kind grid, with its own callback and the one
/// incident it must dump ("" = the matrix's policy applies).
struct Drill {
  const char* site;
  const char* kind;
  const char* incident_reason;
  ChaosOutcome (*run)(const std::any& fixture, uint64_t seed);
  bool every_seed;  // false: the first seed only
};

/// A grid cell that must dump exactly one incident with `reason`.
struct ExpectedIncident {
  const char* site;
  FaultKind kind;
  const char* reason;
};

/// A run-level gate: at least one trace instant named `name` in one of
/// `categories`, reported under `key`.
struct RequiredInstant {
  const char* key;
  std::vector<std::string> categories;
  const char* name;
};

struct Matrix {
  const char* name;
  std::vector<ChaosSite> sites;
  std::vector<FaultKind> kinds;
  const char* dataset;
  double scale;
  uint64_t first_seed;
  int seeds;
  int steps;
  /// Builds one seed's fixture; the result holds a shared_ptr<const F>.
  Result<std::any> (*build)(const Matrix& matrix, uint64_t seed,
                            const std::string& dir);
  ChaosOutcome (*run)(const std::any& fixture, const ChaosSite& site,
                      FaultKind kind, uint64_t seed);
  /// Incident policy of every cell not named in `expected_incidents`.
  IncidentPolicy incidents;
  std::vector<ExpectedIncident> expected_incidents{};
  std::vector<Drill> drills{};
  std::vector<RequiredInstant> required_instants{};
  std::vector<std::string> required_dumps{};
  /// Report key -> counter in the global MetricsRegistry.
  std::vector<std::pair<const char*, const char*>> counters{};
};

/// Binds typed fixture builders and callbacks to the table's type-erased
/// fixture (a std::shared_ptr<const Fixture> inside a std::any).
template <typename Fixture,
          Result<Fixture> (*Build)(const Matrix&, uint64_t, const std::string&)>
Result<std::any> BuildOn(const Matrix& matrix, uint64_t seed,
                         const std::string& dir) {
  ASSIGN_OR_RETURN(Fixture fixture, Build(matrix, seed, dir));
  return std::any(std::make_shared<const Fixture>(std::move(fixture)));
}

template <typename Fixture>
const Fixture& FixtureOf(const std::any& fixture) {
  return *std::any_cast<const std::shared_ptr<const Fixture>&>(fixture);
}

template <typename Fixture, ChaosOutcome (*Run)(const Fixture&,
                                                const ChaosSite&, FaultKind,
                                                uint64_t)>
ChaosOutcome CellOn(const std::any& fixture, const ChaosSite& site,
                    FaultKind kind, uint64_t seed) {
  return Run(FixtureOf<Fixture>(fixture), site, kind, seed);
}

template <typename Fixture, ChaosOutcome (*Run)(const Fixture&, uint64_t)>
ChaosOutcome DrillOn(const std::any& fixture, uint64_t seed) {
  return Run(FixtureOf<Fixture>(fixture), seed);
}

// ---------------------------------------------------------------------------
// pipeline: the offline ActiveDP protocol under fault.

struct PipelineFixture {
  std::string dir;
  int steps = 0;
  std::unique_ptr<const DataSplit> split;  // the context points into it
  FrameworkContext context{};
};

bool AllFiniteCurves(const RunResult& run) {
  for (const auto* curve :
       {&run.test_accuracy, &run.label_accuracy, &run.label_coverage}) {
    for (double v : *curve) {
      if (!std::isfinite(v)) return false;
    }
  }
  return std::isfinite(run.average_test_accuracy);
}

ActiveDpOptions MakeOptions(uint64_t seed, const RunLimits& limits) {
  ActiveDpOptions options;
  options.seed = seed ^ 0x9e37;
  options.user.seed = seed ^ 0x1234;
  // Exercise the full graphical-lasso path (the pipeline default is the
  // neighbourhood fast path, which never hits "glasso.solve").
  options.label_pick.blanket.method = BlanketMethod::kGraphicalLasso;
  options.label_pick.min_queries_for_blanket = 6;
  options.policy.retry.seed = seed;
  options.policy.limits = limits;
  return options;
}

ProtocolOptions MakeProtocol(int steps) {
  ProtocolOptions protocol;
  protocol.iterations = steps;
  protocol.eval_every = 8;
  return protocol;
}

Result<PipelineFixture> BuildPipelineFixture(const Matrix& matrix,
                                             uint64_t seed,
                                             const std::string& dir) {
  ASSIGN_OR_RETURN(DataSplit split,
                   MakeZooDataset(matrix.dataset, matrix.scale, seed));
  PipelineFixture fixture{dir, matrix.steps,
                          std::make_unique<const DataSplit>(std::move(split))};
  fixture.context = FrameworkContext::Build(*fixture.split);
  return fixture;
}

ChaosOutcome RunPipelineScenario(const PipelineFixture& fixture,
                                 const ChaosSite& site, FaultKind kind,
                                 uint64_t seed) {
  static Watchdog watchdog;
  ChaosOutcome outcome;
  Timer timer;

  auto cancel = std::make_shared<CancellationSource>();
  RunLimits limits;
  limits.deadline = Deadline::After(kBudgetSeconds);
  limits.cancel = cancel->token();
  watchdog.Watch(limits.deadline, cancel);

  const std::string tag = std::string(site.site) + "-" +
                          std::string(FaultKindToString(kind)) + "-" +
                          std::to_string(seed);
  const std::string checkpoint_path = fixture.dir + "/chaos-" + tag + ".ckpt";
  const std::string session_path = fixture.dir + "/chaos-" + tag + ".session";
  std::filesystem::remove(checkpoint_path);
  std::filesystem::remove(session_path);

  const ActiveDpOptions options = MakeOptions(seed, limits);
  ProtocolOptions protocol = MakeProtocol(fixture.steps);
  protocol.policy.checkpoint_path = checkpoint_path;
  protocol.policy.limits = limits;
  protocol.policy.retry = options.policy.retry;
  RetryLog protocol_retries;
  RecoveryLog protocol_recovery;
  protocol.policy.retry_log = &protocol_retries;
  protocol.policy.recovery = &protocol_recovery;

  // Every piece of evidence a fire can leave: a retry, a degradation, a
  // non-OK termination, or a detected-corrupt artifact (truncated writes
  // report success by design; their evidence is the checksum/parse failure
  // on reload).
  {
    FaultSpec spec;
    spec.kind = kind;
    spec.seed = seed;  // fault from the first hit, every hit
    FaultScope scope(site.site, spec);

    ActiveDp pipeline(fixture.context, options);
    const RunResult faulted = RunProtocol(pipeline, fixture.context, protocol);
    if (!faulted.termination.ok()) ++outcome.evidence;
    if (!AllFiniteCurves(faulted)) {
      outcome.Fail("non-finite metric in faulted run");
    }

    // Exercise the session path explicitly (the protocol never saves
    // sessions itself): a truncated save must be *detected* on reload.
    const Status session_saved = SaveSession(pipeline.Snapshot(), session_path);
    const Result<SessionState> loaded =
        session_saved.ok() ? LoadSession(session_path)
                           : Result<SessionState>(session_saved);
    if (!loaded.ok() || loaded->lfs.size() != pipeline.lfs().size()) {
      ++outcome.evidence;
    }

    outcome.fires = scope.fire_count();  // before the scope disarms the site
    outcome.evidence += static_cast<int>(
        pipeline.retry_log().events().size() +
        protocol_retries.events().size() + pipeline.recovery().events().size() +
        protocol_recovery.events().size());
  }

  // Resumability: with the fault disarmed, a fresh pipeline over the same
  // checkpoint path must complete. A checkpoint corrupted by the fault is
  // ignored (fresh start) — detected here as a load failure, never a crash.
  const Result<RunCheckpoint> reload = LoadRunCheckpoint(checkpoint_path);
  if (!reload.ok()) {
    if (reload.status().code() == StatusCode::kInvalidArgument) {
      ++outcome.evidence;
    } else if (reload.status().code() != StatusCode::kNotFound) {
      outcome.Fail("checkpoint reload returned unexpected " +
                   reload.status().ToString());
    }
  }
  {
    RunLimits clean_limits;
    clean_limits.deadline = Deadline::After(kBudgetSeconds);
    ProtocolOptions clean_protocol = protocol;
    clean_protocol.policy.limits = clean_limits;
    clean_protocol.policy.retry_log = nullptr;
    clean_protocol.policy.recovery = nullptr;
    ActiveDp resumed(fixture.context, MakeOptions(seed, clean_limits));
    const RunResult rerun =
        RunProtocol(resumed, fixture.context, clean_protocol);
    if (!rerun.termination.ok()) {
      outcome.Fail("clean re-run over the checkpoint did not complete: " +
                   rerun.termination.ToString());
    }
    if (!AllFiniteCurves(rerun)) {
      outcome.Fail("non-finite metric in clean re-run");
    }
  }

  // Both runs carry a kBudgetSeconds deadline; everything else is cheap.
  const double elapsed = timer.ElapsedSeconds();
  if (elapsed > 2.0 * kBudgetSeconds + 5.0) {
    outcome.Fail("wall-clock exceeded bound (" + std::to_string(elapsed) +
                 "s)");
  }
  std::filesystem::remove(checkpoint_path);
  std::filesystem::remove(session_path);
  return outcome;
}

/// The retry layer's acceptance check: one transient kError on metal.fit is
/// absorbed (logged, recovered) and the run's metrics equal the fault-free
/// run's bit for bit.
ChaosOutcome RunTransientAbsorb(const PipelineFixture& fixture,
                                uint64_t seed) {
  ChaosOutcome outcome;
  const RunLimits limits;  // unlimited: this check is about determinism
  const ActiveDpOptions options = MakeOptions(seed, limits);
  const ProtocolOptions protocol = MakeProtocol(fixture.steps);

  ActiveDp clean(fixture.context, options);
  const RunResult baseline = RunProtocol(clean, fixture.context, protocol);
  if (!clean.retry_log().empty() || !clean.recovery().empty()) {
    outcome.Fail("fault-free run was not clean\n" +
                 clean.retry_log().Summary() + clean.recovery().Summary());
    return outcome;
  }

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.max_fires = 1;
  FaultScope scope("metal.fit", spec);
  ActiveDp faulted(fixture.context, options);
  const RunResult with_fault = RunProtocol(faulted, fixture.context, protocol);
  outcome.fires = scope.fire_count();
  outcome.evidence = faulted.retry_log().recovered_count("label_model.fit");
  if (outcome.fires != 1) {
    outcome.Fail("expected 1 fire, got " + std::to_string(outcome.fires));
  }
  if (faulted.retry_log().count("label_model.fit") < 1 ||
      outcome.evidence < 1) {
    outcome.Fail("retry log missing the recovered label_model.fit retry\n" +
                 faulted.retry_log().Summary());
  }
  if (!faulted.recovery().empty()) {
    outcome.Fail("retry should have prevented any degradation\n" +
                 faulted.recovery().Summary());
  }
  const bool identical =
      baseline.budgets == with_fault.budgets &&
      baseline.test_accuracy == with_fault.test_accuracy &&
      baseline.label_accuracy == with_fault.label_accuracy &&
      baseline.label_coverage == with_fault.label_coverage &&
      baseline.average_test_accuracy == with_fault.average_test_accuracy;
  if (!identical) {
    outcome.Fail("metrics differ from the fault-free run");
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// serve: ServeGuard, plus the admission-trigger and clean-load drills.

Result<ServeChaosFixture> BuildServeFixture(const Matrix& matrix,
                                            uint64_t seed,
                                            const std::string& dir) {
  return BuildServeChaosFixture(dir, matrix.dataset, matrix.scale, seed,
                                matrix.steps, std::max(1, matrix.steps / 2),
                                kTraceSize);
}

/// A latency spike on every batch warms the EWMA to ~5ms/request, so a flood
/// of async requests is shed at admission; `shed_burst_threshold` sheds
/// inside the window must fire the "serve.shed_burst" incident.
ChaosOutcome RunShedBurstDrill(const ServeChaosFixture& fixture,
                               uint64_t seed) {
  const auto request = [&](size_t i) {
    return ServeRequest{.example = fixture.trace[i % fixture.trace.size()]};
  };
  ChaosOutcome outcome;
  PredictionServiceOptions options;
  options.max_batch_size = 4;
  options.max_queue_delay_ms = 0.05;
  options.shed_burst_threshold = 8;
  options.incident_window_seconds = 30.0;
  PredictionService service(options);
  service.LoadSnapshot(fixture.snapshot_a);

  FaultSpec spec;
  spec.kind = FaultKind::kLatencySpike;
  spec.seed = seed;
  FaultScope scope("serve.predict", spec);
  // Two slow warm-up batches push the EWMA far above the 0.05ms queue
  // budget; from then on every async request is shed at admission.
  for (size_t i = 0; i < 2; ++i) (void)service.Predict(request(i));
  const int64_t before = FlightRecorder::Global().incidents_dumped();
  std::vector<std::future<ServeReply>> futures;
  for (size_t i = 0; i < 512; ++i) {
    futures.push_back(service.PredictAsync(request(i)));
    if (FlightRecorder::Global().incidents_dumped() > before && i >= 16) {
      break;
    }
  }
  for (auto& future : futures) {
    if (future.get().status.code() == StatusCode::kUnavailable) {
      ++outcome.fires;
    }
  }
  if (outcome.fires < 8) {
    outcome.Fail("overload flood shed too few requests");
  } else {
    outcome.evidence = 1;
  }
  return outcome;
}

/// Requests admitted with already-expired deadlines:
/// `deadline_storm_threshold` failures inside the window must fire the
/// "serve.deadline_storm" incident.
ChaosOutcome RunDeadlineStormDrill(const ServeChaosFixture& fixture,
                                   uint64_t /*seed*/) {
  ChaosOutcome outcome;
  PredictionServiceOptions options;
  options.deadline_storm_threshold = 8;
  options.incident_window_seconds = 30.0;
  PredictionService service(options);
  service.LoadSnapshot(fixture.snapshot_a);
  for (size_t i = 0; i < 8; ++i) {
    const ServeReply reply =
        service.Predict({.example = fixture.trace[i % fixture.trace.size()],
                         .deadline = Deadline::After(0.0)});
    if (reply.status.code() == StatusCode::kDeadlineExceeded) ++outcome.fires;
  }
  if (outcome.fires < 8) {
    outcome.Fail("expired requests were not all deadline-failed");
  } else {
    outcome.evidence = 1;
  }
  return outcome;
}

/// Four clients issue 100 plain requests each with the burst triggers and
/// the default serving SLOs armed. Every request must serve and the health
/// probe (which evaluates the SLOs) must pass; the row's kNone policy
/// rejects any dump.
ChaosOutcome RunCleanLoadDrill(const ServeChaosFixture& fixture,
                               uint64_t /*seed*/) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 100;
  ChaosOutcome outcome;
  SloEngine slo(DefaultServingSlos());
  PredictionServiceOptions options;
  options.shed_burst_threshold = 64;
  options.deadline_storm_threshold = 64;
  PredictionService service(options);
  service.AttachSloEngine(&slo);
  service.LoadSnapshot(fixture.snapshot_a);
  // Burn rates are deltas from this sample, so the rejections the earlier
  // cells injected into the global registry do not count.
  slo.Tick();
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kRequestsPerClient; ++k) {
        const size_t row = (c + k * kClients) % fixture.trace.size();
        if (!service.Predict({.example = fixture.trace[row]}).ok()) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  slo.Tick();
  if (failed.load() > 0) {
    outcome.Fail(std::to_string(failed.load()) + " clean requests failed");
  }
  const Status health = service.CheckHealth();
  if (!health.ok()) {
    outcome.Fail("unhealthy after a clean load: " + health.ToString());
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// learn: LearnGuard.

Result<LearnChaosFixture> BuildLearnFixture(const Matrix& matrix,
                                            uint64_t seed,
                                            const std::string& dir) {
  return BuildLearnChaosFixture(dir, matrix.dataset, matrix.scale, seed,
                                matrix.steps, kTraceSize);
}

/// The row's base (6 steps) is too strong to improve strictly three times,
/// so the clean-waves drill builds its own weaker one (4 steps, a 64-row
/// trace).
ChaosOutcome RunCleanWavesDrill(const LearnChaosFixture& fixture,
                                uint64_t seed) {
  const Result<LearnChaosFixture> weak =
      BuildLearnChaosFixture(fixture.dir + "/clean-waves", "youtube", 0.1,
                             seed, /*base_steps=*/4, /*trace_size=*/64);
  if (!weak.ok()) {
    ChaosOutcome outcome;
    outcome.Fail("weak fixture build failed: " + weak.status().ToString());
    return outcome;
  }
  return RunLearnCleanWaves(*weak, seed);
}

// ---------------------------------------------------------------------------
// The table.

const std::vector<Matrix>& Matrices() {
  using enum FaultKind;
  static const std::vector<Matrix>* matrices = new std::vector<Matrix>{
      {.name = "pipeline",
       .sites = {{"glasso.solve", FaultKindMask({kError, kNan, kNoConverge})},
                 {"metal.fit", FaultKindMask({kNan, kError})},
                 {"lr.fit", FaultKindMask({kNan, kNoConverge, kError})},
                 {"oracle.create_lf", FaultKindMask({kEmptyResponse})},
                 {"session.save", FaultKindMask({kError, kTruncateWrite})},
                 {"checkpoint.save", FaultKindMask({kError, kTruncateWrite})}},
       .kinds = {kError, kNan, kNoConverge, kTruncateWrite, kEmptyResponse},
       .dataset = "youtube",
       .scale = 0.25,
       .first_seed = 1,
       .seeds = 3,
       .steps = 24,
       .build = &BuildOn<PipelineFixture, &BuildPipelineFixture>,
       .run = &CellOn<PipelineFixture, &RunPipelineScenario>,
       .incidents = IncidentPolicy::kNone,
       .drills = {{"metal.fit", "transient", "",
                   &DrillOn<PipelineFixture, &RunTransientAbsorb>,
                   /*every_seed=*/true}}},
      {.name = "serve",
       .sites = {{"snapshot.save", FaultKindMask({kError, kTruncateWrite})},
                 {"serve.snapshot_load", FaultKindMask({kError, kCorrupt})},
                 {"serve.dispatch", FaultKindMask({kError})},
                 {"serve.predict", FaultKindMask({kLatencySpike})},
                 {"registry.save", FaultKindMask({kError, kTruncateWrite})},
                 {"rollout.canary", FaultKindMask({kError})}},
       .kinds = {kError, kCorrupt, kTruncateWrite, kLatencySpike},
       .dataset = "youtube",
       .scale = 0.1,
       .first_seed = 7,
       .seeds = 2,
       .steps = 12,
       .build = &BuildOn<ServeChaosFixture, &BuildServeFixture>,
       .run = &CellOn<ServeChaosFixture, &RunServeChaosScenario>,
       .incidents = IncidentPolicy::kNone,
       // Only the two auto-recovery paths dump; every other cell is a
       // clean rejection.
       .expected_incidents = {{"serve.dispatch", kError, "serve.breaker_trip"},
                              {"rollout.canary", kError, "rollout.rollback"}},
       .drills = {{"drill.shed_burst", "overload", "serve.shed_burst",
                   &DrillOn<ServeChaosFixture, &RunShedBurstDrill>,
                   /*every_seed=*/false},
                  {"drill.deadline_storm", "expired", "serve.deadline_storm",
                   &DrillOn<ServeChaosFixture, &RunDeadlineStormDrill>,
                   /*every_seed=*/false},
                  {"drill.clean_load", "clean", "",
                   &DrillOn<ServeChaosFixture, &RunCleanLoadDrill>,
                   /*every_seed=*/false}},
       .required_instants = {{"rollback_instants",
                              {"serve.registry", "serve.rollout"},
                              "rollback"}},
       .required_dumps = {"serve.breaker_trip", "rollout.rollback"},
       .counters = {{"breaker_trips", "serve.breaker_trips"},
                    {"rollout_rollbacks", "serve.rollout.rollbacks"},
                    {"registry_rollbacks", "serve.registry.rollbacks"}}},
      {.name = "learn",
       .sites = {{"eventlog.append", FaultKindMask({kError, kTruncateWrite})},
                 {"eventlog.replay", FaultKindMask({kError, kCorrupt})},
                 {"retrain.fit", FaultKindMask({kError, kNan})},
                 {"retrain.validate", FaultKindMask({kError})},
                 {"publish.rollout", FaultKindMask({kError})}},
       .kinds = {kError, kNan, kCorrupt, kTruncateWrite},
       .dataset = "youtube",
       .scale = 0.1,
       .first_seed = 7,
       .seeds = 2,
       .steps = 6,
       .build = &BuildOn<LearnChaosFixture, &BuildLearnFixture>,
       .run = &CellOn<LearnChaosFixture, &RunLearnChaosScenario>,
       // A failed cycle may both quarantine and roll back, so a learn cell
       // may dump any number of incidents as long as each one verifies.
       .incidents = IncidentPolicy::kAny,
       .drills = {{"drill.clean_waves", "clean", "",
                   &DrillOn<LearnChaosFixture, &RunCleanWavesDrill>,
                   /*every_seed=*/false}},
       .required_instants = {{"quarantine_instants",
                              {"fault"},
                              "retrain.quarantine"}},
       .required_dumps = {"retrain.quarantine"},
       .counters = {{"retrain_cycles", "retrain.cycles"},
                    {"retrain_published", "retrain.published"},
                    {"quarantined_segments", "retrain.quarantined_segments"},
                    {"feedback_events", "serve.feedback"}}},
  };
  return *matrices;
}

// ---------------------------------------------------------------------------
// The runner.

struct Cell {
  std::string site;
  std::string kind;
  uint64_t seed = 0;
  int incidents = 0;
  double seconds = 0.0;
  ChaosOutcome outcome{};
};

struct MatrixRun {
  const Matrix* matrix = nullptr;
  std::vector<Cell> cells;
  int failures = 0;
  int incident_dumps = 0;
  std::map<std::string, int> dumps_by_reason;
  std::vector<std::pair<std::string, int64_t>> gates;  // instants + counters
  double seconds = 0.0;
};

/// Runs one cell with the flight recorder armed on `incident_dir`, then
/// applies the shared checks: fault accounting (grid cells only) and the
/// incident policy.
Cell RunCell(MatrixRun& run, std::string site, std::string kind,
             uint64_t seed, const std::string& incident_dir,
             const std::string& reason,
             const std::function<ChaosOutcome()>& scenario,
             const ChaosSite* grid_site, FaultKind grid_kind) {
  Cell cell{std::move(site), std::move(kind), seed};
  Timer timer;
  FlightRecorderOptions recorder;
  recorder.incident_dir = incident_dir;
  FlightRecorder::Global().Enable(recorder);
  cell.outcome = scenario();
  FlightRecorder::Global().Disable();
  cell.seconds = timer.ElapsedSeconds();

  if (grid_site != nullptr) {
    CheckChaosAccounting(*grid_site, grid_kind, cell.outcome);
  }
  const IncidentCheck incidents = CheckIncidentDumps(
      incident_dir,
      reason.empty() ? run.matrix->incidents : IncidentPolicy::kExactlyOne,
      reason);
  for (const std::string& failure : incidents.failures) {
    cell.outcome.Fail(failure);
  }
  for (const auto& [dump_reason, count] : incidents.verified) {
    run.dumps_by_reason[dump_reason] += count;
  }
  cell.incidents = incidents.dumps;
  run.incident_dumps += incidents.dumps;

  std::printf("%-6s %-8s %-20s %-15s seed=%-8llu fires=%-4d evidence=%-3d "
              "incidents=%d digest_mismatches=%-3d %6.2fs\n",
              cell.outcome.passed ? "ok" : "FAIL", run.matrix->name,
              cell.site.c_str(), cell.kind.c_str(),
              static_cast<unsigned long long>(seed), cell.outcome.fires,
              cell.outcome.evidence, cell.incidents,
              cell.outcome.digest_mismatches, cell.seconds);
  if (!cell.outcome.passed) {
    ++run.failures;
    std::fprintf(stderr, "  %s %s/%s seed %llu: %s\n", run.matrix->name,
                 cell.site.c_str(), cell.kind.c_str(),
                 static_cast<unsigned long long>(seed),
                 cell.outcome.failure.c_str());
  }
  return cell;
}

void FailRun(MatrixRun& run, const std::string& why) {
  ++run.failures;
  std::fprintf(stderr, "FAIL %s: %s\n", run.matrix->name, why.c_str());
}

MatrixRun RunMatrix(const Matrix& matrix, const std::string& out_stem) {
  MatrixRun run;
  run.matrix = &matrix;
  Timer total;
  const std::string tmpdir = (std::filesystem::temp_directory_path() /
                              (std::string("activedp-chaos-") + matrix.name))
                                 .string();
  std::filesystem::create_directories(tmpdir);
  const std::string incident_root = std::string(kArchiveDir) + "/incidents-" +
                                    out_stem + "-" + matrix.name;
  std::filesystem::remove_all(incident_root);

  // Each matrix runs traced end to end: the exported timeline carries every
  // fault fire, retry, degradation, rollback and quarantine it provokes.
  MetricsRegistry::Global().ResetAll();
  Tracer::Global().Enable();

  for (int s = 0; s < matrix.seeds; ++s) {
    const uint64_t seed = matrix.first_seed + 1000003ULL * s;
    const Result<std::any> fixture = matrix.build(matrix, seed, tmpdir);
    if (!fixture.ok()) {
      FailRun(run, "fixture build failed (seed " + std::to_string(seed) +
                       "): " + fixture.status().ToString());
      continue;
    }
    const std::string seed_tag = "-seed" + std::to_string(s);
    for (const ChaosSite& site : matrix.sites) {
      for (const FaultKind kind : matrix.kinds) {
        const std::string kind_name(FaultKindToString(kind));
        std::string reason;
        for (const ExpectedIncident& expected : matrix.expected_incidents) {
          if (site.site == std::string_view(expected.site) &&
              kind == expected.kind) {
            reason = expected.reason;
          }
        }
        run.cells.push_back(RunCell(
            run, site.site, kind_name, seed,
            incident_root + "/" + site.site + "-" + kind_name + seed_tag,
            reason, [&] { return matrix.run(*fixture, site, kind, seed); },
            &site, kind));
      }
    }
    for (const Drill& drill : matrix.drills) {
      if (s > 0 && !drill.every_seed) continue;
      run.cells.push_back(RunCell(
          run, drill.site, drill.kind, seed,
          incident_root + "/" + drill.site + "-" + drill.kind + seed_tag,
          drill.incident_reason, [&] { return drill.run(*fixture, seed); },
          nullptr, FaultKind::kNone));
    }
  }

  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();

  // Run-level gates: the recoveries must be *visible* in the timeline and
  // in verified incident dumps, not just implied by return values.
  for (const RequiredInstant& required : matrix.required_instants) {
    int64_t count = 0;
    for (const TraceEventRecord& event : trace.events) {
      if (event.name != required.name) continue;
      for (const std::string& category : required.categories) {
        if (event.category == category) ++count;
      }
    }
    if (count == 0) {
      FailRun(run, std::string("no ") + required.name +
                       " instant in the RunTrace timeline");
    }
    run.gates.emplace_back(required.key, count);
  }
  for (const std::string& reason : matrix.required_dumps) {
    if (run.dumps_by_reason[reason] == 0) {
      FailRun(run, "no verified " + reason + " incident dump");
    }
  }
  for (const auto& [key, counter] : matrix.counters) {
    run.gates.emplace_back(key,
                           MetricsRegistry::Global().counter_value(counter));
  }

  std::printf("\n%s", trace.Summary().ToString().c_str());
  const Status trace_written =
      WriteRunTrace(trace, kArchiveDir, out_stem + "." + matrix.name);
  if (!trace_written.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n",
                 trace_written.ToString().c_str());
  }
  run.seconds = total.ElapsedSeconds();
  std::printf("\n%s: %zu scenarios, %d failures, %d incident dumps, %.1fs\n\n",
              matrix.name, run.cells.size(), run.failures, run.incident_dumps,
              run.seconds);
  return run;
}

std::string ReportJson(const std::vector<MatrixRun>& runs) {
  std::string out = "{\n  \"benchmark\": \"chaos_matrix\",\n";
  out += "  \"matrices\": [\n";
  for (size_t m = 0; m < runs.size(); ++m) {
    const MatrixRun& run = runs[m];
    out += "    {\"name\": \"" + std::string(run.matrix->name) + "\",\n";
    out += "     \"scenarios\": " + std::to_string(run.cells.size()) + ",\n";
    out += "     \"failures\": " + std::to_string(run.failures) + ",\n";
    out += "     \"incident_dumps\": " + std::to_string(run.incident_dumps) +
           ",\n";
    for (const auto& [key, value] : run.gates) {
      out += "     \"" + key + "\": " + std::to_string(value) + ",\n";
    }
    out += "     \"dumps_by_reason\": {";
    for (const auto& [reason, count] : run.dumps_by_reason) {
      out += (out.back() == '{' ? "\"" : ", \"") + reason +
             "\": " + std::to_string(count);
    }
    out += "},\n     \"seconds\": " + std::to_string(run.seconds) + ",\n";
    out += "     \"cells\": [\n";
    for (size_t i = 0; i < run.cells.size(); ++i) {
      const Cell& cell = run.cells[i];
      out += "       {\"site\": \"" + cell.site + "\", \"kind\": \"" +
             cell.kind + "\", \"seed\": " + std::to_string(cell.seed) +
             ", \"passed\": " + (cell.outcome.passed ? "true" : "false") +
             ", \"fires\": " + std::to_string(cell.outcome.fires) +
             ", \"evidence\": " + std::to_string(cell.outcome.evidence) +
             ", \"incidents\": " + std::to_string(cell.incidents) +
             ", \"digest_mismatches\": " +
             std::to_string(cell.outcome.digest_mismatches) + "}";
      out += i + 1 < run.cells.size() ? ",\n" : "\n";
    }
    out += m + 1 < runs.size() ? "     ]},\n" : "     ]}\n";
  }
  return out + "  ]\n}\n";
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("matrix", "pipeline,serve,learn",
                "comma list of matrices to run (pipeline, serve, learn)");
  flags.AddFlag("out", "BENCH_chaos.json", "JSON report path");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;

  std::vector<const Matrix*> selected;
  for (const std::string& name : Split(flags.GetString("matrix"), ',')) {
    const Matrix* found = nullptr;
    for (const Matrix& matrix : Matrices()) {
      if (name == matrix.name) found = &matrix;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "unknown matrix: %s\n", name.c_str());
      return 2;
    }
    selected.push_back(found);
  }

  const std::string out = flags.GetString("out");
  const std::string out_stem = std::filesystem::path(out).stem().string();
  Timer total;
  std::vector<MatrixRun> runs;
  int failures = 0;
  for (const Matrix* matrix : selected) {
    runs.push_back(RunMatrix(*matrix, out_stem));
    failures += runs.back().failures;
  }
  const Status written = AtomicWriteFile(out, ReportJson(runs));
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.ToString().c_str());
    ++failures;
  }
  std::printf("%d failures, %.1fs total\n", failures, total.ElapsedSeconds());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace activedp

int main(int argc, char** argv) { return activedp::Main(argc, argv); }
