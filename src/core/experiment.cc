#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "core/run_checkpoint.h"
#include "data/dataset_zoo.h"
#include "math/vector_ops.h"
#include "ml/metrics.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace activedp {

std::string FrameworkDisplayName(FrameworkType type) {
  switch (type) {
    case FrameworkType::kActiveDp:
      return "ActiveDP";
    case FrameworkType::kNemo:
      return "Nemo";
    case FrameworkType::kIws:
      return "IWS";
    case FrameworkType::kRlf:
      return "RevisingLF";
    case FrameworkType::kUs:
      return "US";
    case FrameworkType::kActiveWeasul:
      return "ActiveWeaSuL";
  }
  return "unknown";
}

Result<FrameworkType> ParseFrameworkType(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "activedp" || lower == "adp") return FrameworkType::kActiveDp;
  if (lower == "nemo") return FrameworkType::kNemo;
  if (lower == "iws") return FrameworkType::kIws;
  if (lower == "rlf" || lower == "revisinglf") return FrameworkType::kRlf;
  if (lower == "us" || lower == "uncertainty") return FrameworkType::kUs;
  if (lower == "aw" || lower == "active-weasul" || lower == "activeweasul") {
    return FrameworkType::kActiveWeasul;
  }
  return Status::InvalidArgument(
      "unknown framework '" + name +
      "' (expected one of: activedp, nemo, iws, rlf, us, aw)");
}

std::unique_ptr<InteractiveFramework> MakeFramework(
    FrameworkType type, const FrameworkContext& context,
    const ActiveDpOptions& adp_options) {
  if (type == FrameworkType::kActiveDp) {
    return std::make_unique<ActiveDp>(context, adp_options);
  }
  BaselineOptions baseline;
  baseline.label_model_type = adp_options.label_model_type;
  baseline.user = adp_options.user;
  baseline.al_lr = adp_options.al_lr;
  baseline.seed = adp_options.seed;
  switch (type) {
    case FrameworkType::kNemo:
      return std::make_unique<NemoFramework>(context, baseline);
    case FrameworkType::kIws:
      return std::make_unique<IwsFramework>(context, baseline);
    case FrameworkType::kRlf:
      return std::make_unique<RlfFramework>(context, baseline);
    case FrameworkType::kUs:
      return std::make_unique<UncertaintyFramework>(context, baseline);
    case FrameworkType::kActiveWeasul:
      return std::make_unique<ActiveWeasulFramework>(context, baseline);
    case FrameworkType::kActiveDp:
      break;
  }
  return std::make_unique<ActiveDp>(context, adp_options);
}

RunResult RunProtocol(InteractiveFramework& framework,
                      const FrameworkContext& context,
                      const ProtocolOptions& options) {
  RunResult result;
  // Resume: the framework run is deterministic and evaluation does not
  // mutate framework state, so replaying Step() up to the checkpointed
  // iteration while reusing its recorded evaluation rows reproduces an
  // uninterrupted run bit for bit.
  int resume_through = 0;
  const RunPolicy& policy = options.policy;
  if (!policy.checkpoint_path.empty()) {
    TraceSpan load_span("checkpoint.load");
    Result<RunCheckpoint> loaded = LoadRunCheckpoint(policy.checkpoint_path);
    if (loaded.ok()) {
      resume_through = loaded->completed_iterations;
      result = std::move(loaded->partial);
      LOG(Info) << framework.name() << " resuming from checkpoint at "
                << resume_through << " iterations ("
                << policy.checkpoint_path << ")";
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      // Degradation cascade step 4: a corrupt/truncated checkpoint must not
      // take the run down with it — start fresh instead.
      if (policy.recovery != nullptr) {
        policy.recovery->Record("checkpoint", loaded.status().ToString(),
                                "ignoring unusable checkpoint, fresh start");
      }
      LOG(Warning) << "ignoring unusable checkpoint "
                   << policy.checkpoint_path << " ("
                   << loaded.status().ToString() << "); starting fresh";
    }
  }
  Retrier retrier(policy.retry, policy.retry_log);
  for (int iteration = 1; iteration <= options.iterations; ++iteration) {
    TraceSpan round_span("protocol.round");
    round_span.AddArg("iteration", iteration);
    MetricsRegistry::Global().counter("protocol.rounds").Increment();
    const Status limit = policy.limits.Check("protocol");
    if (!limit.ok()) {
      result.termination =
          Status(limit.code(), limit.message() + " after " +
                                   std::to_string(iteration - 1) + " of " +
                                   std::to_string(options.iterations) +
                                   " iterations");
      TraceInstant("deadline", "protocol", result.termination.ToString());
      LOG(Info) << framework.name() << " budget tripped: "
                << result.termination.ToString();
      break;
    }
    const Status status = framework.Step();
    if (!status.ok()) {
      if (IsBudgetTrip(status)) {
        result.termination = status;
        TraceInstant("deadline", "protocol.step", status.ToString());
      }
      LOG(Debug) << framework.name() << " stopped at iteration " << iteration
                 << ": " << status.ToString();
      break;
    }
    if (iteration % options.eval_every != 0) continue;
    // Replayed iterations reuse the evaluation rows already in `result`.
    if (iteration <= resume_through) continue;

    TraceSpan eval_span("protocol.eval");
    const std::vector<std::vector<double>> labels =
        framework.CurrentTrainingLabels();
    const LabelQuality quality =
        MeasureLabelQuality(labels, context.split->train);
    double accuracy = 0.0;
    Result<LogisticRegression> end_model = [&]() {
      TraceSpan fit_span("end_model.fit");
      return TrainEndModel(context.train_features, labels, context.num_classes,
                           context.feature_dim, options.end_model);
    }();
    if (end_model.ok()) {
      accuracy = EvaluateAccuracy(*end_model, context.test_features,
                                  context.test_labels);
    } else if (policy.recovery != nullptr) {
      policy.recovery->Record("end_model", end_model.status().ToString(),
                              "recording zero accuracy for this evaluation");
    }
    result.budgets.push_back(iteration);
    result.test_accuracy.push_back(accuracy);
    result.label_accuracy.push_back(quality.accuracy);
    result.label_coverage.push_back(quality.coverage);

    if (!policy.checkpoint_path.empty()) {
      TraceSpan save_span("checkpoint.save");
      RunCheckpoint checkpoint;
      checkpoint.completed_iterations = iteration;
      checkpoint.partial = result;
      // Retry-before-degrade for the "checkpoint.save" fault site; only
      // after the attempts are spent does the run continue uncheckpointed.
      const Status saved =
          retrier.Run("checkpoint.save", policy.limits, [&]() {
            return SaveRunCheckpoint(checkpoint, policy.checkpoint_path);
          });
      if (!saved.ok()) {
        // A failed checkpoint save degrades resumability, not the run.
        if (policy.recovery != nullptr) {
          policy.recovery->Record("checkpoint", saved.ToString(),
                                  "continuing without checkpoint");
        }
        LOG(Warning) << "checkpoint save failed ("
                     << saved.ToString() << "); continuing without it";
      }
    }
  }
  result.average_test_accuracy = CurveAverage(result.test_accuracy);
  return result;
}

void ForEachSeed(int num_seeds, int num_threads,
                 const std::function<void(int)>& body) {
  const int workers = std::min(num_threads, num_seeds);
  if (workers <= 1) {
    for (int s = 0; s < num_seeds; ++s) body(s);
    return;
  }
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;  // the first failure, under error_mutex
  const auto record = [&](std::exception_ptr thrown) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::move(thrown);
    failed = true;
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    try {
      threads.emplace_back([&] {
        while (!failed) {
          const int s = next++;
          if (s >= num_seeds) return;
          try {
            body(s);
          } catch (...) {
            record(std::current_exception());
          }
        }
      });
    } catch (...) {
      // A thread that could not start: the ones running stop claiming,
      // and the failure is rethrown once they have joined.
      record(std::current_exception());
      break;
    }
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

Result<RunResult> RunExperiment(const ExperimentSpec& spec) {
  CHECK_GT(spec.num_seeds, 0);

  // Arm the tracer for this experiment when a trace sink was requested.
  // Metrics are reset alongside so the written snapshot covers this run
  // only. An experiment without trace_dir leaves any caller-armed tracer
  // alone.
  const bool tracing = !spec.policy.trace_dir.empty();
  if (tracing) {
    MetricsRegistry::Global().ResetAll();
    Tracer::Global().Enable();
  }

  // Worker isolation: each seed runs under its own cancellation source
  // (child of the experiment token) and, when a per-seed budget is set,
  // its own deadline backed by the watchdog — so one wedged or faulted
  // seed is cancelled and excluded instead of holding its thread.
  Watchdog watchdog;

  // Each seed is a self-contained (dataset, framework, protocol) run.
  auto run_seed = [&spec, &watchdog](int s) -> Result<RunResult> {
    // Each seed records on its own trace track, so parallel seeds land on
    // separate deterministic lanes regardless of thread scheduling.
    TraceTrackScope track(s);
    TraceSpan seed_span("experiment.seed");
    seed_span.AddArg("seed_ordinal", s);
    auto source =
        std::make_shared<CancellationSource>(spec.policy.limits.cancel);
    RunLimits limits;
    limits.deadline = spec.policy.limits.deadline;
    limits.cancel = source->token();
    if (spec.policy.seed_deadline_seconds > 0.0) {
      limits = limits.Tightened(spec.policy.seed_deadline_seconds);
      watchdog.Watch(limits.deadline, source);
    }
    const uint64_t seed = spec.base_seed + 1000003ULL * s;
    Result<DataSplit> made = [&]() {
      TraceSpan data_span("dataset.make");
      return MakeZooDataset(spec.dataset, spec.data_scale, seed);
    }();
    RETURN_IF_ERROR(made.status());
    DataSplit split = std::move(*made);
    RETURN_IF_ERROR(limits.Check("experiment.seed"));
    FrameworkContext context = FrameworkContext::Build(split);
    ActiveDpOptions adp = spec.adp;
    adp.seed = seed ^ 0x9e37;
    adp.user.seed = seed ^ 0x1234;
    adp.policy.retry = spec.policy.retry;
    adp.policy.limits = limits;
    std::unique_ptr<InteractiveFramework> framework =
        MakeFramework(spec.framework, context, adp);
    ProtocolOptions protocol = spec.protocol;
    protocol.policy.limits = limits;
    protocol.policy.retry = spec.policy.retry;
    if (!spec.policy.checkpoint_path.empty()) {
      protocol.policy.checkpoint_path =
          spec.policy.checkpoint_path + "/" + spec.dataset + "-" +
          ToLower(FrameworkDisplayName(spec.framework)) + "-seed" +
          std::to_string(s) + ".ckpt";
    }
    return RunProtocol(*framework, context, protocol);
  };

  std::vector<Result<RunResult>> runs(spec.num_seeds,
                                      Status::Internal("seed not run"));
  ForEachSeed(spec.num_seeds, spec.num_threads,
              [&](int s) { runs[s] = run_seed(s); });

  if (tracing) {
    const RunTrace trace = Tracer::Global().Collect();
    Tracer::Global().Disable();
    const std::string stem =
        spec.dataset + "-" + ToLower(FrameworkDisplayName(spec.framework));
    const Status written = WriteRunTrace(trace, spec.policy.trace_dir, stem);
    if (!written.ok()) {
      LOG(Warning) << "trace export failed: " << written.ToString();
    } else {
      LOG(Info) << "trace written to " << spec.policy.trace_dir << "/" << stem
                << ".trace.{jsonl,chrome.json,summary.json}";
    }
  }

  // A seed is excluded when it failed outright or when its budget tripped
  // mid-run (partial curves would bias the point-wise averages).
  RunResult accumulated;
  int used = 0;
  Status first_failure = Status::Ok();
  for (int s = 0; s < spec.num_seeds; ++s) {
    const Status why = runs[s].ok() ? runs[s]->termination : runs[s].status();
    if (!why.ok()) {
      accumulated.excluded_seeds.push_back("seed " + std::to_string(s) +
                                           ": " + why.ToString());
      if (first_failure.ok()) first_failure = why;
      LOG(Warning) << spec.dataset << "/"
                   << FrameworkDisplayName(spec.framework)
                   << " excluding seed " << s << ": " << why.ToString();
      continue;
    }
    const RunResult& run = *runs[s];
    if (used == 0) {
      const std::vector<std::string> excluded =
          std::move(accumulated.excluded_seeds);
      accumulated = run;
      accumulated.excluded_seeds = std::move(excluded);
    } else {
      // Point-wise averaging; a run that stopped early keeps its last value.
      const size_t k =
          std::min(accumulated.budgets.size(), run.budgets.size());
      accumulated.budgets.resize(k);
      accumulated.test_accuracy.resize(k);
      accumulated.label_accuracy.resize(k);
      accumulated.label_coverage.resize(k);
      for (size_t i = 0; i < k; ++i) {
        accumulated.test_accuracy[i] += run.test_accuracy[i];
        accumulated.label_accuracy[i] += run.label_accuracy[i];
        accumulated.label_coverage[i] += run.label_coverage[i];
      }
    }
    ++used;
  }
  if (used == 0) {
    return Status(first_failure.code(),
                  "no seed completed (" + std::to_string(spec.num_seeds) +
                      " excluded); first failure: " + first_failure.message());
  }
  const double inv = 1.0 / used;
  for (auto& v : accumulated.test_accuracy) v *= inv;
  for (auto& v : accumulated.label_accuracy) v *= inv;
  for (auto& v : accumulated.label_coverage) v *= inv;
  accumulated.average_test_accuracy = CurveAverage(accumulated.test_accuracy);
  accumulated.seeds_averaged = used;
  accumulated.termination = Status::Ok();
  return accumulated;
}

}  // namespace activedp
