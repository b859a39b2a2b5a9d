#ifndef ACTIVEDP_CORE_EXPERIMENT_H_
#define ACTIVEDP_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/activedp.h"
#include "core/baselines.h"
#include "core/end_model.h"
#include "core/framework.h"
#include "core/run_policy.h"
#include "util/deadline.h"
#include "util/result.h"
#include "util/retry.h"

namespace activedp {

/// kActiveWeasul is an extension beyond the paper's Figure-3 line-up,
/// completing its Table 1 (see core/baselines.h).
enum class FrameworkType { kActiveDp, kNemo, kIws, kRlf, kUs, kActiveWeasul };

std::string FrameworkDisplayName(FrameworkType type);

/// Parses a framework name ("activedp" / "nemo" / "iws" / "rlf" /
/// "revisinglf" / "us" / "uncertainty" / "aw" / "active-weasul" /
/// "activeweasul", case-insensitive). An unrecognized name is an
/// InvalidArgument error listing the accepted spellings — there is no
/// silent default, so a typoed `--framework` flag fails loudly instead of
/// quietly benchmarking ActiveDP.
Result<FrameworkType> ParseFrameworkType(const std::string& name);

/// Instantiates a framework over the shared context. ActiveDP consumes
/// `adp_options`; baselines consume the shared fields mirrored into
/// BaselineOptions (user simulation, label model, AL hyper-parameters).
std::unique_ptr<InteractiveFramework> MakeFramework(
    FrameworkType type, const FrameworkContext& context,
    const ActiveDpOptions& adp_options);

/// The paper's evaluation protocol (§4.1.3): run `iterations` interactions,
/// every `eval_every` iterations train the downstream model on the
/// framework's current labels and record test accuracy.
struct ProtocolOptions {
  int iterations = 100;  // paper: 300
  int eval_every = 10;
  EndModelOptions end_model;
  /// Shared robustness/observability policy (see core/run_policy.h).
  /// RunProtocol consumes `policy.checkpoint_path` (a checkpoint *file*:
  /// persisted after every evaluation, resumed from on start, corrupt or
  /// truncated files logged and ignored), `policy.limits` (checked before
  /// every iteration; callers who also want solver-level enforcement
  /// propagate the same limits into the framework via
  /// ActiveDpOptions.policy), `policy.retry` (the "checkpoint.save" fault
  /// site) and the `policy.retry_log` / `policy.recovery` sinks.
  RunPolicy policy;
};

struct RunResult {
  std::vector<int> budgets;           // queries consumed at each checkpoint
  std::vector<double> test_accuracy;  // downstream test accuracy
  std::vector<double> label_accuracy; // generated-label accuracy (diagnostic)
  std::vector<double> label_coverage; // generated-label coverage (diagnostic)
  /// Mean of test_accuracy — the paper's summary metric (area under the
  /// performance curve).
  double average_test_accuracy = 0.0;
  /// OK when the protocol ran to its natural end; DeadlineExceeded /
  /// Cancelled when the run's budget tripped mid-protocol (the curves then
  /// hold the evaluations completed before the trip). Not persisted in
  /// checkpoints — a resumed run re-derives its own termination.
  Status termination = Status::Ok();
  /// Aggregated results only (RunExperiment): seeds excluded from the
  /// averaged curves, as "seed <k>: <why>" lines. Empty when every seed
  /// contributed.
  std::vector<std::string> excluded_seeds;
  /// Aggregated results only: how many seeds the curves average over.
  int seeds_averaged = 0;
};

RunResult RunProtocol(InteractiveFramework& framework,
                      const FrameworkContext& context,
                      const ProtocolOptions& options);

/// Full experiment spec for one (dataset, framework) cell averaged over
/// seeds, regenerating the dataset per seed as the paper does.
struct ExperimentSpec {
  std::string dataset;
  FrameworkType framework = FrameworkType::kActiveDp;
  ActiveDpOptions adp;
  ProtocolOptions protocol;
  double data_scale = 0.1;  // fraction of paper's Table 2 sizes
  int num_seeds = 2;        // paper: 5
  uint64_t base_seed = 1;
  /// Seeds are independent; > 1 runs them on up to this many threads (see
  /// ForEachSeed). Results are identical to the serial run (every seed is
  /// self-contained and deterministic). The stages inside a seed run inline
  /// on its thread.
  int num_threads = 1;
  /// Shared robustness/observability policy (see core/run_policy.h). At
  /// this level `policy.checkpoint_path` is a *directory*: each seed
  /// checkpoints its run to `<dir>/<dataset>-<framework>-seed<k>.ckpt` so a
  /// killed experiment resumes at the last evaluated budget per seed.
  /// `policy.limits` is the experiment-wide budget and cancellation (each
  /// seed derives its own token from `limits.cancel`, so cancelling the
  /// experiment cancels every in-flight seed), tightened per seed by
  /// `policy.seed_deadline_seconds` under a watchdog. `policy.retry` is
  /// shared by every seed's pipeline, and `policy.trace_dir` arms the
  /// global tracer for the whole experiment (each seed records on its own
  /// track, so the files are identical between same-seed runs modulo
  /// timestamp fields; an empty trace_dir leaves any tracer the caller
  /// armed beforehand untouched).
  RunPolicy policy;
};

/// Runs the spec for each seed and returns the point-wise averaged curves.
/// Seed isolation: a seed that fails outright, is cancelled, or overruns
/// its deadline is recorded in `excluded_seeds` and left out of the
/// averages instead of failing the experiment; only when no seed completes
/// does RunExperiment return the first failure.
Result<RunResult> RunExperiment(const ExperimentSpec& spec);

/// Runs body(s) for every seed s in [0, num_seeds): in order on the calling
/// thread when num_threads <= 1, otherwise on min(num_threads, num_seeds)
/// threads that claim seeds from a shared counter. The first exception a
/// body throws stops further claims and is rethrown here once every thread
/// has joined; seeds already running finish.
void ForEachSeed(int num_seeds, int num_threads,
                 const std::function<void(int)>& body);

}  // namespace activedp

#endif  // ACTIVEDP_CORE_EXPERIMENT_H_
