// Continuous-learning benchmark: the LearnGuard loop end to end, with no
// faults — live client traffic against the PredictionService while drifting
// user feedback (LF votes first, exact labels a wave later) streams through
// the durable event log and the guarded retrainer publishes candidates
// through the staged-rollout gate. Asserts the steady-state contract:
//
//   1. at least --min-publishes retrains are published, each strictly
//      improving holdout accuracy over the snapshot it replaced (the
//      validation gate enforces it; this harness re-checks the reports);
//   2. zero failed client requests across every hot swap — continuous
//      learning causes no served downtime;
//   3. zero served-digest divergence: after the waves, served responses are
//      bitwise identical to the offline predictions of the registry's
//      active snapshot reloaded from its registered path;
//   4. the background Start()/Stop() loop runs cycles on its own thread
//      under the same traffic without incident.
//
// Accounting lands in BENCH_online.json. Registered as a ctest with LABELS
// online; also a standalone binary:
//   ./build/bench/continuous_bench --waves=8 --steps=4 --clients=2

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "online/event_log.h"
#include "online/learn_scenario.h"
#include "online/retrainer.h"
#include "serve/prediction_service.h"
#include "serve/serve_client.h"
#include "serve/snapshot_io.h"
#include "serve/snapshot_registry.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace activedp {
namespace {

struct WaveRow {
  int wave = 0;
  std::string outcome;
  int events_seen = 0;
  int training_rows = 0;
  double candidate_accuracy = 0.0;
  double active_accuracy = 0.0;
};

void WriteReport(const std::string& path, const std::vector<WaveRow>& rows,
                 int published, double base_accuracy, double final_accuracy,
                 int64_t client_requests, int64_t client_failures,
                 int digest_mismatches, int background_cycles, int failures,
                 double total_seconds) {
  std::string out;
  out += "{\n";
  out += "  \"benchmark\": \"continuous_bench\",\n";
  out += "  \"failures\": " + std::to_string(failures) + ",\n";
  out += "  \"published\": " + std::to_string(published) + ",\n";
  out += "  \"base_accuracy\": " + std::to_string(base_accuracy) + ",\n";
  out += "  \"final_accuracy\": " + std::to_string(final_accuracy) + ",\n";
  out += "  \"client_requests\": " + std::to_string(client_requests) + ",\n";
  out += "  \"client_failures\": " + std::to_string(client_failures) + ",\n";
  out +=
      "  \"digest_mismatches\": " + std::to_string(digest_mismatches) + ",\n";
  out += "  \"background_cycles\": " + std::to_string(background_cycles) +
         ",\n";
  out += "  \"feedback_events\": " +
         std::to_string(
             MetricsRegistry::Global().counter_value("serve.feedback")) +
         ",\n";
  out += "  \"retrain_cycles\": " +
         std::to_string(
             MetricsRegistry::Global().counter_value("retrain.cycles")) +
         ",\n";
  out += "  \"total_seconds\": " + std::to_string(total_seconds) + ",\n";
  out += "  \"waves\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const WaveRow& row = rows[i];
    out += "    {\"wave\": " + std::to_string(row.wave) + ", \"outcome\": \"" +
           row.outcome +
           "\", \"events_seen\": " + std::to_string(row.events_seen) +
           ", \"training_rows\": " + std::to_string(row.training_rows) +
           ", \"candidate_accuracy\": " +
           std::to_string(row.candidate_accuracy) +
           ", \"active_accuracy\": " + std::to_string(row.active_accuracy) +
           "}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  const Status written = AtomicWriteFile(path, out);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.ToString().c_str());
  }
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("dataset", "youtube", "zoo dataset behind the corpus");
  flags.AddFlag("scale", "0.1", "fraction of paper dataset sizes");
  flags.AddFlag("seed", "7", "fixture + retrain seed");
  flags.AddFlag("steps", "4", "protocol steps behind the deliberately weak "
                              "base snapshot");
  flags.AddFlag("trace", "64", "live-traffic window length");
  flags.AddFlag("waves", "8", "maximum feedback waves (one retrain cycle "
                              "each)");
  flags.AddFlag("min-publishes", "3", "published retrains required to pass");
  flags.AddFlag("clients", "2", "live-traffic client threads");
  flags.AddFlag("out", "BENCH_online.json", "JSON report path");
  flags.AddFlag("trace-dir", "bench-archive",
                "directory the BENCH_online.trace.* exports land in");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const std::string tmpdir =
      (std::filesystem::temp_directory_path() / "activedp-continuous-bench")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(tmpdir, ec);
  std::filesystem::create_directories(tmpdir);

  MetricsRegistry::Global().ResetAll();
  Tracer::Global().Enable();
  Timer total;
  int failures = 0;

  const Result<LearnChaosFixture> fixture = BuildLearnChaosFixture(
      tmpdir, flags.GetString("dataset"), flags.GetDouble("scale"), seed,
      flags.GetInt("steps"), flags.GetInt("trace"));
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture build failed: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }

  // --- Durable log + registry + service serving the weak base.
  const Result<std::unique_ptr<EventLog>> log =
      EventLog::Open(tmpdir + "/log", EventLogOptions{});
  Result<SnapshotRegistry> opened =
      SnapshotRegistry::Open(tmpdir + "/registry.manifest");
  if (!log.ok() || !opened.ok()) {
    std::fprintf(stderr, "log/registry setup failed\n");
    return 1;
  }
  SnapshotRegistry registry = std::move(*opened);
  const Result<int64_t> base_id =
      registry.Register(fixture->snapshot_path, -1, "continuous-base");
  if (!base_id.ok() || !registry.Activate(*base_id).ok()) {
    std::fprintf(stderr, "registry setup failed\n");
    return 1;
  }

  PredictionServiceOptions service_options;
  service_options.max_batch_size = 16;
  PredictionService service(service_options);
  service.LoadSnapshot(fixture->snapshot);
  service.AttachEventLog(log->get());

  const Result<double> base_accuracy = Retrainer::HoldoutAccuracy(
      *fixture->snapshot, fixture->holdout, fixture->holdout_labels);
  if (!base_accuracy.ok()) {
    std::fprintf(stderr, "base holdout scoring failed\n");
    return 1;
  }

  RetrainerOptions retrain_options;
  retrain_options.min_training_rows = 8;
  retrain_options.lr.epochs = 40;
  retrain_options.lr.seed = seed ^ 99;
  retrain_options.min_accuracy_gain = 0.0;  // strictly-better gate
  retrain_options.retry.seed = seed;
  retrain_options.rollout.canary_fraction = 0.3;
  retrain_options.rollout.window =
      std::min<int>(64, static_cast<int>(fixture->trace.size()));
  retrain_options.rollout.min_canary_samples = 4;
  retrain_options.rollout.seed = 0x1ea4;
  retrain_options.snapshot_dir = tmpdir + "/candidates";
  retrain_options.poll_interval_seconds = 0.02;

  Retrainer::Config config;
  config.log = log->get();
  config.registry = &registry;
  config.service = &service;
  config.features = &fixture->features;
  config.holdout = &fixture->holdout;
  config.holdout_labels = &fixture->holdout_labels;
  config.rollout_trace = &fixture->trace;
  Retrainer retrainer(config, retrain_options);

  // --- Live traffic for the whole run: client threads hammer the service
  // through PredictWithRetry. Every request must succeed — hot swaps cause
  // zero downtime, and sheds are absorbed by the retry-after hint.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> client_requests{0};
  std::atomic<int64_t> client_failures{0};
  RetryPolicy client_policy;
  client_policy.max_attempts = 6;
  client_policy.sleep = true;
  const int num_clients = std::max(1, flags.GetInt("clients"));
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      size_t i = static_cast<size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        const Example& example =
            fixture->trace[i++ % fixture->trace.size()];
        const ServeReply served =
            PredictWithRetry(service, {.example = example}, client_policy);
        client_requests.fetch_add(1, std::memory_order_relaxed);
        if (!served.ok()) {
          client_failures.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // --- Drifting feedback: wave w delivers exact ground-truth labels for
  // chunk w and weak LF votes for chunk w+1 (the region users will confirm
  // next wave — exact labels override the votes when they arrive).
  const int corpus = static_cast<int>(fixture->features.size());
  const int max_waves = std::max(1, flags.GetInt("waves"));
  const int chunk = std::max(16, corpus / (max_waves + 1));
  std::vector<WaveRow> rows;
  int published = 0;
  for (int w = 0; w < max_waves; ++w) {
    const int exact_begin = w * chunk;
    const int exact_end = std::min(corpus, exact_begin + chunk);
    const int vote_end = std::min(corpus, exact_end + chunk);
    if (exact_begin >= corpus) break;
    for (int i = exact_begin; i < exact_end; ++i) {
      FeedbackEvent event;
      event.type = FeedbackType::kExactLabel;
      event.row = i;
      event.label = fixture->corpus_labels[i];
      if (!service.RecordFeedback(event).ok()) ++failures;
    }
    for (int i = exact_end; i < vote_end; ++i) {
      FeedbackEvent event;
      event.type = FeedbackType::kLfVote;
      event.row = i;
      event.label = fixture->corpus_labels[i];
      event.lf_id = i % 5;
      if (!service.RecordFeedback(event).ok()) ++failures;
    }

    const Result<RetrainReport> cycle = retrainer.RunOnce();
    if (!cycle.ok()) {
      std::fprintf(stderr, "wave %d cycle failed: %s\n", w,
                   cycle.status().ToString().c_str());
      ++failures;
      break;
    }
    WaveRow row;
    row.wave = w;
    row.outcome = std::string(RetrainOutcomeToString(cycle->outcome));
    row.events_seen = cycle->events_seen;
    row.training_rows = cycle->training_rows;
    row.candidate_accuracy = cycle->candidate_accuracy;
    row.active_accuracy = cycle->active_accuracy;
    rows.push_back(row);
    std::printf("wave %d: %-11s events=%-5d rows=%-5d active=%.4f "
                "candidate=%.4f\n",
                w, row.outcome.c_str(), row.events_seen, row.training_rows,
                row.active_accuracy, row.candidate_accuracy);
    if (cycle->outcome == RetrainOutcome::kPublished) {
      ++published;
      // The strictly-better contract, re-checked from the report rather
      // than trusted from the gate.
      if (cycle->candidate_accuracy <= cycle->active_accuracy) {
        std::fprintf(stderr,
                     "FAIL: published wave %d did not improve accuracy\n", w);
        ++failures;
      }
    } else if (cycle->outcome != RetrainOutcome::kRejected &&
               cycle->outcome != RetrainOutcome::kNoData) {
      std::fprintf(stderr, "FAIL: fault-free wave %d ended %s (%s)\n", w,
                   row.outcome.c_str(), cycle->detail.c_str());
      ++failures;
    }
  }

  if (published < flags.GetInt("min-publishes")) {
    std::fprintf(stderr, "FAIL: only %d retrains published (need %d)\n",
                 published, flags.GetInt("min-publishes"));
    ++failures;
  }

  // --- Background loop under the same traffic: Start() must run cycles on
  // its own thread (they are kNoData — the waves are consumed) without
  // disturbing anything.
  const int cycles_before = retrainer.stats().cycles;
  retrainer.Start();
  Timer bg;
  while (retrainer.stats().cycles < cycles_before + 3 &&
         bg.ElapsedSeconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  retrainer.Stop();
  const int background_cycles = retrainer.stats().cycles - cycles_before;
  if (background_cycles <= 0) {
    std::fprintf(stderr, "FAIL: background loop never ran a cycle\n");
    ++failures;
  }

  stop.store(true);
  for (std::thread& t : clients) t.join();
  if (client_failures.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld of %lld client requests failed during "
                 "continuous learning\n",
                 static_cast<long long>(client_failures.load()),
                 static_cast<long long>(client_requests.load()));
    ++failures;
  }

  // --- Zero divergence: served responses must match the offline
  // predictions of the registry's active snapshot, reloaded from disk.
  int digest_mismatches = 0;
  double final_accuracy = *base_accuracy;
  const std::optional<int64_t> active = registry.active_id();
  if (!active.has_value()) {
    std::fprintf(stderr, "FAIL: no active snapshot after the waves\n");
    ++failures;
  } else {
    const Result<SnapshotRecord> record = registry.Get(*active);
    const Result<ModelSnapshot> offline =
        record.ok() ? LoadSnapshot(record->path)
                    : Result<ModelSnapshot>(record.status());
    if (!offline.ok()) {
      std::fprintf(stderr, "FAIL: active snapshot unloadable: %s\n",
                   offline.status().ToString().c_str());
      ++failures;
    } else {
      for (const Example& example : fixture->trace) {
        const ServeReply served = service.Predict({.example = example});
        const Result<ServedPrediction> expected = offline->Predict(example);
        if (!served.ok() || !expected.ok() ||
            PredictionDigest(served.prediction) !=
                PredictionDigest(*expected)) {
          ++digest_mismatches;
        }
      }
      if (digest_mismatches > 0) {
        std::fprintf(stderr, "FAIL: %d served digests diverged\n",
                     digest_mismatches);
        ++failures;
      }
      const Result<double> final_score = Retrainer::HoldoutAccuracy(
          *offline, fixture->holdout, fixture->holdout_labels);
      if (final_score.ok()) final_accuracy = *final_score;
      if (published > 0 && final_accuracy <= *base_accuracy) {
        std::fprintf(stderr,
                     "FAIL: final accuracy %.4f did not beat base %.4f\n",
                     final_accuracy, *base_accuracy);
        ++failures;
      }
    }
  }

  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();
  const Status trace_written =
      WriteRunTrace(trace, flags.GetString("trace-dir"), "BENCH_online");
  if (!trace_written.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n",
                 trace_written.ToString().c_str());
  }
  WriteReport(flags.GetString("out"), rows, published, *base_accuracy,
              final_accuracy, client_requests.load(), client_failures.load(),
              digest_mismatches, background_cycles, failures,
              total.ElapsedSeconds());

  std::printf("\n%d waves, %d published, accuracy %.4f -> %.4f, "
              "%lld requests (%lld failed), %d failures, %.1fs\n",
              static_cast<int>(rows.size()), published, *base_accuracy,
              final_accuracy, static_cast<long long>(client_requests.load()),
              static_cast<long long>(client_failures.load()), failures,
              total.ElapsedSeconds());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace activedp

int main(int argc, char** argv) { return activedp::Main(argc, argv); }
