#ifndef ACTIVEDP_OBS_FLIGHT_RECORDER_H_
#define ACTIVEDP_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/trace.h"

namespace activedp {

/// FlightRecorder: the always-on half of the OpsPlane (DESIGN.md §14).
///
/// The full tracer (util/trace.h) is bracketed around whole runs and costs
/// an unbounded buffer, so production serving keeps it off. The flight
/// recorder instead keeps a *bounded* per-thread ring of the most recent
/// spans and instants — fed through the TraceSink hook, so every existing
/// TraceSpan / TraceInstant call site reports into it with no code changes
/// and regardless of whether the tracer is enabled. When something goes
/// wrong, TriggerIncident(reason) freezes the last N seconds of timeline
/// plus a coherent metrics snapshot and registered context (registry
/// lineage, scenario tags) into a checksummed incident directory.
///
/// Memory bound: ring_capacity slots per recording thread, each slot a
/// fixed ~200-byte struct (strings truncate to the slot's char budget), so
/// a service with T threads holds T × ring_capacity × ~200 bytes — ~400 KiB
/// per thread at the default 2048 slots, never more, never allocating on
/// the record path after ring registration.
///
/// Write path: per-slot seqlock. Each ring has exactly one writer (its
/// owning thread), so a record is: bump the slot's sequence to odd, store
/// the payload through relaxed atomics, bump to even. Readers
/// (TriggerIncident, Snapshot) copy slots optimistically and discard any
/// slot whose sequence changed or was odd — lock-free for writers, no
/// torn text, race-free under TSan (every payload byte is an atomic).
///
/// Incident dumps are atomic: files are written into a hidden temp
/// directory and renamed into place, each file carries a "#crc64" footer,
/// and MANIFEST.json records every file's content checksum — so a
/// half-written dump is never observable and VerifyIncidentDump can prove
/// a dump intact after the fact (corruption_fuzz mutates these files and
/// asserts detection).
struct FlightRecorderOptions {
  /// Slots per recording thread; the bound on recorder memory.
  int ring_capacity = 2048;
  /// TriggerIncident keeps records no older than this.
  double window_seconds = 30.0;
  /// Directory incident dumps land in (one subdirectory per incident).
  std::string incident_dir = "incidents";
  /// Repeated triggers for the same reason within this window are
  /// suppressed (counted in obs.incidents.suppressed) — a breaker flapping
  /// ten times yields one dump, not ten. Enable() resets the cooldowns.
  double reason_cooldown_seconds = 300.0;
};

/// One decoded ring record (reader-side copy of a slot).
struct FlightRecord {
  int64_t ts_us = 0;  // steady-clock micros (process epoch)
  bool is_span = false;
  std::string category;  // instants only; spans use "span"
  std::string name;      // stage name or instant name
  std::string detail;    // instants only (truncated to the slot budget)
  int64_t dur_us = -1;   // spans only
};

/// Parsed MANIFEST.json of one incident dump.
struct IncidentManifest {
  std::string reason;
  int64_t id = 0;
  int64_t dumped_at_us = 0;
  int64_t num_records = 0;
  /// file name -> FNV-1a content checksum (of the content sans footer).
  std::vector<std::pair<std::string, std::string>> files;
};

class FlightRecorder : public TraceSink {
 public:
  static FlightRecorder& Global();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Arms the recorder and installs it as the process TraceSink. Resets
  /// per-reason cooldowns and clears context providers (a new scenario
  /// starts clean); existing rings are reused when the capacity is
  /// unchanged, and stale entries age out of the dump window on their own.
  void Enable(FlightRecorderOptions options = {});
  /// Disarms and uninstalls the TraceSink. Rings are kept (registration is
  /// per-thread and cheap to reuse).
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  FlightRecorderOptions options() const;

  // TraceSink — called from util/trace for every instant and span end.
  void OnInstant(std::string_view category, std::string_view name,
                 std::string_view detail) override;
  void OnSpanEnd(std::string_view stage, int64_t start_us,
                 int64_t dur_us) override;

  /// Registers a named provider whose return value (a JSON value) is
  /// embedded in every dump's context.json — registry/snapshot lineage,
  /// scenario tags. Providers are borrowed: the caller must keep captured
  /// state alive while the recorder is enabled (Enable() clears them).
  void AddContextProvider(const std::string& name,
                          std::function<std::string()> provider);
  void ClearContextProviders();

  /// Coherent copy of every ring entry inside the dump window, oldest
  /// first. This is exactly the timeline TriggerIncident dumps.
  std::vector<FlightRecord> CollectRecent() const;

  /// Freezes the recent timeline + metrics + context into a new checksummed
  /// incident directory and returns its path. FailedPrecondition when the
  /// recorder is disabled; Unavailable when the reason is cooling down
  /// (the dump is suppressed, not queued). Never called with locks held by
  /// trigger sites — this does file IO.
  Result<std::string> TriggerIncident(std::string_view reason);

  /// Incident directories dumped since process start (monotonic).
  int64_t incidents_dumped() const;

  /// One per-thread seqlock ring (opaque; defined in the .cc).
  struct Ring;

 private:
  Ring* ThreadRing();
  void Record(uint8_t kind, std::string_view category, std::string_view name,
              std::string_view detail, int64_t ts_us, int64_t dur_us);

  std::atomic<bool> enabled_{false};
  std::atomic<int> ring_capacity_{2048};
  std::atomic<int64_t> window_us_{30'000'000};
  std::atomic<int64_t> cooldown_us_{300'000'000};
  std::atomic<int64_t> incidents_dumped_{0};

  mutable std::mutex mutex_;
  std::string incident_dir_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::map<std::string, int64_t> last_incident_us_;  // per reason
  int64_t incident_seq_ = 0;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      context_providers_;
};

/// Structural + checksum verification of one incident dump directory:
/// MANIFEST.json parses and its footer verifies, every listed file exists,
/// verifies its own footer, and matches the manifest's recorded checksum,
/// and the dump contains at least the timeline and metrics files. This is
/// what the bench gates and corruption_fuzz assert with.
Status VerifyIncidentDump(const std::string& dir);

/// Reads and parses MANIFEST.json (verifying its checksum footer).
Result<IncidentManifest> ReadIncidentManifest(const std::string& dir);

/// The incident dump directories under `incident_root` (completed dumps
/// only — in-progress temp directories are excluded), sorted by name.
std::vector<std::string> ListIncidentDumps(const std::string& incident_root);

/// How CheckIncidentDumps judges the dumps one chaos-matrix cell left.
enum class IncidentPolicy {
  /// The cell must not dump at all.
  kNone,
  /// Exactly one dump, carrying the expected reason.
  kExactlyOne,
  /// Any number of dumps, of any reason.
  kAny,
};

/// What CheckIncidentDumps found under one incident directory.
struct IncidentCheck {
  int dumps = 0;
  /// Dumps that verified and whose timeline holds their trigger, by reason.
  std::map<std::string, int> verified;
  /// One line per violation; empty when the dumps meet the policy.
  std::vector<std::string> failures;
};

/// Checks the dumps under `incident_dir` against `policy`. Whatever the
/// policy, every dump must pass VerifyIncidentDump and its timeline must
/// contain the instant that explains its reason (the trigger sites emit it
/// before triggering), so a dump is never merely implied.
IncidentCheck CheckIncidentDumps(const std::string& incident_dir,
                                 IncidentPolicy policy,
                                 std::string_view expected_reason = {});

/// Steady-clock microseconds since process start — the recorder's (and SLO
/// engine's) time base.
int64_t ObsNowMicros();

}  // namespace activedp

#endif  // ACTIVEDP_OBS_FLIGHT_RECORDER_H_
