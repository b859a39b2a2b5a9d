#include "obs/flight_recorder.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "util/atomic_file.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace activedp {
namespace {

// Per-slot string budgets. Longer text truncates — the recorder trades
// fidelity of rare long details for a hard memory bound.
constexpr int kCategoryBytes = 24;
constexpr int kNameBytes = 48;
constexpr int kDetailBytes = 120;

constexpr uint8_t kKindSpan = 0;
constexpr uint8_t kKindInstant = 1;

/// Reason sanitized for a directory name: [a-z0-9._-], rest become '_'.
std::string SanitizeReason(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("unknown") : out;
}

void StoreText(std::atomic<char>* dest, int capacity,
               std::atomic<uint8_t>& len, std::string_view text) {
  const int n = std::min<int>(capacity, static_cast<int>(text.size()));
  for (int i = 0; i < n; ++i) {
    dest[i].store(text[static_cast<size_t>(i)], std::memory_order_relaxed);
  }
  len.store(static_cast<uint8_t>(n), std::memory_order_relaxed);
}

std::string LoadText(const std::atomic<char>* src, int capacity,
                     const std::atomic<uint8_t>& len) {
  const int n =
      std::min<int>(capacity, len.load(std::memory_order_relaxed));
  std::string out(static_cast<size_t>(n), '\0');
  for (int i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] = src[i].load(std::memory_order_relaxed);
  }
  return out;
}

// --- tiny scanners for MANIFEST.json (written by us, strict format) ------

/// Extracts the JSON string value following `"key": "` in `text`.
/// Handles the escapes JsonEscape emits (\\, \", \n, \t, \r, \uXXXX left
/// verbatim). Returns false when the key is absent.
bool ScanStringField(const std::string& text, const std::string& key,
                     size_t from, std::string* value) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = text.find(needle, from);
  if (at == std::string::npos) return false;
  std::string out;
  for (size_t i = at + needle.size(); i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      *value = std::move(out);
      return true;
    }
    if (c == '\\' && i + 1 < text.size()) {
      const char e = text[++i];
      if (e == 'n') {
        out += '\n';
      } else if (e == 't') {
        out += '\t';
      } else if (e == 'r') {
        out += '\r';
      } else {
        out += e;  // \" \\ \/ — and anything else verbatim
      }
      continue;
    }
    out += c;
  }
  return false;  // unterminated string — truncated manifest
}

bool ScanIntField(const std::string& text, const std::string& key,
                  int64_t* value) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  long long parsed = 0;
  size_t end = at + needle.size();
  while (end < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[end])) ||
          text[end] == '-')) {
    ++end;
  }
  if (!ParseInt64(text.substr(at + needle.size(), end - at - needle.size()),
                  &parsed)) {
    return false;
  }
  *value = parsed;
  return true;
}

}  // namespace

int64_t ObsNowMicros() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// One slot of a per-thread ring. Every payload field is an atomic so the
/// optimistic reader never races the writer at the language level; the
/// `seq` seqlock (odd = write in progress) is what makes a copied slot
/// coherent.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<int64_t> ts_us{0};
  std::atomic<int64_t> dur_us{-1};
  std::atomic<uint8_t> kind{kKindSpan};
  std::atomic<uint8_t> category_len{0};
  std::atomic<uint8_t> name_len{0};
  std::atomic<uint8_t> detail_len{0};
  std::atomic<char> category[kCategoryBytes] = {};
  std::atomic<char> name[kNameBytes] = {};
  std::atomic<char> detail[kDetailBytes] = {};
};

struct FlightRecorder::Ring {
  explicit Ring(int capacity)
      : capacity(std::max(1, capacity)),
        slots(new Slot[static_cast<size_t>(std::max(1, capacity))]) {}
  const int capacity;
  std::atomic<uint64_t> head{0};  // next write position (monotonic)
  std::unique_ptr<Slot[]> slots;
};

namespace {
/// The calling thread's ring, cached after first registration. Never
/// freed (rings live for the process lifetime, like tracer buffers).
thread_local FlightRecorder::Ring* g_flight_ring = nullptr;
}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Enable(FlightRecorderOptions options) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    incident_dir_ = options.incident_dir;
    last_incident_us_.clear();
    context_providers_.clear();
  }
  ring_capacity_.store(std::max(1, options.ring_capacity),
                       std::memory_order_relaxed);
  window_us_.store(
      static_cast<int64_t>(std::max(0.001, options.window_seconds) * 1e6),
      std::memory_order_relaxed);
  cooldown_us_.store(
      static_cast<int64_t>(std::max(0.0, options.reason_cooldown_seconds) *
                           1e6),
      std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
  SetTraceSink(this);
}

void FlightRecorder::Disable() {
  SetTraceSink(nullptr);
  enabled_.store(false, std::memory_order_release);
}

FlightRecorderOptions FlightRecorder::options() const {
  FlightRecorderOptions options;
  options.ring_capacity = ring_capacity_.load(std::memory_order_relaxed);
  options.window_seconds =
      static_cast<double>(window_us_.load(std::memory_order_relaxed)) * 1e-6;
  options.reason_cooldown_seconds =
      static_cast<double>(cooldown_us_.load(std::memory_order_relaxed)) * 1e-6;
  std::lock_guard<std::mutex> lock(mutex_);
  options.incident_dir = incident_dir_;
  return options;
}

FlightRecorder::Ring* FlightRecorder::ThreadRing() {
  const int capacity = ring_capacity_.load(std::memory_order_relaxed);
  if (g_flight_ring != nullptr && g_flight_ring->capacity == capacity) {
    return g_flight_ring;
  }
  auto ring = std::make_unique<Ring>(capacity);
  g_flight_ring = ring.get();
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::move(ring));
  return g_flight_ring;
}

void FlightRecorder::Record(uint8_t kind, std::string_view category,
                            std::string_view name, std::string_view detail,
                            int64_t ts_us, int64_t dur_us) {
  Ring* ring = ThreadRing();
  const uint64_t pos = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[pos % static_cast<uint64_t>(ring->capacity)];
  // Seqlock write: odd while the payload is in flux. Single writer per
  // ring, so a plain +1/+1 protocol suffices.
  const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);
  slot.ts_us.store(ts_us, std::memory_order_relaxed);
  slot.dur_us.store(dur_us, std::memory_order_relaxed);
  slot.kind.store(kind, std::memory_order_relaxed);
  StoreText(slot.category, kCategoryBytes, slot.category_len, category);
  StoreText(slot.name, kNameBytes, slot.name_len, name);
  StoreText(slot.detail, kDetailBytes, slot.detail_len, detail);
  slot.seq.store(seq + 2, std::memory_order_release);
  ring->head.store(pos + 1, std::memory_order_release);
}

void FlightRecorder::OnInstant(std::string_view category,
                               std::string_view name,
                               std::string_view detail) {
  if (!enabled()) return;
  Record(kKindInstant, category, name, detail, ObsNowMicros(), -1);
}

void FlightRecorder::OnSpanEnd(std::string_view stage, int64_t /*start_us*/,
                               int64_t dur_us) {
  if (!enabled()) return;
  // The sink's start_us has no shared epoch; anchor the record on our own
  // clock so the dump window filter compares like with like.
  const int64_t now = ObsNowMicros();
  Record(kKindSpan, "span", stage, "",
         now - std::max<int64_t>(0, dur_us), dur_us);
}

void FlightRecorder::AddContextProvider(
    const std::string& name, std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  context_providers_.emplace_back(name, std::move(provider));
}

void FlightRecorder::ClearContextProviders() {
  std::lock_guard<std::mutex> lock(mutex_);
  context_providers_.clear();
}

std::vector<FlightRecord> FlightRecorder::CollectRecent() const {
  const int64_t cutoff =
      ObsNowMicros() - window_us_.load(std::memory_order_relaxed);
  std::vector<FlightRecord> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    for (int i = 0; i < ring->capacity; ++i) {
      const Slot& slot = ring->slots[i];
      // Optimistic seqlock read: retry a couple of times, then give the
      // slot up — losing one in-flux record to an active writer is fine.
      for (int attempt = 0; attempt < 3; ++attempt) {
        const uint64_t seq = slot.seq.load(std::memory_order_acquire);
        if (seq == 0 || (seq & 1) != 0) break;  // never written / in flux
        FlightRecord record;
        record.ts_us = slot.ts_us.load(std::memory_order_relaxed);
        record.dur_us = slot.dur_us.load(std::memory_order_relaxed);
        record.is_span =
            slot.kind.load(std::memory_order_relaxed) == kKindSpan;
        record.category =
            LoadText(slot.category, kCategoryBytes, slot.category_len);
        record.name = LoadText(slot.name, kNameBytes, slot.name_len);
        record.detail = LoadText(slot.detail, kDetailBytes, slot.detail_len);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
        if (record.ts_us >= cutoff) out.push_back(std::move(record));
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.name < b.name;
            });
  return out;
}

int64_t FlightRecorder::incidents_dumped() const {
  return incidents_dumped_.load(std::memory_order_relaxed);
}

Result<std::string> FlightRecorder::TriggerIncident(std::string_view reason) {
  if (!enabled()) {
    return Status::FailedPrecondition("flight recorder is disabled");
  }
  const int64_t now = ObsNowMicros();
  int64_t id = 0;
  std::string root;
  std::vector<std::pair<std::string, std::function<std::string()>>> providers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t& last = last_incident_us_[std::string(reason)];
    if (last != 0 &&
        now - last < cooldown_us_.load(std::memory_order_relaxed)) {
      MetricsRegistry::Global()
          .counter("obs.incidents.suppressed")
          .Increment();
      return Status::Unavailable("incident reason \"" + std::string(reason) +
                                 "\" is cooling down");
    }
    last = now;
    id = ++incident_seq_;
    root = incident_dir_;
    providers = context_providers_;
  }
  MetricsRegistry::Global().counter("obs.incidents.triggered").Increment();

  const std::vector<FlightRecord> records = CollectRecent();

  // --- render every file's content first (checksums go in the manifest) --
  std::ostringstream timeline;
  for (const FlightRecord& record : records) {
    timeline << "{\"ts_us\": " << record.ts_us << ", \"age_us\": "
             << (now - record.ts_us) << ", \"kind\": \""
             << (record.is_span ? "span" : "instant") << "\", \"category\": \""
             << JsonEscape(record.category) << "\", \"name\": \""
             << JsonEscape(record.name) << "\", \"detail\": \""
             << JsonEscape(record.detail) << "\", \"dur_us\": "
             << record.dur_us << "}\n";
  }
  const std::string metrics_json =
      MetricsRegistry::Global().Snapshot().ToJson() + "\n";
  const std::string metrics_prom = MetricsRegistry::Global().ToPrometheusText();
  std::ostringstream context;
  context << "{";
  for (size_t i = 0; i < providers.size(); ++i) {
    if (i > 0) context << ", ";
    context << "\"" << JsonEscape(providers[i].first)
            << "\": " << providers[i].second();
  }
  context << "}\n";

  std::vector<std::pair<std::string, std::string>> files = {
      {"timeline.jsonl", timeline.str()},
      {"metrics.json", metrics_json},
      {"metrics.prom", metrics_prom},
      {"context.json", context.str()},
  };

  std::ostringstream manifest;
  manifest << "{\"reason\": \"" << JsonEscape(reason) << "\", \"id\": " << id
           << ", \"dumped_at_us\": " << now << ", \"window_us\": "
           << window_us_.load(std::memory_order_relaxed)
           << ", \"num_records\": " << records.size() << ", \"files\": {";
  for (size_t i = 0; i < files.size(); ++i) {
    if (i > 0) manifest << ", ";
    manifest << "\"" << JsonEscape(files[i].first) << "\": \""
             << ContentChecksum(files[i].second) << "\"";
  }
  manifest << "}}\n";

  // --- atomic dump: hidden temp dir, then a single rename ---------------
  char tag[32];
  std::snprintf(tag, sizeof(tag), "%06lld", static_cast<long long>(id));
  const std::string final_dir = root + "/incident-" + tag + "-" +
                                SanitizeReason(reason);
  const std::string tmp_dir = root + "/.tmp-incident-" + tag;
  std::error_code ec;
  std::filesystem::remove_all(tmp_dir, ec);
  std::filesystem::create_directories(tmp_dir, ec);
  if (ec) {
    return Status::Internal("cannot create incident dir " + tmp_dir + ": " +
                            ec.message());
  }
  for (const auto& [name, content] : files) {
    RETURN_IF_ERROR(
        AtomicWriteFile(tmp_dir + "/" + name, WithChecksumFooter(content)));
  }
  RETURN_IF_ERROR(AtomicWriteFile(tmp_dir + "/MANIFEST.json",
                                  WithChecksumFooter(manifest.str())));
  std::filesystem::remove_all(final_dir, ec);
  std::filesystem::rename(tmp_dir, final_dir, ec);
  if (ec) {
    return Status::Internal("cannot publish incident dir " + final_dir +
                            ": " + ec.message());
  }
  incidents_dumped_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().counter("obs.incidents.dumped").Increment();
  TraceInstant("obs", "incident",
               std::string(reason) + " -> " + final_dir);
  return final_dir;
}

/// Reads a dump file, additionally *requiring* the checksum footer: every
/// file the recorder writes carries one, so a footer-less file inside a
/// dump is tampering (a plain ReadFileVerifyingChecksum would accept it as
/// a legacy artifact). The returned content has the footer stripped.
Result<std::string> ReadDumpFileStrict(const std::string& path) {
  ASSIGN_OR_RETURN(std::string content, ReadFileVerifyingChecksum(path));
  std::error_code ec;
  const auto raw_size = std::filesystem::file_size(path, ec);
  if (ec || raw_size <= content.size()) {
    return Status::InvalidArgument("incident file " + path +
                                   " has no checksum footer");
  }
  return content;
}

Result<IncidentManifest> ReadIncidentManifest(const std::string& dir) {
  ASSIGN_OR_RETURN(const std::string content,
                   ReadDumpFileStrict(dir + "/MANIFEST.json"));
  IncidentManifest manifest;
  if (!ScanStringField(content, "reason", 0, &manifest.reason)) {
    return Status::InvalidArgument("incident manifest in " + dir +
                                   " has no reason field");
  }
  if (!ScanIntField(content, "id", &manifest.id) ||
      !ScanIntField(content, "dumped_at_us", &manifest.dumped_at_us) ||
      !ScanIntField(content, "num_records", &manifest.num_records)) {
    return Status::InvalidArgument("incident manifest in " + dir +
                                   " is missing numeric fields");
  }
  const size_t files_at = content.find("\"files\": {");
  const size_t files_end =
      files_at == std::string::npos ? std::string::npos
                                    : content.find('}', files_at);
  if (files_at == std::string::npos || files_end == std::string::npos) {
    return Status::InvalidArgument("incident manifest in " + dir +
                                   " has no files map");
  }
  // The files map is flat "name": "checksum" pairs; walk the quoted tokens.
  size_t cursor = files_at + 10;
  while (cursor < files_end) {
    const size_t key_open = content.find('"', cursor);
    if (key_open == std::string::npos || key_open >= files_end) break;
    const size_t key_close = content.find('"', key_open + 1);
    const size_t val_open = content.find('"', key_close + 1);
    const size_t val_close = content.find('"', val_open + 1);
    if (key_close == std::string::npos || val_open == std::string::npos ||
        val_close == std::string::npos || val_close > files_end) {
      return Status::InvalidArgument("incident manifest in " + dir +
                                     " has a malformed files map");
    }
    manifest.files.emplace_back(
        content.substr(key_open + 1, key_close - key_open - 1),
        content.substr(val_open + 1, val_close - val_open - 1));
    cursor = val_close + 1;
  }
  if (manifest.files.empty()) {
    return Status::InvalidArgument("incident manifest in " + dir +
                                   " lists no files");
  }
  return manifest;
}

Status VerifyIncidentDump(const std::string& dir) {
  ASSIGN_OR_RETURN(const IncidentManifest manifest, ReadIncidentManifest(dir));
  bool has_timeline = false;
  bool has_metrics = false;
  for (const auto& [name, checksum] : manifest.files) {
    ASSIGN_OR_RETURN(const std::string content,
                     ReadDumpFileStrict(dir + "/" + name));
    if (ContentChecksum(content) != checksum) {
      return Status::InvalidArgument(
          "incident file " + name + " in " + dir +
          " does not match its manifest checksum");
    }
    if (name == "timeline.jsonl") has_timeline = true;
    if (name == "metrics.json") has_metrics = true;
  }
  if (!has_timeline || !has_metrics) {
    return Status::InvalidArgument("incident dump " + dir +
                                   " is missing timeline.jsonl/metrics.json");
  }
  return Status::Ok();
}

std::vector<std::string> ListIncidentDumps(const std::string& incident_root) {
  std::vector<std::string> dumps;
  std::error_code ec;
  std::filesystem::directory_iterator it(incident_root, ec);
  if (ec) return dumps;
  for (const auto& entry : it) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (StartsWith(name, "incident-")) {
      dumps.push_back(entry.path().string());
    }
  }
  std::sort(dumps.begin(), dumps.end());
  return dumps;
}

namespace {

/// The timeline instant that explains a dump with `reason`.
std::string_view TimelineMarker(std::string_view reason) {
  if (reason == "serve.breaker_trip") return "circuit_breaker";
  if (reason == "rollout.rollback") return "rollback";
  if (reason == "serve.shed_burst") return "shed_burst";
  if (reason == "serve.deadline_storm") return "deadline_storm";
  return reason;
}

}  // namespace

IncidentCheck CheckIncidentDumps(const std::string& incident_dir,
                                 IncidentPolicy policy,
                                 std::string_view expected_reason) {
  IncidentCheck check;
  const std::vector<std::string> dumps = ListIncidentDumps(incident_dir);
  check.dumps = static_cast<int>(dumps.size());
  if (policy == IncidentPolicy::kNone && !dumps.empty()) {
    check.failures.push_back(std::to_string(dumps.size()) +
                             " unexpected incident dump(s) under " +
                             incident_dir);
  }
  if (policy == IncidentPolicy::kExactlyOne && dumps.size() != 1) {
    check.failures.push_back("expected exactly 1 \"" +
                             std::string(expected_reason) + "\" dump under " +
                             incident_dir + ", found " +
                             std::to_string(dumps.size()));
  }
  for (const std::string& dump : dumps) {
    const Status verified = VerifyIncidentDump(dump);
    const Result<IncidentManifest> manifest = ReadIncidentManifest(dump);
    if (!verified.ok() || !manifest.ok()) {
      check.failures.push_back("incident dump " + dump +
                               " did not verify: " + verified.ToString());
      continue;
    }
    if (policy == IncidentPolicy::kExactlyOne &&
        manifest->reason != expected_reason) {
      check.failures.push_back("incident dump " + dump + " has reason \"" +
                               manifest->reason + "\", want \"" +
                               std::string(expected_reason) + "\"");
    }
    const std::string_view marker = TimelineMarker(manifest->reason);
    const Result<std::string> timeline =
        ReadFileVerifyingChecksum(dump + "/timeline.jsonl");
    if (!timeline.ok() || timeline->find(marker) == std::string::npos) {
      check.failures.push_back("timeline in " + dump +
                               " lacks the triggering instant \"" +
                               std::string(marker) + "\"");
      continue;
    }
    ++check.verified[manifest->reason];
  }
  return check;
}

}  // namespace activedp
