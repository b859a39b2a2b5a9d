#ifndef ACTIVEDP_UTIL_DEADLINE_H_
#define ACTIVEDP_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"

namespace activedp {

/// A monotonic wall-clock budget. Value type, cheap to copy, default
/// infinite; built on steady_clock so system clock changes cannot expire (or
/// un-expire) a running stage.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // infinite
  static Deadline Infinite() { return Deadline(); }
  static Deadline After(double seconds) {
    Deadline d;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }
  static Deadline At(Clock::time_point tp) {
    Deadline d;
    d.at_ = tp;
    return d;
  }

  bool is_infinite() const { return !at_.has_value(); }
  bool expired() const { return at_.has_value() && Clock::now() >= *at_; }

  /// Seconds until expiry: +inf when infinite, <= 0 when expired.
  double remaining_seconds() const {
    if (!at_.has_value()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(*at_ - Clock::now()).count();
  }

  /// The earlier of the two deadlines (a child stage's budget never outlives
  /// its parent's).
  static Deadline Sooner(const Deadline& a, const Deadline& b) {
    if (a.is_infinite()) return b;
    if (b.is_infinite()) return a;
    return At(std::min(*a.at_, *b.at_));
  }

 private:
  std::optional<Clock::time_point> at_;
};

class CancellationSource;

/// Read side of a cooperative cancellation flag. Default-constructed tokens
/// are never cancelled. Tokens observe their own source's flag *and* every
/// ancestor's (parent→child propagation): cancelling an experiment cancels
/// each seed, cancelling a seed cancels the solver it is inside.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool cancelled() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->flag.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

 private:
  friend class CancellationSource;
  struct State {
    std::atomic<bool> flag{false};
    std::shared_ptr<const State> parent;
  };
  explicit CancellationToken(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<const State> state_;
};

/// Write side: owns one cancellation flag. Construct from a parent token to
/// chain scopes; Cancel() trips this source and, transitively, every token
/// derived from it (but never the parent). Thread-safe.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<CancellationToken::State>()) {}
  explicit CancellationSource(const CancellationToken& parent)
      : CancellationSource() {
    state_->parent = parent.state_;
  }

  void Cancel() { state_->flag.store(true, std::memory_order_release); }
  bool cancelled() const { return token().cancelled(); }
  CancellationToken token() const { return CancellationToken(state_); }

 private:
  std::shared_ptr<CancellationToken::State> state_;
};

/// The (deadline, cancellation) pair every long-running stage receives.
/// Checked once per solver iteration; both checks are a few atomic loads, so
/// per-iteration polling is free next to the iteration itself.
struct RunLimits {
  Deadline deadline;
  CancellationToken cancel;

  static RunLimits Unlimited() { return RunLimits{}; }
  bool unlimited() const { return deadline.is_infinite() && !cancel.cancelled(); }

  /// Same cancellation, deadline capped at now + `seconds` (<= 0 keeps the
  /// current deadline): the per-stage budget inside a run-level budget.
  RunLimits Tightened(double seconds) const {
    if (seconds <= 0.0) return *this;
    RunLimits out = *this;
    out.deadline = Deadline::Sooner(deadline, Deadline::After(seconds));
    return out;
  }

  /// OK, or Cancelled / DeadlineExceeded naming the stage that noticed.
  Status Check(std::string_view stage) const {
    if (cancel.cancelled()) {
      return Status::Cancelled(std::string(stage) + ": cancelled");
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded(std::string(stage) +
                                      ": deadline exceeded");
    }
    return Status::Ok();
  }
};

/// Row loops under a RunLimits check it once per this many rows.
inline constexpr int kRowsPerLimitCheck = 1024;

/// True for the two codes a tripped RunLimits surfaces as. A budget trip is
/// a decision, not a failure: callers propagate it instead of retrying or
/// degrading (DESIGN.md §7).
inline bool IsBudgetTrip(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

/// Sleeps up to `seconds`, waking early (returning false) when the token is
/// cancelled. Used by retry backoff so a cancelled run never sits out a
/// backoff window.
bool SleepWithCancellation(double seconds, const CancellationToken& token);

/// Cancels registered sources once their deadline passes. One polling
/// thread, started lazily on the first Watch(); the experiment seed fan-out
/// uses this so a seed stuck inside a stage that only polls its token (not
/// its clock) is still torn down on time.
class Watchdog {
 public:
  explicit Watchdog(double poll_interval_seconds = 0.01)
      : poll_interval_(poll_interval_seconds) {}
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers `source` to be cancelled when `deadline` expires. An
  /// infinite deadline is accepted and never fires.
  void Watch(const Deadline& deadline,
             std::shared_ptr<CancellationSource> source);

  /// How many sources this watchdog has cancelled so far.
  int cancellations() const;

 private:
  struct Entry {
    Deadline deadline;
    std::shared_ptr<CancellationSource> source;
    bool fired = false;
  };
  void Loop();

  const double poll_interval_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Entry> entries_;
  int cancellations_ = 0;
  bool shutdown_ = false;
  std::thread thread_;  // guarded by mutex_ for start; joined in dtor
  bool started_ = false;
};

}  // namespace activedp

#endif  // ACTIVEDP_UTIL_DEADLINE_H_
