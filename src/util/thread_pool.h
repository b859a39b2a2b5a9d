#ifndef ACTIVEDP_UTIL_THREAD_POOL_H_
#define ACTIVEDP_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace activedp {

class TaskBatch;

/// Fixed-size worker pool. Completion tracking is *batch-scoped*: every task
/// belongs to a TaskBatch with its own latch, so concurrent batches never
/// wait on each other's tasks and a batch's Wait() observes only its own
/// work. Exceptions thrown by a task are captured per batch (first wins) and
/// rethrown from that batch's Wait() instead of escaping a worker thread.
/// The legacy Submit()/Wait() pair remains and is backed by an internal
/// default batch per wave.
class ThreadPool {
 public:
  /// `num_threads` <= 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task on the pool's default batch.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted via Submit() has finished, then
  /// rethrows the first exception any of them threw (if any). The default
  /// batch is reset afterwards, so the pool stays usable after a failure.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when the calling thread is one of this pool's workers. Used by
  /// ParallelFor and TaskBatch to fall back to inline execution instead of
  /// deadlocking on a nested wait.
  bool OnWorkerThread() const;

 private:
  friend class TaskBatch;

  /// Per-batch completion latch plus first-exception capture. Shared by the
  /// batch handle and every in-flight task of the batch.
  struct BatchState {
    std::mutex mutex;
    std::condition_variable done;
    int pending = 0;                   // guarded by mutex
    std::exception_ptr error;          // first exception, guarded by mutex
    std::atomic<bool> cancelled{false};
  };

  struct Task {
    std::shared_ptr<BatchState> batch;
    std::function<void()> fn;
  };

  void Enqueue(std::shared_ptr<BatchState> batch, std::function<void()> fn);
  /// Runs one task with exception capture and batch bookkeeping.
  static void RunTask(Task task);
  static void WaitBatch(const std::shared_ptr<BatchState>& batch);
  /// Rethrows (and clears) the batch's first captured exception, if any.
  static void RethrowBatchError(const std::shared_ptr<BatchState>& batch);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::shared_ptr<BatchState> default_batch_;  // lazily created by Submit
  bool shutdown_ = false;
};

/// A scoped group of tasks with its own completion latch. Waiting on one
/// batch is independent of every other batch on the same pool. When `pool`
/// is null, has <= 1 worker, or the constructing thread *is* one of the
/// pool's workers (a nested batch), tasks run inline in Submit — nesting can
/// never deadlock. The destructor waits for stragglers (without rethrowing),
/// so a batch never outlives the stack frame its tasks capture.
class TaskBatch {
 public:
  explicit TaskBatch(ThreadPool* pool);
  ~TaskBatch();

  TaskBatch(const TaskBatch&) = delete;
  TaskBatch& operator=(const TaskBatch&) = delete;

  /// Enqueues (or, in inline mode, runs) one task. After a task has thrown
  /// or Cancel() was called, submitted bodies are skipped.
  void Submit(std::function<void()> task);

  /// Blocks until this batch's tasks have finished, then rethrows the first
  /// exception thrown by any of them.
  void Wait();

  /// Marks the batch cancelled: bodies not yet started are skipped.
  void Cancel() { state_->cancelled.store(true, std::memory_order_release); }
  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  /// True when tasks run in the submitting thread (null/serial pool or a
  /// nested batch on a worker thread).
  bool inline_mode() const { return inline_mode_; }

 private:
  ThreadPool* pool_;
  bool inline_mode_;
  std::shared_ptr<ThreadPool::BatchState> state_;
};

/// Runs body(i) for i in [0, n) across the pool and blocks until all
/// iterations complete. Runs inline when the pool is null/serial or when
/// called from one of the pool's own workers (nested parallelism). The first
/// exception thrown by `body` cancels the remaining iterations and is
/// rethrown here, in the caller.
void ParallelFor(ThreadPool* pool, int n,
                 const std::function<void(int)>& body);

}  // namespace activedp

#endif  // ACTIVEDP_UTIL_THREAD_POOL_H_
