#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace activedp {
namespace {

/// The pool whose WorkerLoop the current thread is running, if any. Lets a
/// nested ParallelFor / TaskBatch on the same pool detect the cycle and run
/// inline instead of blocking a worker on work only workers can do.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::Enqueue(std::shared_ptr<BatchState> batch,
                         std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> batch_lock(batch->mutex);
    ++batch->pending;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    CHECK(!shutdown_);
    tasks_.push_back(Task{std::move(batch), std::move(fn)});
  }
  task_available_.notify_one();
}

void ThreadPool::RunTask(Task task) {
  if (!task.batch->cancelled.load(std::memory_order_acquire)) {
    try {
      task.fn();
    } catch (...) {
      {
        std::unique_lock<std::mutex> lock(task.batch->mutex);
        if (!task.batch->error) task.batch->error = std::current_exception();
      }
      task.batch->cancelled.store(true, std::memory_order_release);
    }
  }
  {
    std::unique_lock<std::mutex> lock(task.batch->mutex);
    if (--task.batch->pending == 0) task.batch->done.notify_all();
  }
}

void ThreadPool::WaitBatch(const std::shared_ptr<BatchState>& batch) {
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done.wait(lock, [&batch] { return batch->pending == 0; });
}

void ThreadPool::RethrowBatchError(const std::shared_ptr<BatchState>& batch) {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    error = std::exchange(batch->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::Submit(std::function<void()> task) {
  std::shared_ptr<BatchState> batch;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    CHECK(!shutdown_);
    if (default_batch_ == nullptr) {
      default_batch_ = std::make_shared<BatchState>();
    }
    batch = default_batch_;
  }
  Enqueue(std::move(batch), std::move(task));
}

void ThreadPool::Wait() {
  std::shared_ptr<BatchState> batch;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch = std::exchange(default_batch_, nullptr);
  }
  if (batch == nullptr) return;  // nothing submitted since the last wave
  WaitBatch(batch);
  RethrowBatchError(batch);
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RunTask(std::move(task));
  }
}

TaskBatch::TaskBatch(ThreadPool* pool)
    : pool_(pool),
      inline_mode_(pool == nullptr || pool->num_threads() <= 1 ||
                   pool->OnWorkerThread()),
      state_(std::make_shared<ThreadPool::BatchState>()) {}

TaskBatch::~TaskBatch() {
  // Stragglers may still reference stack state captured by reference; never
  // let the batch object die before they do. Errors are intentionally
  // swallowed here — Wait() is the reporting channel.
  if (!inline_mode_) ThreadPool::WaitBatch(state_);
}

void TaskBatch::Submit(std::function<void()> task) {
  if (inline_mode_) {
    ThreadPool::Task t{state_, std::move(task)};
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      ++state_->pending;
    }
    ThreadPool::RunTask(std::move(t));
    return;
  }
  pool_->Enqueue(state_, std::move(task));
}

void TaskBatch::Wait() {
  if (!inline_mode_) ThreadPool::WaitBatch(state_);
  ThreadPool::RethrowBatchError(state_);
}

void ParallelFor(ThreadPool* pool, int n,
                 const std::function<void(int)>& body) {
  if (n <= 0) return;
  TaskBatch batch(pool);
  if (batch.inline_mode()) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }
  // Work-sharing: one looping task per worker pulling indices from a shared
  // counter. `next` and `body` outlive the tasks because Wait() (and the
  // batch destructor, if Wait throws) blocks until every task finished.
  std::atomic<int> next{0};
  const int workers = std::min(pool->num_threads(), n);
  for (int w = 0; w < workers; ++w) {
    batch.Submit([&next, &body, &batch, n] {
      while (!batch.cancelled()) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      }
    });
  }
  batch.Wait();
}

}  // namespace activedp
