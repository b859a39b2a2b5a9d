#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/timer.h"

namespace activedp {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  // Destroying the pool with a deep queue must run every queued task (a
  // dropped task would lose an experiment seed's result silently).
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
    // No Wait(): the destructor itself is the drain under test.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ErrorStatusTasksDoNotPoisonThePool) {
  // The seed-parallel experiment runner stores one Status per task; a task
  // that fails must report through its slot while the rest keep running.
  ThreadPool pool(4);
  std::vector<Status> statuses(32, Status::Ok());
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&statuses, i] {
      statuses[i] = (i % 3 == 0)
                        ? Status::Internal("task " + std::to_string(i))
                        : Status::Ok();
    });
  }
  pool.Wait();
  int failed = 0;
  for (int i = 0; i < 32; ++i) {
    if (!statuses[i].ok()) {
      ++failed;
      EXPECT_EQ(statuses[i].code(), StatusCode::kInternal);
    }
  }
  EXPECT_EQ(failed, 11);  // i = 0, 3, 6, ..., 30

  // The pool is still usable after error-status tasks.
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 8);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(200);
  ParallelFor(&pool, 200, [&](int i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 0, [&](int) { called = true; });
  EXPECT_FALSE(called);
}

// --- Batch-scoped waiting (regression: Wait used to latch a pool-global
// pending counter, so concurrent batches waited on each other's tasks and a
// nested batch deadlocked). ---

TEST(TaskBatchTest, WaitDoesNotBlockOnOtherBatchesTasks) {
  ThreadPool pool(4);
  // Batch B parks a task on a promise that is only released *after* batch
  // A's Wait() returns. With a pool-global counter this deadlocks; with
  // per-batch latches A's Wait sees only A's tasks.
  std::promise<void> release_b;
  std::shared_future<void> gate(release_b.get_future());
  TaskBatch batch_b(&pool);
  batch_b.Submit([gate] { gate.wait(); });

  std::atomic<int> a_count{0};
  TaskBatch batch_a(&pool);
  for (int i = 0; i < 8; ++i) {
    batch_a.Submit([&a_count] { a_count.fetch_add(1); });
  }
  batch_a.Wait();  // must return while B's task is still parked
  EXPECT_EQ(a_count.load(), 8);

  release_b.set_value();
  batch_b.Wait();
}

TEST(ThreadPoolTest, ConcurrentParallelForBatchesComplete) {
  // Two threads drive independent ParallelFor batches over one pool; both
  // must finish promptly (the issue's regression deadline: well under 5s).
  ThreadPool pool(4);
  Timer timer;
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 2; ++t) {
    drivers.emplace_back([&pool, &total] {
      ParallelFor(&pool, 200, [&total](int) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        total.fetch_add(1);
      });
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(total.load(), 400);
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
}

TEST(ParallelForTest, NestedCallFallsBackToInline) {
  // A ParallelFor issued from inside a worker of the same pool must not
  // block that worker on work only workers can run. With 2 workers and 4
  // outer iterations, the old design deadlocked; the new one runs the inner
  // loops inline.
  ThreadPool pool(2);
  Timer timer;
  std::atomic<int> inner_total{0};
  ParallelFor(&pool, 4, [&pool, &inner_total](int) {
    ParallelFor(&pool, 8, [&inner_total](int) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
}

// --- Exception safety (regression: a throwing body escaped the worker
// thread and called std::terminate). ---

TEST(ParallelForTest, ThrowingBodyRethrowsInCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](int i) {
                    if (i == 13) throw std::runtime_error("body failed");
                  }),
      std::runtime_error);

  // The pool survives and the next batch is clean.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 10, [&counter](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForTest, ThrowingBodyRethrowsInlineToo) {
  EXPECT_THROW(ParallelFor(nullptr, 5,
                           [](int i) {
                             if (i == 2) throw std::runtime_error("inline");
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SubmitWaitRethrowsFirstException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("legacy submit"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);

  // Usable after the failed wave.
  std::atomic<int> counter{0};
  for (int i = 0; i < 4; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 4);
}

TEST(TaskBatchTest, CancelSkipsBodiesNotYetStarted) {
  ThreadPool pool(2);
  TaskBatch batch(&pool);
  batch.Cancel();
  std::atomic<int> ran{0};
  batch.Submit([&ran] { ran.fetch_add(1); });
  batch.Wait();
  EXPECT_EQ(ran.load(), 0);
}

}  // namespace
}  // namespace activedp
