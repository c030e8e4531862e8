// The gralmatch_exec subsystem: ThreadPool lifecycle (construction and
// destruction under load, submission from workers), ParallelFor range and
// grain edge cases, deterministic exception propagation, and the
// nested-submission deadlock regression. Hangs are caught by the CTest
// per-test timeout.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool lifecycle.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ConstructDestroyIdle) {
  for (size_t threads = 1; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DefaultNumThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1u);
}

TEST(ThreadPoolTest, ResolveNumThreadsValidatesFlagValues) {
  // Positive requests pass through untouched.
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(8), 8u);
  // 0 means "use the hardware": always at least one worker.
  EXPECT_EQ(ResolveNumThreads(0), ThreadPool::DefaultNumThreads());
  EXPECT_GE(ResolveNumThreads(0), 1u);
  // Negative values clamp to serial instead of wrapping to ~2^64 workers
  // when assigned into the size_t num_threads config fields.
  EXPECT_EQ(ResolveNumThreads(-1), 1u);
  EXPECT_EQ(ResolveNumThreads(-1000000), 1u);
  EXPECT_EQ(ResolveNumThreads(std::numeric_limits<int64_t>::min()), 1u);
}

TEST(ThreadPoolTest, ResolvedValuesAreSafeForMaybeMakePool) {
  // The resolved value of a hostile flag must construct (or skip) a pool
  // without trying to spawn an absurd number of workers.
  EXPECT_EQ(MaybeMakePool(ResolveNumThreads(-7)), nullptr);
  auto pool = MaybeMakePool(ResolveNumThreads(2));
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 2u);
}

TEST(ThreadPoolTest, DestructionDrainsPendingTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor runs while most tasks are still queued.
  }
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPoolTest, RepeatedConstructDestroyUnderLoad) {
  std::atomic<int> executed{0};
  int submitted = 0;
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    for (int i = 0; i < 25; ++i) {
      pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
      ++submitted;
    }
  }
  EXPECT_EQ(executed.load(), submitted);
}

TEST(ThreadPoolTest, InWorkerThreadOnlyInsideOwnWorkers) {
  ThreadPool pool(2);
  ThreadPool other(2);
  EXPECT_FALSE(pool.InWorkerThread());

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool in_own = false, in_other = true;
  pool.Submit([&] {
    bool own = pool.InWorkerThread();
    bool foreign = other.InWorkerThread();
    std::lock_guard<std::mutex> lock(mu);
    in_own = own;
    in_other = foreign;
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_TRUE(in_own);
  EXPECT_FALSE(in_other);
}

// Regression: a task that submits more work into its own pool must not
// deadlock the drain-on-destroy path, and the follow-up task must run.
TEST(ThreadPoolTest, SubmitFromWorkerRunsAndDoesNotDeadlock) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      executed.fetch_add(1, std::memory_order_relaxed);
      pool.Submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  EXPECT_EQ(executed.load(), 2);
}

// ---------------------------------------------------------------------------
// ParallelFor ranges and determinism.
// ---------------------------------------------------------------------------

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, 0, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(&pool, 5, 5, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(&pool, 7, 3, [&](size_t) { calls.fetch_add(1); });  // inverted
  ParallelFor(nullptr, 0, 0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleElementRange) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);
  ParallelFor(&pool, 3, 4, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i == 3 ? 1 : 0);
  }
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 2, 9, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(7);
  std::iota(expected.begin(), expected.end(), 2u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, OddSizedRangesCoverEveryIndexOnce) {
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (size_t n : {1u, 2u, 3u, 5u, 17u, 31u, 101u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelFor(&pool, 0, n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, GrainNeverChangesResults) {
  const size_t n = 257;
  std::vector<long> reference(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = static_cast<long>(i * i + 1);
  }
  ThreadPool pool(4);
  for (size_t grain : {0u, 1u, 7u, 64u, 100000u}) {
    std::vector<long> out(n, -1);
    ParallelFor(
        &pool, 0, n,
        [&](size_t i) { out[i] = static_cast<long>(i * i + 1); }, grain);
    EXPECT_EQ(out, reference) << "grain=" << grain;
  }
}

TEST(ParallelForTest, NonZeroBeginRanges) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  ParallelFor(&pool, 40, 73, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 40 && i < 73) ? 1 : 0) << i;
  }
}

TEST(ParallelForTest, RangeSmallerThanThreadCount) {
  // Fewer iterations than workers: every index still runs exactly once
  // (each iteration writes only its own slot).
  ThreadPool pool(8);
  for (size_t n : {1u, 2u, 3u, 7u}) {
    std::vector<int> hits(n, 0);
    ParallelFor(&pool, 0, n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "n=" << n;
  }
}

TEST(ParallelForTest, ZeroWorkerPoolRequestTreatedAsOne) {
  // ThreadPool clamps 0 to one worker and MaybeMakePool(0) yields the
  // serial nullptr path; both must behave exactly like num_threads = 1.
  EXPECT_EQ(MaybeMakePool(0), nullptr);
  EXPECT_EQ(MaybeMakePool(1), nullptr);
  ThreadPool zero_pool(0);
  EXPECT_EQ(zero_pool.num_threads(), 1u);
  std::vector<size_t> order;
  ParallelFor(&zero_pool, 0, 6, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Exception propagation.
// ---------------------------------------------------------------------------

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 0, 100,
                           [](size_t i) {
                             if (i == 37) throw std::runtime_error("boom");
                           }),
               std::runtime_error);

  // The pool stays usable after a failed loop.
  std::vector<std::atomic<int>> hits(50);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, 0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, LowestChunkExceptionWinsDeterministically) {
  ThreadPool pool(4);
  // Every index throws; the surviving exception must come from the first
  // index of the lowest chunk — index 0 — on every run and thread count.
  for (int round = 0; round < 5; ++round) {
    std::string message;
    try {
      ParallelFor(&pool, 0, 64, [](size_t i) {
        throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "0");
  }
}

TEST(ParallelForTest, SerialPathPropagatesExceptions) {
  EXPECT_THROW(ParallelFor(nullptr, 0, 10,
                           [](size_t i) {
                             if (i == 5) throw std::logic_error("serial");
                           }),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Nested submission (deadlock regression).
// ---------------------------------------------------------------------------

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // A single-worker pool is the adversarial case: the outer loop runs on the
  // only worker, so a blocking inner dispatch could never be served. The
  // inner loop must detect it is on a worker thread and run inline.
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::vector<int>> grid(8, std::vector<int>(16, 0));
    ParallelFor(&pool, 0, grid.size(), [&](size_t r) {
      ParallelFor(&pool, 0, grid[r].size(), [&](size_t c) {
        grid[r][c] = static_cast<int>(r * 100 + c);
      });
    });
    for (size_t r = 0; r < grid.size(); ++r) {
      for (size_t c = 0; c < grid[r].size(); ++c) {
        ASSERT_EQ(grid[r][c], static_cast<int>(r * 100 + c));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stress: repeated loops sharing one pool.
// ---------------------------------------------------------------------------

TEST(ExecStressTest, ManySequentialParallelForsAccumulateExactly) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  long expected = 0;
  for (int round = 0; round < 50; ++round) {
    const size_t n = 10 + static_cast<size_t>(round) * 7;
    ParallelFor(&pool, 0, n, [&](size_t i) {
      total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    expected += static_cast<long>(n * (n - 1) / 2);
  }
  EXPECT_EQ(total.load(), expected);
}

}  // namespace
}  // namespace gralmatch
