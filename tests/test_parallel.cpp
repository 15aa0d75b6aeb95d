// util::parallel_for / parallel_map: completeness, determinism of collected
// results, exception propagation, chunk hybrid behavior, nested-region
// serialization, the SHAREDRES_THREADS override (including its typed
// rejection of invalid values), and the bounded WorkerPool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace sharedres::util {
namespace {

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, MapPreservesOrder) {
  const auto squares = parallel_map<std::size_t>(
      1'000, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < squares.size(); ++i) {
    ASSERT_EQ(squares[i], i * i);
  }
}

TEST(Parallel, MatchesSerialResult) {
  const auto parallel = parallel_map<int>(
      512, [](std::size_t i) { return static_cast<int>(i % 7); }, 8);
  const auto serial = parallel_map<int>(
      512, [](std::size_t i) { return static_cast<int>(i % 7); }, 1);
  EXPECT_EQ(parallel, serial);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, HandlesEdgeCases) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_GE(default_threads(), 1u);
  EXPECT_LE(default_threads(4), 4u);
}

TEST(Parallel, CoversSkewedWorkAcrossThreadCounts) {
  // The static half + dynamic-chunk tail must cover every index exactly
  // once no matter how the thread count relates to the item count —
  // including more threads than items and wildly skewed per-item cost.
  for (const std::size_t threads : {2u, 3u, 7u, 16u, 200u}) {
    constexpr std::size_t kCount = 129;
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for(
        kCount,
        [&](std::size_t i) {
          // Skew: the last few items are ~1000x the first ones.
          volatile std::size_t sink = 0;
          for (std::size_t k = 0; k < i * i; ++k) sink = sink + k;
          hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        threads);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Parallel, MapDeterministicUnderSkewAndThreadCount) {
  const auto reference = parallel_map<std::size_t>(
      200, [](std::size_t i) { return i * 31 + 7; }, 1);
  for (const std::size_t threads : {2u, 5u, 64u}) {
    const auto mapped = parallel_map<std::size_t>(
        200,
        [](std::size_t i) {
          volatile std::size_t sink = 0;
          for (std::size_t k = 0; k < (200 - i) * 50; ++k) sink = sink + k;
          return i * 31 + 7;
        },
        threads);
    EXPECT_EQ(mapped, reference) << "threads=" << threads;
  }
}

TEST(Parallel, PropagatesChunkException) {
  // Wherever the throwing item falls — the first static chunk, the start of
  // the dynamic tail (index count/2), the last item — the exception reaches
  // the caller after all workers join.
  for (const std::size_t bad : {0u, 500u, 999u}) {
    EXPECT_THROW(parallel_for(
                     1'000,
                     [bad](std::size_t i) {
                       if (i == bad) throw std::runtime_error("item failed");
                     },
                     8),
                 std::runtime_error)
        << "bad=" << bad;
  }
}

TEST(Parallel, NestedCallFromParallelWorkerSerializes) {
  // A parallel region reached from inside another parallel region must run
  // its body inline on the calling thread: nested fan-out would
  // oversubscribe, and (worse) a nested submit into a bounded pool could
  // deadlock. The thread-id assertion is what "serializes" means.
  ASSERT_FALSE(in_parallel_region());
  std::atomic<std::size_t> inner_items{0};
  parallel_for(
      4,
      [&](std::size_t) {
        EXPECT_TRUE(in_parallel_region());
        const std::thread::id outer = std::this_thread::get_id();
        parallel_for(
            100,
            [&](std::size_t) {
              EXPECT_EQ(std::this_thread::get_id(), outer);
              inner_items.fetch_add(1, std::memory_order_relaxed);
            },
            16);
      },
      2);
  EXPECT_EQ(inner_items.load(), 400u);  // 4 outer items × 100 inner indices
  EXPECT_FALSE(in_parallel_region());
}

TEST(WorkerPool, TaskBodiesAreParallelRegionsSoNestedFanoutSerializes) {
  // A pool task that reaches parallel_for (a batch worker calling into a
  // sweep) must not spawn.
  std::atomic<std::size_t> inner_items{0};
  WorkerPool pool(2, 4);
  for (int i = 0; i < 8; ++i) {
    pool.submit([&](std::size_t) {
      EXPECT_TRUE(in_parallel_region());
      const std::thread::id worker = std::this_thread::get_id();
      parallel_for(
          50,
          [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), worker);
            inner_items.fetch_add(1, std::memory_order_relaxed);
          },
          8);
    });
  }
  pool.close();
  EXPECT_EQ(inner_items.load(), 400u);
}

class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    const char* old = std::getenv("SHAREDRES_THREADS");
    had_ = old != nullptr;
    saved_ = old ? old : "";
  }
  ~ThreadsEnvGuard() {
    if (had_) {
      ::setenv("SHAREDRES_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("SHAREDRES_THREADS");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(Parallel, DefaultThreadsHonorsEnvOverride) {
  const ThreadsEnvGuard guard;

  ::setenv("SHAREDRES_THREADS", "3", 1);
  EXPECT_EQ(default_threads(), 3u);
  EXPECT_EQ(default_threads(2), 2u);  // still capped by max_threads

  // An empty value counts as unset (common `VAR= cmd` shell pattern).
  ::setenv("SHAREDRES_THREADS", "", 1);
  EXPECT_GE(default_threads(), 1u);

  ::unsetenv("SHAREDRES_THREADS");
  EXPECT_GE(default_threads(), 1u);
}

TEST(Parallel, DefaultThreadsRejectsInvalidEnvWithTypedError) {
  const ThreadsEnvGuard guard;

  // A pinned-but-unusable thread count must not silently fall back to
  // hardware concurrency: it would unpin exactly what it was set to pin.
  for (const char* bad : {"0", "-3", "abc", "4x", " 4", "+4", "3.5",
                          "99999999999999999999999"}) {
    ::setenv("SHAREDRES_THREADS", bad, 1);
    try {
      (void)default_threads();
      FAIL() << "SHAREDRES_THREADS='" << bad << "' was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCliUsage) << bad;
      EXPECT_NE(std::string(e.what()).find("SHAREDRES_THREADS"),
                std::string::npos)
          << bad;
    }
  }
}

TEST(WorkerPool, RunsEveryTaskExactlyOnceAcrossShapes) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t cap : {1u, 3u, 64u}) {
      constexpr std::size_t kTasks = 300;
      std::vector<std::atomic<int>> hits(kTasks);
      WorkerPool pool(threads, cap);
      EXPECT_EQ(pool.threads(), threads);
      for (std::size_t i = 0; i < kTasks; ++i) {
        pool.submit([&hits, i](std::size_t worker) {
          EXPECT_LT(worker, 8u);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
      }
      pool.close();
      for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " cap=" << cap << " i=" << i;
      }
    }
  }
}

TEST(WorkerPool, BoundedQueueAppliesBackpressure) {
  // One deliberately slow worker and a tiny queue: the producer can never
  // observe more than queue_capacity pending + threads running tasks ahead
  // of the completion count, or the bound is not real.
  constexpr std::size_t kCap = 2;
  std::atomic<std::size_t> completed{0};
  WorkerPool pool(1, kCap);
  std::size_t max_ahead = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    pool.submit([&completed](std::size_t) {
      volatile std::size_t sink = 0;
      for (std::size_t k = 0; k < 20'000; ++k) sink = sink + k;
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    const std::size_t ahead = i + 1 - completed.load();
    max_ahead = std::max(max_ahead, ahead);
  }
  pool.close();
  EXPECT_EQ(completed.load(), 50u);
  // submitted - completed <= queued (<= kCap) + in flight (<= 1 thread) + 1
  // for the submit that just returned.
  EXPECT_LE(max_ahead, kCap + 2);
}

TEST(WorkerPool, CloseRethrowsFirstTaskError) {
  WorkerPool pool(2, 4);
  for (int i = 0; i < 20; ++i) {
    pool.submit([i](std::size_t) {
      if (i == 7) throw std::runtime_error("task 7 failed");
    });
  }
  EXPECT_THROW(pool.close(), std::runtime_error);
  // close() is idempotent once the error has been delivered.
  EXPECT_NO_THROW(pool.close());
  EXPECT_THROW(pool.submit([](std::size_t) {}), std::logic_error);
}

TEST(WorkerPool, DestructionWithQueuedTasksStillRunsThem) {
  // The destructor routes through close(): queued-but-unstarted tasks are
  // drained, not dropped — a submitted task is a promise.
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> ran{0};
  {
    WorkerPool pool(1, kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&ran](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No close(): destruction begins with the queue still loaded.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(WorkerPool, DestructorSwallowsTaskErrorButStillDrains) {
  std::atomic<std::size_t> ran{0};
  EXPECT_NO_THROW({
    WorkerPool pool(2, 8);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran, i](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 5 == 0) throw std::runtime_error("boom");
      });
    }
  });
  // Tasks after the first throw still executed (the pool keeps draining).
  EXPECT_EQ(ran.load(), 16u);
}

TEST(WorkerPool, SubmissionAfterDrainBeginsThrowsWithoutRunning) {
  WorkerPool pool(1, 4);
  std::atomic<bool> late_ran{false};
  pool.submit([](std::size_t) {});
  pool.close();
  EXPECT_THROW(
      pool.submit([&late_ran](std::size_t) { late_ran.store(true); }),
      std::logic_error);
  EXPECT_TRUE(pool.closed());
  EXPECT_FALSE(late_ran.load());
}

}  // namespace
}  // namespace sharedres::util
