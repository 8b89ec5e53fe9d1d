#include "wsim/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using wsim::util::ThreadPool;

TEST(ThreadPool, ResolvePicksHardwareConcurrencyForNonPositive) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_GE(ThreadPool::resolve(-3), 1);
  EXPECT_EQ(ThreadPool::resolve(5), 5);
  EXPECT_EQ(ThreadPool::resolve(1), 1);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool one(1);
  EXPECT_EQ(one.size(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ResultsIndependentOfExecutionOrder) {
  // Slot-indexed output: any interleaving must produce the sequential
  // result bit for bit.
  constexpr std::size_t kN = 257;
  std::vector<long long> sequential(kN);
  ThreadPool one(1);
  one.parallel_for(kN, [&](std::size_t i) {
    sequential[i] = static_cast<long long>(i * i * 31 + i);
  });
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 5; ++round) {
      std::vector<long long> parallel(kN, -1);
      pool.parallel_for(kN, [&](std::size_t i) {
        parallel[i] = static_cast<long long>(i * i * 31 + i);
      });
      EXPECT_EQ(parallel, sequential) << threads << " threads, round " << round;
    }
  }
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  const auto run = [&]() {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 23 || i == 71) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
    });
  };
  try {
    run();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Matches what a sequential loop would have thrown first.
    EXPECT_STREQ(e.what(), "boom at 23");
  }
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  long long total = 0;
  for (int job = 0; job < 200; ++job) {
    std::atomic<long long> sum{0};
    pool.parallel_for(16, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i));
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 200LL * (15 * 16 / 2));
}

// A worker must be done with a job before the submitter can see its hold
// released: the submitter then returns and reuses the Job's stack slot.
// Releasing first and locking the job's mutex after let glibc abort on
// `mutex->__data.__owner == 0` within ~500k tiny jobs in most runs, so
// millions of back-to-back tiny jobs hit that window if it ever reopens,
// and the TSan job flags the access directly.
TEST(ThreadPool, BackToBackTinyJobsNeverTouchAFinishedJob) {
  ThreadPool pool(2);
  constexpr long kJobs = 2'000'000;
  std::atomic<long> sum{0};
  long expected = 0;
  for (long k = 0; k < kJobs; ++k) {
    const auto n = static_cast<std::size_t>(2 + k % 3);
    pool.parallel_for(n, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    expected += static_cast<long>(n * (n - 1) / 2);
  }
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
