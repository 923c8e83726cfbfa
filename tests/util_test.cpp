#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace scsq::util {
namespace {

TEST(Strings, SplitBasic) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitSingleField) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "::"), "x::y::z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("select x", "select"));
  EXPECT_FALSE(starts_with("sel", "select"));
  EXPECT_TRUE(ends_with("query.sql", ".sql"));
  EXPECT_FALSE(ends_with("sql", ".sql"));
}

TEST(Strings, ToLowerAndContains) {
  EXPECT_EQ(to_lower("SeLeCt"), "select");
  EXPECT_TRUE(contains("needle in haystack", "in hay"));
  EXPECT_FALSE(contains("abc", "abd"));
}

TEST(Stats, MeanAndStdev) {
  Stats s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, SingleSampleHasZeroSpread) {
  Stats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(Stats, EmptyMeanIsZero) {
  Stats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Bytes, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(Bytes, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth_bps(921.3e6), "921.3 Mbit/s");
  EXPECT_EQ(format_bandwidth_bps(1.4e9), "1.4 Gbit/s");
}

TEST(Bytes, ToMbps) {
  // 1 MB in 1 s = 8 Mbit/s.
  EXPECT_DOUBLE_EQ(to_mbps(1'000'000, 1.0), 8.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, JitterStaysPositive) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.jitter(0.5), 0.0);
  }
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ShutdownIsIdempotentAndDrainsFirst) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.shutdown();  // drain-then-join
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(pool.thread_count(), 0u);
  pool.shutdown();  // second call is a no-op
  pool.shutdown();
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel_for(10, 1, [&](std::size_t i) { order.push_back(i); });  // no locking needed
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  for (unsigned threads : {1u, 4u}) {
    try {
      parallel_for(16, threads, [](std::size_t i) {
        if (i == 3 || i == 11) throw std::runtime_error("fail " + std::to_string(i));
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail 3");
    }
  }
}

TEST(RunSweep, ResultsKeepPointOrderAcrossThreadCounts) {
  std::vector<int> points(64);
  std::iota(points.begin(), points.end(), 0);
  auto sequential = run_sweep(points, [](const int& p) { return p * p; }, 1);
  auto parallel = run_sweep(points, [](const int& p) { return p * p; }, 4);
  EXPECT_EQ(sequential, parallel);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(sequential[static_cast<std::size_t>(i)], i * i);
}

TEST(ThreadPoolDefaults, EnvOverrideWins) {
  setenv("SCSQ_BENCH_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  setenv("SCSQ_BENCH_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 1u);
  unsetenv("SCSQ_BENCH_THREADS");
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

}  // namespace
}  // namespace scsq::util
