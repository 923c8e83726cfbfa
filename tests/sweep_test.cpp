// Determinism tests for the parallel sweep harness: the same sweep point
// must produce bit-identical results run twice, run on a worker thread,
// or run interleaved with other points — the property the byte-identical
// bench tables rest on.
#include <gtest/gtest.h>

#include <latch>
#include <vector>

#include "common.hpp"
#include "core/scsq.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"
#include "util/thread_pool.hpp"

namespace scsq::bench {
namespace {

// A small Fig. 6 sweep point: point-to-point streaming at 1000-byte
// buffers (the paper's optimum), two arrays to keep the test quick.
struct Fig6Point {
  std::uint64_t buffer_bytes = 1000;
  int arrays = 2;
  int send_buffers = 2;
  std::uint64_t seed = 42;
};

struct RunResult {
  double mbps = 0.0;
  std::uint64_t events = 0;
  std::uint64_t live_roots = 0;
};

RunResult run_fig6_point(const Fig6Point& p) {
  ScsqConfig cfg;
  cfg.cost = jittered(hw::CostModel::lofar(), p.seed);
  cfg.exec.buffer_bytes = p.buffer_bytes;
  cfg.exec.send_buffers = p.send_buffers;
  Scsq scsq(cfg);
  const std::uint64_t payload = kArrayBytes * static_cast<std::uint64_t>(p.arrays);
  auto report = scsq.run(p2p_query(kArrayBytes, p.arrays));
  RunResult r;
  r.mbps = static_cast<double>(payload) * 8.0 / report.elapsed_s / 1e6;
  r.events = scsq.sim().events_dispatched();
  r.live_roots = scsq.sim().live_root_tasks();
  return r;
}

TEST(SweepDeterminism, SamePointTwiceIsBitIdentical) {
  const Fig6Point point;
  const RunResult a = run_fig6_point(point);
  const RunResult b = run_fig6_point(point);
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.mbps, b.mbps);  // exact: same seeds, same event order
  EXPECT_EQ(a.live_roots, 0u);
  EXPECT_EQ(b.live_roots, 0u);
}

TEST(SweepDeterminism, ThreadPoolMatchesSequentialBitForBit) {
  const Fig6Point point;
  const RunResult reference = run_fig6_point(point);
  // Four copies of the same point across four worker threads: every
  // worker must reproduce the sequential result exactly.
  const std::vector<Fig6Point> points(4, point);
  auto results =
      util::run_sweep(points, [](const Fig6Point& p) { return run_fig6_point(p); }, 4);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.events, reference.events);
    EXPECT_EQ(r.mbps, reference.mbps);
  }
}

TEST(SweepDeterminism, DistinctSeedsStayDistinctUnderThreads) {
  // Jitter must come only from the point's own seed, never from thread
  // scheduling: each seed's parallel result equals its sequential one.
  std::vector<Fig6Point> points;
  for (std::uint64_t s = 1; s <= 6; ++s) points.push_back({1000, 2, 2, s * 7919});
  auto run = [](const Fig6Point& p) { return run_fig6_point(p).mbps; };
  const auto sequential = util::run_sweep(points, run, 1);
  const auto parallel = util::run_sweep(points, run, 4);
  EXPECT_EQ(sequential, parallel);
}

TEST(SweepDeterminism, RepeatQueryStatsReproduce) {
  const auto query = p2p_query(kArrayBytes, 2);
  const std::uint64_t payload = kArrayBytes * 2;
  auto a = repeat_query_mbps(query, payload, hw::CostModel::lofar(), 1000, 2, 7);
  auto b = repeat_query_mbps(query, payload, hw::CostModel::lofar(), 1000, 2, 7);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stdev(), b.stdev());
}

TEST(SweepDeterminism, DeadlockReportingSurvivesWorkerThreads) {
  // live_root_tasks() must report per-simulator state even when other
  // simulators run concurrently on the pool.
  auto deadlocked = [](const int&) {
    sim::Simulator sim;
    sim::Channel<int> ch(sim, 1);
    sim.spawn([](sim::Channel<int>& c) -> sim::Task<void> {
      auto v = co_await c.recv();  // never sent, never closed
      (void)v;
    }(ch));
    sim.run();
    return sim.live_root_tasks();
  };
  const std::vector<int> points = {0, 1, 2, 3};
  auto live = util::run_sweep(points, deadlocked, 4);
  for (auto l : live) EXPECT_EQ(l, 1u);
}

// Sweep workers are fresh threads on every run_sweep call. Their warm
// coroutine-frame free lists must outlive them (sim/task.hpp): once the
// first sweep has carved what the workload needs, later sweeps adopt the
// retired workers' blocks and carve no new chunk.
TEST(SweepCoroPool, LaterSweepsReuseRetiredWorkerChunks) {
  const std::vector<Fig6Point> points(2);
  std::uint64_t after_first = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    // Both points run at once, one per worker, in every sweep, so each
    // sweep's per-thread frame demand is the same.
    std::latch both_started(2);
    util::run_sweep(
        points,
        [&](const Fig6Point& p) {
          both_started.arrive_and_wait();
          return run_fig6_point(p);
        },
        2);
    const std::uint64_t chunks = sim::coro_pool_stats().chunk_allocs;
    if (sweep == 0) after_first = chunks;
    EXPECT_EQ(chunks, after_first) << "sweep " << sweep;
  }
}

}  // namespace
}  // namespace scsq::bench
