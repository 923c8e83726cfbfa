// Sim-time telemetry sampler regression suite.
//
// The load-bearing invariant of the sampler: sampling is purely
// observational. Every figure table, every elapsed_s, every result is
// byte-identical with SCSQ_SAMPLE_INTERVAL on or off — because ticks
// are zero-duration read-only callbacks and the parked tick is
// cancelled (not dispatched) when the statement drains. These tests pin
// that invariant at the engine level and unit-test the windowing math:
// counter deltas across registry re-use, mid-run series baselining,
// LogHistogram per-window quantiles for empty and single-sample
// windows, and the JSONL export shape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/scsq.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"

namespace scsq::obs {
namespace {

// ---------------------------------------------------------------------
// Windowing math on a bare Simulator + Registry
// ---------------------------------------------------------------------

TEST(Sampler, DisabledIsNoOp) {
  sim::Simulator sim;
  Registry registry;
  Sampler sampler(sim, registry, {0.0});
  EXPECT_FALSE(sampler.enabled());
  sampler.begin(0.0, nullptr);
  EXPECT_FALSE(sampler.active());
  sim.call_at(1.0, [] {});
  sim.run();
  sampler.finish();
  EXPECT_TRUE(sampler.windows().empty());
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);  // no sampler events were scheduled
}

TEST(Sampler, CounterDeltasAndRatesPerWindow) {
  sim::Simulator sim;
  Registry registry;
  auto& bytes = registry.counter("link.bytes", {{"src", "a"}});
  Sampler sampler(sim, registry, {1.0});
  sampler.begin(0.0, nullptr);
  sim.call_at(0.5, [&] { bytes.inc(10); });
  sim.call_at(1.5, [&] { bytes.inc(20); });
  sim.call_at(2.5, [&] {
    bytes.inc(5);
    sampler.finish();  // what the engine does at the last event
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);  // the parked tick never advanced now()

  const auto& w = sampler.windows();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0].t_start, 0.0);
  EXPECT_DOUBLE_EQ(w[0].t_end, 1.0);
  ASSERT_EQ(w[0].counters.size(), 1u);
  EXPECT_EQ(w[0].counters[0].key, "link.bytes{src=a}");
  EXPECT_EQ(w[0].counters[0].delta, 10u);
  EXPECT_DOUBLE_EQ(w[0].counters[0].rate, 10.0);
  // Window continuity: each window starts where the previous ended.
  EXPECT_DOUBLE_EQ(w[1].t_start, w[0].t_end);
  EXPECT_EQ(w[1].counter_delta_sum("link.bytes"), 20u);
  // Final partial window [2.0, 2.5): rate uses the real window length.
  EXPECT_DOUBLE_EQ(w[2].t_start, 2.0);
  EXPECT_DOUBLE_EQ(w[2].t_end, 2.5);
  EXPECT_EQ(w[2].counter_delta_sum("link.bytes"), 5u);
  EXPECT_DOUBLE_EQ(w[2].counter_rate_sum("link.bytes"), 10.0);
}

TEST(Sampler, DeltasSurviveRegistryReuseAcrossRuns) {
  // A second sampling run over the same (still-hot) registry must window
  // increments relative to the counter's value at begin(), not to zero —
  // the engine re-uses one registry across statements.
  sim::Simulator sim;
  Registry registry;
  auto& c = registry.counter("reqs");
  c.inc(1000);  // pre-existing total from "a previous statement"
  Sampler sampler(sim, registry, {1.0});

  sampler.begin(sim.now(), nullptr);
  sim.call_at(0.25, [&] {
    c.inc(7);
    sampler.finish();
  });
  sim.run();
  ASSERT_EQ(sampler.windows().size(), 1u);
  EXPECT_EQ(sampler.windows()[0].counter_delta_sum("reqs"), 7u);

  // Run two: baseline re-snaps at the new begin().
  c.inc(500);
  sampler.begin(sim.now(), nullptr);
  sim.call_at(sim.now() + 0.5, [&] {
    c.inc(3);
    sampler.finish();
  });
  sim.run();
  ASSERT_EQ(sampler.windows().size(), 1u);  // begin() cleared old windows
  EXPECT_EQ(sampler.windows()[0].counter_delta_sum("reqs"), 3u);
}

TEST(Sampler, MidRunSeriesBaselinesAtZero) {
  // Registry entries are append-only, so a series registered after
  // begin() baselines at zero and its full total is the first delta.
  sim::Simulator sim;
  Registry registry;
  Sampler sampler(sim, registry, {1.0});
  sampler.begin(0.0, nullptr);
  sim.call_at(0.5, [&] { registry.counter("late.series").inc(42); });
  sim.call_at(0.75, [&] { sampler.finish(); });
  sim.run();
  ASSERT_EQ(sampler.windows().size(), 1u);
  EXPECT_EQ(sampler.windows()[0].counter_delta_sum("late.series"), 42u);
}

TEST(Sampler, ZeroDeltaCountersOmittedGaugesAlwaysPresent) {
  sim::Simulator sim;
  Registry registry;
  registry.counter("idle").inc(99);  // never moves during the run
  registry.gauge("depth").set(4.0);
  Sampler sampler(sim, registry, {1.0});
  sampler.begin(0.0, nullptr);
  sim.call_at(0.5, [&] {
    registry.counter("busy").inc(1);
    registry.gauge("depth").set(7.0);
  });
  sim.call_at(1.5, [&] { sampler.finish(); });
  sim.run();
  const auto& w = sampler.windows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].counter_delta_sum("idle"), 0u);
  EXPECT_EQ(w[0].counter_delta_sum("busy"), 1u);
  ASSERT_EQ(w[0].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0].gauges[0].value, 7.0);  // sampled at the boundary
}

TEST(Sampler, PublisherRunsBeforeEverySnapshot) {
  sim::Simulator sim;
  Registry registry;
  int published = 0;
  Sampler sampler(sim, registry, {1.0});
  sampler.add_publisher([&] {
    ++published;
    registry.gauge("pull.model").set(static_cast<double>(published));
  });
  sampler.begin(0.0, nullptr);
  sim.call_at(2.5, [&] { sampler.finish(); });
  sim.run();
  // Publisher ran at begin() plus once per snapshot (2 full + 1 partial).
  EXPECT_EQ(published, 4);
  ASSERT_EQ(sampler.windows().size(), 3u);
  EXPECT_DOUBLE_EQ(sampler.windows()[2].gauges[0].value, 4.0);
}

// ---------------------------------------------------------------------
// LogHistogram windows
// ---------------------------------------------------------------------

TEST(LogHistogram, DeltaSinceEmptyWindow) {
  LogHistogram h;
  h.observe(1e-3);
  h.observe(2e-3);
  const LogHistogram baseline = h;  // snapshot, then nothing new
  const LogHistogram window = h.delta_since(baseline);
  EXPECT_EQ(window.count(), 0u);
  EXPECT_DOUBLE_EQ(window.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(window.mean(), 0.0);
}

TEST(LogHistogram, DeltaSinceSingleSampleWindow) {
  LogHistogram h;
  h.observe(5e-4);
  const LogHistogram baseline = h;
  h.observe(2e-3);  // the only observation inside the window
  const LogHistogram window = h.delta_since(baseline);
  EXPECT_EQ(window.count(), 1u);
  // One sample: every quantile is that sample, within one bucket ratio.
  EXPECT_NEAR(window.p50(), 2e-3, 2e-3 * 0.4);
  EXPECT_NEAR(window.p99(), 2e-3, 2e-3 * 0.4);
  EXPECT_GT(window.mean(), 0.0);
}

TEST(Sampler, LogHistogramWindowQuantiles) {
  sim::Simulator sim;
  Registry registry;
  LogHistogram lat;
  lat.observe(1.0);  // pre-registration observation: excluded by baseline
  Sampler sampler(sim, registry, {1.0});
  sampler.begin(0.0, nullptr);
  sampler.add_log_histogram("link.lat", &lat);
  sim.call_at(0.5, [&] {
    for (int i = 0; i < 100; ++i) lat.observe(1e-3);
  });
  sim.call_at(1.5, [&] { sampler.finish(); });  // second window: no samples
  sim.run();
  const auto& w = sampler.windows();
  ASSERT_EQ(w.size(), 2u);
  ASSERT_EQ(w[0].histograms.size(), 1u);
  EXPECT_EQ(w[0].histograms[0].key, "link.lat");
  EXPECT_EQ(w[0].histograms[0].count, 100u);  // the 1.0 baseline is not counted
  EXPECT_NEAR(w[0].histograms[0].p50, 1e-3, 1e-3 * 0.4);
  // Empty window: the entry stays (the series exists, the link was just
  // idle this window) with count 0 — the JSONL export renders its
  // quantiles as nulls.
  ASSERT_EQ(w[1].histograms.size(), 1u);
  EXPECT_EQ(w[1].histograms[0].key, "link.lat");
  EXPECT_EQ(w[1].histograms[0].count, 0u);
}

TEST(Sampler, EmptyHistogramWindowExportsNullQuantiles) {
  sim::Simulator sim;
  Registry registry;
  LogHistogram lat;
  Sampler sampler(sim, registry, {1.0});
  sampler.begin(0.0, nullptr);
  sampler.add_log_histogram("link.lat", &lat);
  sim.call_at(0.5, [&] { lat.observe(1e-3); });
  sim.call_at(1.5, [&] { sampler.finish(); });  // second window: no samples
  sim.run();
  std::ostringstream os;
  sampler.write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  {
    const auto doc = util::json::parse(line);
    const auto* hist = doc.find("histograms")->find("link.lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->as_number(), 1.0);
    EXPECT_TRUE(hist->find("p50")->is_number());
  }
  ASSERT_TRUE(std::getline(lines, line));
  {
    // count == 0 => explicit nulls, distinguishable from a real 0.0
    // latency; the line still parses as strict JSON.
    const auto doc = util::json::parse(line);
    const auto* hist = doc.find("histograms")->find("link.lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->as_number(), 0.0);
    for (const char* q : {"mean", "p50", "p95", "p99"}) {
      const auto* v = hist->find(q);
      ASSERT_NE(v, nullptr) << q;
      EXPECT_TRUE(v->is_null()) << q;
    }
  }
}

// ---------------------------------------------------------------------
// JSONL export
// ---------------------------------------------------------------------

TEST(Sampler, JsonlParsesAndMatchesWindows) {
  sim::Simulator sim;
  Registry registry;
  Sampler sampler(sim, registry, {1.0});
  sampler.begin(0.0, nullptr);
  sim.call_at(0.5, [&] { registry.counter("a.b").inc(6); });
  sim.call_at(1.5, [&] {
    registry.gauge("g", {{"quote", "x\"y"}}).set(2.5);
    sampler.finish();
  });
  sim.run();
  std::ostringstream os;
  sampler.write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_EQ(line.rfind("{\"window\"", 0), 0u) << line;  // splice anchor
    const auto doc = util::json::parse(line);
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("window")->as_number(), static_cast<double>(n));
    EXPECT_LT(doc.find("t_start")->as_number(), doc.find("t_end")->as_number());
    ++n;
  }
  EXPECT_EQ(n, sampler.windows().size());
  ASSERT_EQ(n, 2u);
}

// ---------------------------------------------------------------------
// Engine-level byte identity: sampler on/off
// ---------------------------------------------------------------------

exec::RunReport run_sampled(const std::string& script, double interval) {
  ScsqConfig config;
  config.exec.sample_interval_s = interval;  // >= 0 skips the env resolve
  Scsq scsq(config);
  return scsq.run(script);
}

TEST(SamplerInvariance, TablesIdenticalOnOff) {
  const std::string script =
      "select extract(b) from sp a, sp b"
      " where b=sp(streamof(count(extract(a))),'bg',0)"
      " and a=sp(gen_array(100000,3),'bg',1);";
  const auto base = run_sampled(script, 0.0);
  const auto run = run_sampled(script, 1e-3);
  ASSERT_EQ(run.results.size(), base.results.size());
  EXPECT_EQ(run.elapsed_s, base.elapsed_s);  // bitwise, not approximate
  EXPECT_EQ(run.setup_s, base.setup_s);
  EXPECT_EQ(run.stream_bytes, base.stream_bytes);
}

TEST(SamplerInvariance, EngineProducesWindowsAndLinkQuantiles) {
  const std::string script =
      "select extract(b) from sp a, sp b"
      " where b=sp(streamof(count(extract(a))),'bg',0)"
      " and a=sp(gen_array(100000,3),'bg',1);";
  ScsqConfig config;
  config.exec.sample_interval_s = 1e-3;
  Scsq scsq(config);
  const auto report = scsq.run(script);
  const auto& sampler = scsq.engine().sampler();
  ASSERT_FALSE(sampler.windows().empty());
  // The stream moved bytes, so some window saw transport counters...
  double total_rate = 0.0;
  bool saw_latency_quantiles = false;
  for (const auto& w : sampler.windows()) {
    EXPECT_LT(w.t_start, w.t_end);
    total_rate += w.counter_rate_sum("transport.link.bytes");
    for (const auto& h : w.histograms) {
      if (h.key.find("transport.link.latency") != std::string::npos && h.count > 0) {
        saw_latency_quantiles = true;
        EXPECT_GT(h.p99, 0.0);
        EXPECT_GE(h.p99, h.p50);
      }
    }
  }
  EXPECT_GT(total_rate, 0.0);
  EXPECT_TRUE(saw_latency_quantiles);
  // ...and the last window ends exactly at the query's last event: the
  // final partial window is taken at finish() inside the run.
  EXPECT_LE(sampler.windows().back().t_end, report.elapsed_s + report.setup_s + 1e-9);
}

TEST(SamplerInvariance, BadSampleIntervalEnvRejected) {
  // A typo'd SCSQ_SAMPLE_INTERVAL must fail loudly at engine
  // construction, not silently disable sampling: zero, negative and
  // non-numeric values are all rejected.
  for (const char* bad : {"abc", "0", "-1", "0.0", "1x", "1e"}) {
    SCOPED_TRACE(bad);
    ::setenv("SCSQ_SAMPLE_INTERVAL", bad, 1);
    ScsqConfig config;  // sample_interval_s = -1: resolve from the env
    EXPECT_THROW(Scsq scsq(config), scsql::Error);
  }
  ::setenv("SCSQ_SAMPLE_INTERVAL", "0.5", 1);
  {
    ScsqConfig config;
    Scsq scsq(config);
    EXPECT_TRUE(scsq.engine().sampler().enabled());
    EXPECT_DOUBLE_EQ(scsq.engine().options().sample_interval_s, 0.5);
  }
  ::unsetenv("SCSQ_SAMPLE_INTERVAL");
}

TEST(SamplerInvariance, SetSampleIntervalRearmsBetweenStatements) {
  const std::string script = "select 1 + 2;";
  ScsqConfig config;
  config.exec.sample_interval_s = 0.0;
  Scsq scsq(config);
  EXPECT_FALSE(scsq.engine().sampler().enabled());
  scsq.engine().set_sample_interval(0.5);
  EXPECT_TRUE(scsq.engine().sampler().enabled());
  EXPECT_DOUBLE_EQ(scsq.engine().options().sample_interval_s, 0.5);
  scsq.run(script);  // must not crash with the sampler re-created
  scsq.engine().set_sample_interval(0.0);
  EXPECT_FALSE(scsq.engine().sampler().enabled());
}

}  // namespace
}  // namespace scsq::obs
