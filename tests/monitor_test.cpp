// Introspection-monitor regression suite (DESIGN.md §5.8).
//
// The load-bearing invariant of the monitor PR: monitors are pure
// observers. A continuous SCSQL query over system.metrics runs at every
// sampler window boundary as a zero-duration read-only callback driven
// by synchronous coroutine resumption under an all-zero cost model — so
// every figure table, elapsed_s and result is byte-identical with
// monitors on or off, at every SCSQ_BATCH_SIZE. These tests pin that
// invariant at the engine level and cover the surface around it: the
// system.* stream row shapes, above() threshold semantics,
// register-time validation of non-introspection queries, and the alert
// JSONL golden shape.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/object.hpp"
#include "core/scsq.hpp"
#include "exec/eval.hpp"
#include "obs/monitor.hpp"
#include "plan/builder.hpp"
#include "scsql/parser.hpp"
#include "util/json.hpp"

namespace scsq {
namespace {

using catalog::Kind;
using catalog::Object;

const char* kFig6Script =
    "select extract(b) from sp a, sp b"
    " where b=sp(streamof(count(extract(a))),'bg',0)"
    " and a=sp(gen_array(100000,3),'bg',1);";

// Fig. 8-shaped merge workload: two producers into one merge consumer.
const char* kFig8Script =
    "select extract(c) from sp a, sp b, sp c"
    " where c=sp(count(merge({a,b})), 'bg',0)"
    " and a=sp(gen_array(300000,10),'bg',1)"
    " and b=sp(gen_array(300000,10),'bg',4);";

const char* kThresholdMonitor =
    "above(sum(system.rates('transport.link.bytes')), 1)";

struct RunOut {
  exec::RunReport report;
  std::string alerts_jsonl;   // serialized alerts, for byte-comparison
  std::size_t alert_count = 0;
  std::size_t windows = 0;
};

RunOut run_case(bool monitored, std::size_t batch,
                const std::string& monitor_query = kThresholdMonitor,
                const char* script = kFig6Script) {
  ScsqConfig config;
  config.exec.sample_interval_s = 1e-3;  // sampling on in *every* case:
  config.exec.batch_size = batch;        // monitored-vs-not is the only delta
  Scsq scsq(config);
  if (monitored) scsq.engine().register_monitor(monitor_query);
  RunOut out;
  out.report = scsq.run(script);
  out.alert_count = scsq.engine().monitor_alerts().size();
  out.windows = scsq.engine().sampler().windows().size();
  std::ostringstream os;
  obs::write_alerts_jsonl(os, scsq.engine().monitor_alerts());
  out.alerts_jsonl = os.str();
  return out;
}

// ---------------------------------------------------------------------
// Zero-perturbation byte-identity across batch depths
// ---------------------------------------------------------------------

TEST(MonitorInvariance, TablesIdenticalOnOffAcrossBatch) {
  const RunOut base = run_case(/*monitored=*/false, /*batch=*/256);
  std::string monitored_alerts;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const RunOut run = run_case(/*monitored=*/true, batch);
    // Bitwise, not approximate: the monitor may not move a single
    // simulated event.
    EXPECT_EQ(run.report.elapsed_s, base.report.elapsed_s);
    EXPECT_EQ(run.report.setup_s, base.report.setup_s);
    EXPECT_EQ(run.report.stream_bytes, base.report.stream_bytes);
    ASSERT_EQ(run.report.results.size(), base.report.results.size());
    for (std::size_t i = 0; i < run.report.results.size(); ++i) {
      EXPECT_EQ(run.report.results[i].to_string(), base.report.results[i].to_string());
    }
    // The alert stream itself is part of the contract: same windows,
    // same rows, byte-identical serialization at every batch depth.
    EXPECT_GT(run.alert_count, 0u);
    if (monitored_alerts.empty()) {
      monitored_alerts = run.alerts_jsonl;
    } else {
      EXPECT_EQ(run.alerts_jsonl, monitored_alerts);
    }
  }
}

TEST(MonitorInvariance, Fig8MergeTablesIdenticalOnOff) {
  const RunOut base = run_case(/*monitored=*/false, 256, kThresholdMonitor, kFig8Script);
  const RunOut run = run_case(/*monitored=*/true, 256, kThresholdMonitor, kFig8Script);
  EXPECT_EQ(run.report.elapsed_s, base.report.elapsed_s);
  EXPECT_EQ(run.report.stream_bytes, base.report.stream_bytes);
  ASSERT_EQ(run.report.results.size(), 1u);
  EXPECT_EQ(run.report.results[0].as_int(), 20);  // 10 arrays per producer
  EXPECT_EQ(base.report.results[0].as_int(), 20);
  EXPECT_GT(run.alert_count, 0u);
}

// ---------------------------------------------------------------------
// Alert content: the golden JSONL shape
// ---------------------------------------------------------------------

TEST(MonitorAlerts, ThresholdAlertContent) {
  const RunOut run = run_case(/*monitored=*/true, 256);
  ASSERT_GT(run.alert_count, 0u);
  ASSERT_GT(run.windows, 0u);
  std::istringstream lines(run.alerts_jsonl);
  std::string line;
  std::size_t n = 0;
  long prev_window = -1;
  while (std::getline(lines, line)) {
    ASSERT_EQ(line.rfind("{\"alert\"", 0), 0u) << line;  // splice anchor
    const auto doc = util::json::parse(line);
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("alert")->as_number(), static_cast<double>(n));
    EXPECT_EQ(doc.find("monitor")->as_string(), "m1");
    EXPECT_EQ(doc.find("query")->as_string(), kThresholdMonitor);
    EXPECT_LT(doc.find("t_start")->as_number(), doc.find("t_end")->as_number());
    // above(sum(...), 1): every matched value is the window's summed
    // rate, strictly above the threshold.
    EXPECT_GT(doc.find("value")->as_number(), 1.0);
    const long window = static_cast<long>(doc.find("window")->as_number());
    EXPECT_GE(window, prev_window);  // window order, one pass per window
    EXPECT_LT(window, static_cast<long>(run.windows));
    prev_window = window;
    ++n;
  }
  EXPECT_EQ(n, run.alert_count);
}

TEST(MonitorAlerts, MetricsRowShape) {
  ScsqConfig config;
  config.exec.sample_interval_s = 1e-3;
  Scsq scsq(config);
  scsq.engine().register_monitor("system.metrics('transport.link.bytes')");
  scsq.run(kFig6Script);
  const auto& alerts = scsq.engine().monitor_alerts();
  ASSERT_FALSE(alerts.empty());
  for (const auto& a : alerts) {
    // {key, delta, rate, t_start, t_end}
    ASSERT_EQ(a.value.kind(), Kind::kBag);
    const auto& row = a.value.as_bag();
    ASSERT_EQ(row.size(), 5u);
    EXPECT_EQ(row[0].kind(), Kind::kStr);
    EXPECT_NE(row[0].as_str().find("transport.link.bytes"), std::string::npos);
    EXPECT_EQ(row[1].kind(), Kind::kInt);
    EXPECT_GT(row[1].as_int(), 0);  // zero-delta counters are omitted
    EXPECT_EQ(row[2].kind(), Kind::kReal);
    EXPECT_EQ(row[3].kind(), Kind::kReal);
    EXPECT_EQ(row[4].kind(), Kind::kReal);
    EXPECT_EQ(row[3].as_real(), a.t_start);
    EXPECT_EQ(row[4].as_real(), a.t_end);
  }
}

// ---------------------------------------------------------------------
// above() threshold operator
// ---------------------------------------------------------------------

// Minimal plan harness (same shape as the window-operator tests):
// above() is an ordinary plan operator, so it composes with any stream
// source, not only the system.* introspection feeds.
struct PlanHarness {
  sim::Simulator sim;
  sim::Resource cpu{sim, 1, "cpu"};
  exec::Env env;
  plan::PlanContext ctx;

  PlanHarness() {
    ctx.sim = &sim;
    ctx.loc = {"bg", 0};
    ctx.cpu = &cpu;
    ctx.node = hw::NodeParams{};
    ctx.const_eval = [this](const scsql::ExprPtr& e) {
      return exec::eval_const(e, env, nullptr);
    };
  }

  std::vector<Object> run(const std::string& expr) {
    auto op = plan::build_plan(scsql::parse_expression(expr), ctx);
    std::vector<Object> out;
    sim.spawn([](plan::Operator& o, std::vector<Object>& sink) -> sim::Task<void> {
      while (auto obj = co_await o.next()) sink.push_back(std::move(*obj));
    }(*op, out));
    sim.run();
    return out;
  }
};

TEST(AboveOp, FiltersNumericStream) {
  PlanHarness h;
  const auto out = h.run("above(iota(1,5), 3)");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].as_int(), 4);
  EXPECT_EQ(out[1].as_int(), 5);
}

TEST(AboveOp, RealThresholdAndEmptyResult) {
  PlanHarness h;
  const auto some = h.run("above(iota(1,4), 2.5)");
  ASSERT_EQ(some.size(), 2u);
  EXPECT_EQ(some[0].as_int(), 3);
  EXPECT_TRUE(h.run("above(iota(1,4), 100)").empty());
}

TEST(AboveOp, WrongArityRejected) {
  PlanHarness h;
  EXPECT_THROW(h.run("above(iota(1,5))"), scsql::Error);
  EXPECT_THROW(h.run("above(iota(1,5), 'x')"), scsql::Error);
}

// ---------------------------------------------------------------------
// Registration, validation, lifecycle
// ---------------------------------------------------------------------

TEST(MonitorRegistration, NamesListingAndRemoval) {
  Scsq scsq;
  auto& engine = scsq.engine();
  const std::string m1 = engine.register_monitor(kThresholdMonitor);
  // Trailing semicolons and `select` sugar are accepted.
  const std::string m2 = engine.register_monitor("select system.gauges('engine');");
  EXPECT_EQ(m1, "m1");
  EXPECT_EQ(m2, "m2");
  const auto listed = engine.monitors();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].name, "m1");
  EXPECT_EQ(listed[0].query, kThresholdMonitor);
  EXPECT_EQ(listed[1].query, "select system.gauges('engine')");
  EXPECT_TRUE(engine.unregister_monitor("m1"));
  EXPECT_FALSE(engine.unregister_monitor("m1"));  // already gone
  ASSERT_EQ(engine.monitors().size(), 1u);
  EXPECT_EQ(engine.monitors()[0].name, "m2");
  // Names never recycle: the next monitor is m3, not m1.
  EXPECT_EQ(engine.register_monitor("system.gauges('engine')"), "m3");
}

TEST(MonitorRegistration, RejectsNonIntrospectionQueries) {
  Scsq scsq;
  auto& engine = scsq.engine();
  EXPECT_THROW(engine.register_monitor(""), scsql::Error);
  EXPECT_THROW(engine.register_monitor(" ;; "), scsql::Error);
  // Stream/network sources need the data plane, not the introspection
  // feed; they are rejected at registration, not at the first window.
  EXPECT_THROW(engine.register_monitor("extract(a)"), scsql::Error);
  EXPECT_THROW(engine.register_monitor("receiver('signals')"), scsql::Error);
  // Binding clauses would spawn stream processes.
  EXPECT_THROW(
      engine.register_monitor("select extract(a) from sp a where a=sp(iota(1,3),'bg')"),
      scsql::Error);
  EXPECT_THROW(engine.register_monitor("create function f() -> integer as select 3"),
               scsql::Error);
  EXPECT_EQ(engine.monitors().size(), 0u);  // nothing half-registered
}

TEST(MonitorRegistration, IntrospectionSourcesRejectedOutsideMonitors) {
  // system.* sources exist only under a monitor plan context; a plan
  // built without an introspection feed must fail loudly at build time
  // rather than read a stale window.
  PlanHarness h;
  EXPECT_THROW(h.run("system.metrics('x')"), scsql::Error);
  EXPECT_THROW(h.run("system.gauges()"), scsql::Error);
  // Same guard through the full engine: a stream process binding an
  // introspection source fails the statement.
  Scsq scsq;
  EXPECT_THROW(
      scsq.run("select extract(a) from sp a where a=sp(system.metrics('x'),'bg');"),
      scsql::Error);
}

TEST(MonitorRegistration, SystemLpIsAnUnknownFunction) {
  // There is no per-LP introspection source: system.lp() is an ordinary
  // unknown function, rejected with a typed, positioned error both at
  // registration and inside a statement.
  Scsq scsq;
  try {
    scsq.engine().register_monitor("select system.lp();");
    FAIL() << "system.lp() registered as a monitor";
  } catch (const scsql::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown function 'system.lp'"), std::string::npos)
        << e.what();
    EXPECT_GT(e.pos().line, 0);
  }
  EXPECT_EQ(scsq.engine().monitors().size(), 0u);
  EXPECT_THROW(scsq.run("select extract(a) from sp a where a=sp(system.lp(),'bg');"),
               scsql::Error);
}

TEST(MonitorRegistration, EnvMonitorAutoRegisters) {
  ::setenv("SCSQ_MONITOR", kThresholdMonitor, 1);
  {
    Scsq scsq;
    const auto listed = scsq.engine().monitors();
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0].query, kThresholdMonitor);
  }
  ::setenv("SCSQ_MONITOR", "extract(nope)", 1);
  EXPECT_THROW(Scsq{}, scsql::Error);  // invalid env monitor fails loudly
  ::unsetenv("SCSQ_MONITOR");
}

TEST(MonitorRegistration, AlertCountsResetPerStatement) {
  ScsqConfig config;
  config.exec.sample_interval_s = 1e-3;
  Scsq scsq(config);
  scsq.engine().register_monitor(kThresholdMonitor);
  scsq.run(kFig6Script);
  const std::size_t first = scsq.engine().monitors()[0].alerts;
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, scsq.engine().monitor_alerts().size());
  scsq.run("select 1 + 2;");  // no windows: the counters reset to zero
  EXPECT_EQ(scsq.engine().monitors()[0].alerts, 0u);
  EXPECT_TRUE(scsq.engine().monitor_alerts().empty());
}

// ---------------------------------------------------------------------
// Window listeners (the shell's live \watch path)
// ---------------------------------------------------------------------

TEST(WindowListener, FiresOncePerWindowAfterMonitors) {
  ScsqConfig config;
  config.exec.sample_interval_s = 1e-3;
  Scsq scsq(config);
  scsq.engine().register_monitor(kThresholdMonitor);
  std::size_t calls = 0;
  std::size_t alerts_at_last_call = 0;
  scsq.engine().add_window_listener(
      [&](const obs::Sampler::Window& w, std::size_t index) {
        EXPECT_EQ(index, calls);
        EXPECT_LT(w.t_start, w.t_end);
        ++calls;
        alerts_at_last_call = scsq.engine().monitor_alerts().size();
      });
  scsq.run(kFig6Script);
  EXPECT_EQ(calls, scsq.engine().sampler().windows().size());
  // Monitors for the final window had already run when the listener saw
  // it (listeners observe a monitor-complete window).
  EXPECT_EQ(alerts_at_last_call, scsq.engine().monitor_alerts().size());
}

}  // namespace
}  // namespace scsq
