#include "runner.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <optional>
#include <sstream>

#include "alloc_count.hpp"
#include "core/scsq.hpp"
#include "funcs/textgen.hpp"
#include "scsql/parser.hpp"
#include "sim/task.hpp"
#include "transport/marshal.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using Scope = SpanRecorder::Scope;

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Counters are cumulative over an environment; peak depth is not a sum.
scsq::sim::PerfCounters since(const scsq::sim::PerfCounters& now,
                              const scsq::sim::PerfCounters& before) {
  scsq::sim::PerfCounters d = now;
  d.events_dispatched -= before.events_dispatched;
  d.heap_pushes -= before.heap_pushes;
  d.fifo_pushes -= before.fifo_pushes;
  d.callbacks_run -= before.callbacks_run;
  d.channel_sends -= before.channel_sends;
  d.channel_recvs -= before.channel_recvs;
  d.channel_waits -= before.channel_waits;
  d.wakeups -= before.wakeups;
  d.rung_spills -= before.rung_spills;
  d.bottom_resorts -= before.bottom_resorts;
  d.cancel_consumed -= before.cancel_consumed;
  return d;
}

LayerCounters read_counters(const scsq::obs::Registry& reg) {
  LayerCounters c;
  c.events = reg.counter_total("sim.events_dispatched");
  c.wakeups = reg.counter_total("sim.wakeups");
  c.channel_waits = reg.counter_total("sim.channel_waits");
  c.callbacks_run = reg.counter_total("sim.callbacks_run");
  c.link_bytes = reg.counter_total("transport.link.bytes");
  c.link_stalls = reg.counter_total("transport.link.stalls");
  c.torus_messages = reg.counter_total("torus.messages");
  c.torus_packets = reg.counter_total("torus.packets");
  c.tree_inbound = reg.counter_total("tree.inbound_messages");
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto e = reg.entry(i);
    if (e.counter != nullptr && e.name == "transport.link.frames") {
      for (const auto& l : e.labels) {
        if (l.key != "type") continue;
        if (l.value == "mpi") c.mpi_frames += e.counter->value();
        if (l.value.rfind("tcp", 0) == 0) c.tcp_frames += e.counter->value();
      }
    } else if (e.gauge != nullptr && e.labels.empty()) {
      if (e.name == "sim.peak_queue_depth") c.peak_queue_depth = e.gauge->value();
      if (e.name == "transport.frame_pool.acquired") c.pool_acquired = e.gauge->value();
      if (e.name == "transport.frame_pool.reused") c.pool_reused = e.gauge->value();
    }
  }
  return c;
}

// Runs one parsed statement on `scsq` and records what it produced.
// `before` is the environment's kernel counters before the statement.
void execute(scsq::Scsq& scsq, const scsq::scsql::Statement& statement, StmtRecord& rec,
             SpanRecorder* spans, const scsq::sim::PerfCounters& before) {
  StmtOutcome& out = rec.outcome;
  try {
    scsq::exec::RunReport report;
    {
      Scope span(spans, "run_statement", "exec");
      const double t0 = wall_now();
      report = scsq.engine().run_statement(statement);
      rec.run_s = wall_now() - t0;
    }
    out.perf = since(scsq.sim().perf(), before);
    out.elapsed_s = report.elapsed_s;
    out.stream_bytes = report.stream_bytes;
    if (report.results.size() == 1 &&
        report.results[0].kind() == scsq::catalog::Kind::kInt) {
      out.count = report.results[0].as_int();
    } else {
      out.error = "expected one integer result, got " + std::to_string(report.results.size()) +
                  " result(s)";
    }
    rec.rps = report.rp_count;
    for (const auto& rp : report.rps) {
      rec.batches += rp.batches;
      rec.batch_items += rp.batch_items;
    }
    if (spans != nullptr) {
      {
        Scope span(spans, "profile", "obs");
        const double t0 = wall_now();
        const auto profile = scsq.engine().profile(report);
        rec.profile_s = wall_now() - t0;
      }
      Scope span(spans, "publish_and_export", "obs");
      const double t0 = wall_now();
      scsq.machine().publish_metrics();
      std::ostringstream json;
      scsq.machine().metrics().write_json(json);
      rec.export_s = wall_now() - t0;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

scsq::ScsqConfig config_for(const scsq::hw::CostModel& cost, std::uint64_t buffer_bytes,
                            int send_buffers) {
  scsq::ScsqConfig cfg;
  cfg.cost = cost;
  cfg.exec.buffer_bytes = buffer_bytes;
  cfg.exec.send_buffers = send_buffers;
  return cfg;
}

struct PointRun {
  StmtRecord rec;
  double build_s = 0.0;
  double teardown_s = 0.0;
  LayerCounters layer;
};

// One sweep point: parse, a fresh environment, the statement, teardown.
PointRun run_point(const Point& p, SpanRecorder* spans, std::uint32_t parent) {
  Scope point(spans, "statement", "bench", parent);
  PointRun r;
  try {
    std::vector<scsq::scsql::Statement> statements;
    {
      Scope span(spans, "parse_script", "scsql");
      const double t0 = wall_now();
      statements = scsq::scsql::parse_script(p.text);
      r.rec.parse_s = wall_now() - t0;
    }
    if (statements.size() != 1) {
      r.rec.outcome.error = "expected one statement";
      return r;
    }
    std::optional<scsq::Scsq> scsq;
    {
      Scope span(spans, "env_build", "core");
      const double t0 = wall_now();
      scsq.emplace(config_for(p.cost, p.buffer_bytes, p.send_buffers));
      r.build_s = wall_now() - t0;
    }
    execute(*scsq, statements.front(), r.rec, spans, scsq::sim::PerfCounters{});
    if (spans != nullptr) {
      Scope span(spans, "read_counters", "obs");
      r.layer = read_counters(scsq->machine().metrics());
    }
    Scope span(spans, "env_teardown", "core");
    const double t0 = wall_now();
    scsq.reset();
    r.teardown_s = wall_now() - t0;
  } catch (const std::exception& e) {
    r.rec.outcome.error = e.what();
  }
  return r;
}

void run_sweep_pass(const Workload& w, unsigned threads, SpanRecorder* spans, PassResult& pass) {
  std::vector<PointRun> runs;
  {
    Scope sweep(spans, "run_sweep", "util");
    const std::uint32_t parent = sweep.id();
    runs = scsq::util::run_sweep(
        w.points, [&](const Point& p) { return run_point(p, spans, parent); }, threads);
  }
  pass.stmts.reserve(runs.size());
  for (auto& r : runs) {
    pass.setup_s += r.build_s;
    pass.teardown_s += r.teardown_s;
    pass.layer.add(r.layer);
    pass.stmts.push_back(std::move(r.rec));
  }
  pass.builds = runs.size();
}

// The script workload: one environment, the script parsed and run
// script_reps times back to back, as the interactive shell would.
void run_script_pass(const Workload& w, SpanRecorder* spans, PassResult& pass) {
  const std::size_t k = w.points.size();
  pass.stmts.resize(k * static_cast<std::size_t>(w.script_reps));
  std::optional<scsq::Scsq> scsq;
  {
    Scope span(spans, "env_build", "core");
    const double t0 = wall_now();
    scsq.emplace(config_for(w.cost, 64 * 1024, 2));
    pass.setup_s = wall_now() - t0;
    pass.builds = 1;
  }
  scsq::sim::PerfCounters before = scsq->sim().perf();
  for (int rep = 0; rep < w.script_reps; ++rep) {
    StmtRecord* recs = &pass.stmts[static_cast<std::size_t>(rep) * k];
    std::vector<scsq::scsql::Statement> statements;
    try {
      Scope span(spans, "parse_script", "scsql");
      const double t0 = wall_now();
      statements = scsq::scsql::parse_script(w.script);
      const double per_statement = (wall_now() - t0) / static_cast<double>(k);
      for (std::size_t j = 0; j < k; ++j) recs[j].parse_s = per_statement;
    } catch (const std::exception& e) {
      for (std::size_t j = 0; j < k; ++j) recs[j].outcome.error = e.what();
      continue;
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (statements.size() != k) {
        recs[j].outcome.error = "script has " + std::to_string(statements.size()) +
                                " statements, expected " + std::to_string(k);
        continue;
      }
      execute(*scsq, statements[j], recs[j], spans, before);
      before = scsq->sim().perf();
    }
  }
  if (spans != nullptr) {
    Scope span(spans, "read_counters", "obs");
    scsq->machine().publish_metrics();
    pass.layer = read_counters(scsq->machine().metrics());
  }
  Scope span(spans, "env_teardown", "core");
  const double t0 = wall_now();
  scsq.reset();
  pass.teardown_s = wall_now() - t0;
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void LayerCounters::add(const LayerCounters& o) {
  events += o.events;
  wakeups += o.wakeups;
  channel_waits += o.channel_waits;
  callbacks_run += o.callbacks_run;
  peak_queue_depth = std::max(peak_queue_depth, o.peak_queue_depth);
  mpi_frames += o.mpi_frames;
  tcp_frames += o.tcp_frames;
  link_bytes += o.link_bytes;
  link_stalls += o.link_stalls;
  pool_acquired += o.pool_acquired;
  pool_reused += o.pool_reused;
  torus_messages += o.torus_messages;
  torus_packets += o.torus_packets;
  tree_inbound += o.tree_inbound;
}

std::vector<StmtOutcome> PassResult::outcomes() const {
  std::vector<StmtOutcome> out;
  out.reserve(stmts.size());
  for (const auto& s : stmts) out.push_back(s.outcome);
  return out;
}

PassResult run_pass(const Workload& w, unsigned threads, SpanRecorder* spans) {
  PassResult pass;
  const auto coro0 = scsq::sim::coro_pool_stats();
  const std::uint64_t allocs0 = heap_allocs();
  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  {
    Scope span(spans, "pass", "bench");
    if (w.long_lived) {
      run_script_pass(w, spans, pass);
    } else {
      run_sweep_pass(w, threads, spans, pass);
    }
  }
  pass.wall_s = wall_now() - wall0;
  pass.cpu_s = cpu_now() - cpu0;
  pass.heap_allocs = heap_allocs() - allocs0;
  // Sweep workers have exited by now, so their pool counts are retired
  // into the process-wide totals this thread reads.
  const auto coro1 = scsq::sim::coro_pool_stats();
  pass.coro_chunk_allocs = coro1.chunk_allocs - coro0.chunk_allocs;
  pass.coro_bucket_reused = coro1.bucket_reused - coro0.bucket_reused;
  for (const auto& s : pass.stmts) {
    pass.sim_events += s.outcome.perf.events_dispatched;
    pass.stmt_ms.push_back(s.run_s * 1e3);
  }
  pass.stmt_ms_p50 = percentile(pass.stmt_ms, 0.50);
  pass.stmt_ms_p95 = percentile(pass.stmt_ms, 0.95);
  return pass;
}

double probe_event_ns(std::size_t depth, std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr int kProbes = 5;
  struct State {
    scsq::sim::Simulator* sim = nullptr;
    std::uint64_t left = 0;
    std::vector<double> delays;
    std::size_t next = 0;
  };
  // Each dispatched callback schedules one successor until the budget is
  // spent, so the pending set stays at `depth` for the whole probe.
  struct Tick {
    State* s;
    void operator()() const {
      if (s->left == 0) return;
      --s->left;
      s->sim->call_at(s->sim->now() + s->delays[s->next++ % s->delays.size()], Tick{s});
    }
  };
  scsq::util::Rng rng(seed);
  std::vector<double> delays(4096);
  for (auto& d : delays) d = rng.uniform(1e-6, 1e-4);
  std::vector<double> ns;
  for (int probe = 0; probe < kProbes; ++probe) {
    scsq::sim::Simulator sim;
    State state{&sim, kEvents, delays, 0};
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
      sim.call_at(delays[i % delays.size()], Tick{&state});
    }
    const double t0 = wall_now();
    sim.run();
    const double t = wall_now() - t0;
    ns.push_back(t * 1e9 / static_cast<double>(sim.perf().events_dispatched));
  }
  return median(ns);
}

double probe_marshal_mb_s(bool with_text) {
  using scsq::catalog::Object;
  std::vector<Object> objects;
  for (std::uint64_t i = 0; i < 64; ++i) {
    objects.emplace_back(scsq::catalog::SynthArray{3'000'000, i});
    objects.emplace_back(static_cast<std::int64_t>(i));
  }
  if (with_text) {
    for (int i = 1; i <= 50; ++i) {
      for (auto& line : scsq::funcs::grep_file("pulsar", scsq::funcs::filename_for(i))) {
        objects.emplace_back(std::move(line));
      }
    }
  }
  std::vector<std::uint8_t> buf;
  std::vector<double> rates;
  std::size_t decoded = 0;
  for (int sample = 0; sample < 5; ++sample) {
    std::uint64_t bytes = 0;
    const double t0 = wall_now();
    double t = 0.0;
    do {
      for (int round = 0; round < 16; ++round) {
        buf.clear();
        for (const auto& o : objects) scsq::transport::marshal(o, buf);
        std::size_t offset = 0;
        while (offset < buf.size()) {
          decoded += scsq::transport::unmarshal(buf, offset).kind() != scsq::catalog::Kind::kNull;
        }
        bytes += buf.size();
      }
      t = wall_now() - t0;
    } while (t < 0.02);
    rates.push_back(static_cast<double>(bytes) / t / 1e6);
  }
  // Every object decodes to a non-null kind; the count keeps the decode live.
  return decoded > 0 ? median(rates) : 0.0;
}

}  // namespace perfbench
