// Host-cost benchmark of SCSQ.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <checkout>] [--commit <id>] [--trace-out <file>]
//
// Runs one workload (see workloads.hpp) in whole passes for at least
// --seconds, after one untimed warm-up pass, and checks every statement
// of every pass. --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced passes and reports the per-layer ones.
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics.
#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "runner.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--root <dir>] [--commit <id>] [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--root") {
        a.root = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) usage("--seconds must be in (0, 600]");
  return a;
}

// Every setting is a default: a pass that inherits an SCSQ_* knob would
// measure something else, so it refuses to run.
void refuse_scsq_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SCSQ_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name = eq ? std::string(*e, static_cast<std::size_t>(eq - *e)) : std::string(*e);
      std::fprintf(stderr, "perfbench: refusing to run: %s is set\n", name.c_str());
      std::exit(2);
    }
  }
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                  &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    return s;
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

template <class Fn>
double median_of(const std::vector<PassResult>& passes, Fn fn) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(static_cast<double>(fn(p)));
  return percentile(std::move(v), 0.5);
}

// The high-water mark of this process image. getrusage's ru_maxrss is not
// used: Linux carries it across exec, so it would report the size of the
// process that launched the benchmark when that one was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> reasons;

  void add(const std::vector<StmtOutcome>& outcomes) {
    for (const auto& o : outcomes) {
      ++attempted;
      if (o.failed) {
        ++failed;
        ++reasons[o.why];
      }
    }
  }
};

// The traced passes must see exactly the simulation the untraced ones
// saw: the registry's kernel counters equal the Simulator::perf() sums,
// and every traced pass reads the same per-module counters.
void check_traced_counters(const PassResult& traced, const LayerCounters& first,
                           std::vector<StmtOutcome>& outcomes) {
  std::uint64_t events = 0, wakeups = 0, waits = 0, callbacks = 0;
  for (const auto& s : traced.stmts) {
    events += s.outcome.perf.events_dispatched;
    wakeups += s.outcome.perf.wakeups;
    waits += s.outcome.perf.channel_waits;
    callbacks += s.outcome.perf.callbacks_run;
  }
  const LayerCounters& c = traced.layer;
  std::string why;
  if (c.events != events || c.wakeups != wakeups || c.channel_waits != waits ||
      c.callbacks_run != callbacks) {
    why = "registry kernel counters differ from Simulator::perf()";
  } else if (!(c == first)) {
    why = "per-module counters differ between traced passes";
  }
  if (why.empty()) return;
  for (auto& o : outcomes) {
    if (!o.failed) o.why = why;
    o.failed = true;
  }
}

// Every host-time metric is taken over all timed passes of the run, so
// it does not depend on how many passes fit in: wall_s, cpu_s and setup_s
// are the median pass, and the statement latencies are percentiles of
// every statement of every timed pass pooled (thousands per run). Each is
// then scaled by `host_scale`, the reference probe time over the run's
// median probe time, which takes out the host's level during the run (see
// README.md, "Host noise"). Work counts are the same in every pass.
std::vector<Metric> end_to_end(const std::vector<PassResult>& passes, double host_scale,
                               double rss_mib) {
  std::vector<double> stmt_ms;
  for (const auto& p : passes) stmt_ms.insert(stmt_ms.end(), p.stmt_ms.begin(), p.stmt_ms.end());
  const auto host = [&passes, host_scale](auto fn) { return median_of(passes, fn) * host_scale; };
  return {
      {"setup_s", host([](const PassResult& p) { return p.setup_s; }), "s"},
      {"wall_s", host([](const PassResult& p) { return p.wall_s; }), "s"},
      {"cpu_s", host([](const PassResult& p) { return p.cpu_s; }), "s"},
      {"stmt_ms_p50", percentile(stmt_ms, 0.50) * host_scale, "ms"},
      {"stmt_ms_p95", percentile(stmt_ms, 0.95) * host_scale, "ms"},
      {"peak_rss_mib", rss_mib, "MiB"},
      {"sim_events", median_of(passes, [](const PassResult& p) { return p.sim_events; }),
       "count"},
      {"heap_allocs", median_of(passes, [](const PassResult& p) { return p.heap_allocs; }),
       "count"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<PassResult>& plain,
                              const std::vector<PassResult>& traced, const SpanRecorder& spans,
                              unsigned threads, std::uint64_t seed) {
  double parse = 0, run = 0, profile = 0, exported = 0, build = 0, teardown = 0;
  double stmts = 0, builds = 0;
  for (const auto& p : traced) {
    build += p.setup_s;
    teardown += p.teardown_s;
    builds += static_cast<double>(p.builds);
    for (const auto& s : p.stmts) {
      parse += s.parse_s;
      run += s.run_s;
      profile += s.profile_s;
      exported += s.export_s;
      stmts += 1;
    }
  }
  const PassResult& t = traced.front();
  const LayerCounters& c = t.layer;
  std::uint64_t rps = 0, batches = 0, items = 0;
  for (const auto& s : t.stmts) {
    rps += s.rps;
    batches += s.batches;
    items += s.batch_items;
  }
  const double plain_wall = median_of(plain, [](const PassResult& p) { return p.wall_s; });
  const double plain_cpu = median_of(plain, [](const PassResult& p) { return p.cpu_s; });
  const double traced_wall = median_of(traced, [](const PassResult& p) { return p.wall_s; });
  const double events = static_cast<double>(t.sim_events);
  const double allocs = median_of(plain, [](const PassResult& p) { return p.heap_allocs; });
  std::vector<Metric> m = {
      {"scsql.parse_us", parse / stmts * 1e6, "us"},
      {"core.env_build_us", build / builds * 1e6, "us"},
      {"core.env_teardown_us", teardown / builds * 1e6, "us"},
      {"exec.run_stmt_ms", run / stmts * 1e3, "ms"},
      {"exec.rps", static_cast<double>(rps), "count"},
      {"plan.batches", static_cast<double>(batches), "count"},
      {"plan.batch_fill", batches > 0 ? static_cast<double>(items) / batches : 0.0,
       "items/batch"},
      {"sim.wakeups", static_cast<double>(c.wakeups), "count"},
      {"sim.channel_waits", static_cast<double>(c.channel_waits), "count"},
      {"sim.callbacks_run", static_cast<double>(c.callbacks_run), "count"},
      {"sim.peak_queue_depth", c.peak_queue_depth, "count"},
      {"sim.coro.chunk_allocs",
       median_of(plain, [](const PassResult& p) { return p.coro_chunk_allocs; }), "count"},
      {"sim.coro.bucket_reused",
       median_of(plain, [](const PassResult& p) { return p.coro_bucket_reused; }), "count"},
      {"sim.cpu_ns_per_event", plain_cpu / events * 1e9, "ns"},
      {"sim.probe_event_ns",
       probe_event_ns(static_cast<std::size_t>(c.peak_queue_depth), seed), "ns"},
      {"transport.mpi_frames", static_cast<double>(c.mpi_frames), "count"},
      {"transport.tcp_frames", static_cast<double>(c.tcp_frames), "count"},
      {"transport.bytes", static_cast<double>(c.link_bytes), "B"},
      {"transport.link.stalls", static_cast<double>(c.link_stalls), "count"},
      {"transport.frame_pool.reuse_ratio",
       c.pool_acquired > 0 ? c.pool_reused / c.pool_acquired : 0.0, "ratio"},
      {"transport.probe_marshal_mb_s", probe_marshal_mb_s(w.long_lived), "MB/s"},
      {"net.torus.messages", static_cast<double>(c.torus_messages), "count"},
      {"net.torus.packets", static_cast<double>(c.torus_packets), "count"},
      {"net.tree.inbound_messages", static_cast<double>(c.tree_inbound), "count"},
      {"obs.profile_ms", profile / stmts * 1e3, "ms"},
      {"obs.export_ms", exported / stmts * 1e3, "ms"},
      {"util.sweep_busy_share", plain_cpu / (plain_wall * threads), "ratio"},
      {"alloc.per_event", allocs / events, "allocs/event"},
      {"trace.overhead_s", traced_wall - plain_wall, "s"},
  };
  const auto self = spans.self_seconds_by_layer();
  for (const char* layer : {"bench", "util", "scsql", "core", "exec", "obs"}) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    m.push_back({std::string(layer) + ".self_ms", s / traced.size() * 1e3, "ms"});
  }
  return m;
}

int run(const Args& args) {
  refuse_scsq_environment();
  const unsigned cores = nproc();
  // The parallel sweep uses 2 threads, never more than the machine has:
  // on a few shared cores, more threads than that measure the scheduler
  // and the other tenants more than the program (see README.md).
  const unsigned sweep_threads = std::min(2u, cores);
  Workload w = make_workload(args.workload, args.seed, args.root, sweep_threads);
  const unsigned threads = w.threads;

  std::printf("# fingerprint {\"nproc\":%u,\"cpu\":\"%s\",\"build_type\":\"%s\",\"commit\":\"%s\"}\n",
              cores, json_escape(cpu_model()).c_str(), PERFBENCH_BUILD_TYPE,
              json_escape(args.commit).c_str());
  std::printf("# workload %s seed %llu: %zu statements per pass on %u thread(s)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.long_lived ? w.points.size() * static_cast<std::size_t>(w.script_reps)
                           : w.points.size(),
              threads);
  std::fflush(stdout);

  Tally tally;
  // Warm-up pass: fills allocator and pool caches, and is the reference
  // every later pass must reproduce exactly. The parallel sweep's warm-up
  // runs on one thread, so thread count must be invisible in the results.
  const PassResult warm = run_pass(w, 1, nullptr);
  const std::vector<StmtOutcome> reference = warm.outcomes();
  {
    auto out = reference;
    check_pass(w, out);
    tally.add(out);
  }
  const char* ref_name = threads > 1 ? "1-thread run" : "warm-up pass";

  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  // Peak RSS is read after a fixed number of passes, not at the end, so it
  // does not grow with the number of passes that fit into the run when a
  // pass strands memory (see sim.coro.chunk_allocs on fig8_merge_parallel).
  constexpr std::size_t kRssPasses = 3;
  double rss_mib = 0.0;
  std::optional<SpanRecorder> spans;
  if (args.trace) spans.emplace();
  const std::size_t min_passes = args.trace ? 2 : kRssPasses;
  const double t0 = std::chrono::duration<double>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
  for (;;) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count() -
                           t0;
    const bool enough = plain.size() >= min_passes && (!args.trace || traced.size() >= min_passes);
    if (enough && elapsed >= args.seconds) break;
    // Traced runs alternate untraced and traced passes, so both see the
    // same host conditions and their difference is the tracing overhead.
    const bool traced_pass = args.trace && traced.size() < plain.size();
    const double probe = traced_pass ? 0.0 : host_probe_s(threads);
    if (!traced_pass && !(probe > 0.0)) throw std::runtime_error("the host-speed probe failed");
    PassResult pass = run_pass(w, threads, traced_pass ? &*spans : nullptr);
    pass.probe_s = probe;
    auto out = pass.outcomes();
    check_pass(w, out);
    check_identical(reference, out, ref_name);
    if (traced_pass) {
      check_traced_counters(pass, traced.empty() ? pass.layer : traced.front().layer, out);
      traced.push_back(std::move(pass));
    } else {
      // Only the pass summary is kept, so the benchmark's own records do
      // not grow the peak RSS it reports.
      pass.stmts.clear();
      pass.stmts.shrink_to_fit();
      plain.push_back(std::move(pass));
      if (plain.size() == kRssPasses) rss_mib = peak_rss_mib();
    }
    tally.add(out);
  }

  const double probe_s = median_of(plain, [](const PassResult& p) { return p.probe_s; });
  std::vector<Metric> metrics =
      args.trace ? per_layer(w, plain, traced, *spans, threads, args.seed)
                 : end_to_end(plain, kReferenceProbeS / probe_s, rss_mib);
  if (args.trace && !args.trace_out.empty()) {
    std::ofstream os(args.trace_out);
    spans->write_chrome_trace(os);
    if (!os) std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
  }

  for (const auto& [why, n] : tally.reasons) {
    std::fprintf(stderr, "perfbench: %llu statement(s) failed: %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
  }
  // Every untraced pass, to show the host noise behind the run's figures.
  for (const auto& p : plain) {
    std::fprintf(stderr, "perfbench: pass probe_s %.6f wall_s %.6f cpu_s %.6f setup_s %.6f p50 %.6f p95 %.6f\n",
                 p.probe_s, p.wall_s, p.cpu_s, p.setup_s, p.stmt_ms_p50, p.stmt_ms_p95);
  }
  std::printf("# host probe %.6f s (median over the run; reference %.3f s)\n", probe_s,
              kReferenceProbeS);
  std::printf("# %zu untraced and %zu traced timed passes, %llu statements attempted\n",
              plain.size(), traced.size(), static_cast<unsigned long long>(tally.attempted));
  for (const auto& m : metrics) {
    std::printf("# %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = tally.failed == 0;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << tally.attempted << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
