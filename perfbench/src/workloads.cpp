#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "funcs/textgen.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kArrayBytes = 3'000'000;  // the paper's 3 MB arrays

// Pass make-up. Each sweep workload repeats its sweep so that a pass has
// at least 200 statements, which puts ten or more statements beyond the
// 95th percentile of one pass.
const std::vector<std::uint64_t> kFig6Buffers = {64,    100,   200,    400,    700,   1000,
                                                 1500,  2000,  3000,   5000,   10000, 20000,
                                                 50000, 100000, 200000, 500000, 1000000};
constexpr int kFig6Reps = 6;                     // 17 buffers x 2 modes x 6 = 204
constexpr std::uint64_t kFig6FrameCap = 12'000;  // frames per statement, at most ~
constexpr int kFig6MaxArrays = 10;

const std::vector<std::uint64_t> kFig8Buffers = {1000,   3000,   10000, 30000,
                                                 100000, 300000, 1000000};
constexpr int kFig8Reps = 8;  // 7 buffers x 2 placements x 2 modes x 8 = 224
constexpr int kFig8Arrays = 3;

constexpr int kFig15MaxN = 8;
constexpr int kFig15Reps = 5;  // 6 queries x 8 n x 5 = 240
constexpr int kFig15Arrays = 4;

constexpr int kScriptReps = 34;  // 6 statements x 34 = 204

// A 64-bit mix (splitmix64 finalizer) so that nearby seeds and indices
// give unrelated jitter streams.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The figure benches' own cost jitter and query texts (bench/common.cpp),
// so the benchmark runs exactly the statements the figure tables come from.
scsq::hw::CostModel jittered(std::uint64_t seed) {
  return scsq::bench::jittered(scsq::hw::CostModel::lofar(), seed);
}

double torus_link_mbps(const scsq::hw::CostModel& c) { return c.torus.link_bandwidth_Bps * 8e-6; }
double nic_mbps(const scsq::hw::CostModel& c) { return c.ethernet.nic_bandwidth_Bps * 8e-6; }

int fig6_arrays(std::uint64_t buffer) {
  const std::uint64_t arrays = kFig6FrameCap * buffer / kArrayBytes;
  return static_cast<int>(std::clamp<std::uint64_t>(arrays, 1, kFig6MaxArrays));
}

Workload fig6_p2p(std::uint64_t seed) {
  Workload w;
  w.name = "fig6_p2p";
  w.threads = 1;
  std::uint64_t index = 0;
  for (int rep = 0; rep < kFig6Reps; ++rep) {
    // Smallest buffers first: they carry the most frames.
    for (auto buf : kFig6Buffers) {
      for (int mode = 1; mode <= 2; ++mode) {
        const int arrays = fig6_arrays(buf);
        Point p;
        p.text = scsq::bench::p2p_query(kArrayBytes, arrays);
        p.cost = jittered(mix(seed, index++));
        p.buffer_bytes = buf;
        p.send_buffers = mode;
        p.expected = arrays;
        p.payload = kArrayBytes * static_cast<std::uint64_t>(arrays);
        p.limit_mbps = torus_link_mbps(p.cost);
        p.series = mode;
        p.x = buf;
        w.points.push_back(std::move(p));
      }
    }
  }
  return w;
}

// series = 10 * placement (1 sequential, 2 balanced) + send buffers.
Workload fig8_merge_parallel(std::uint64_t seed, unsigned threads) {
  Workload w;
  w.name = "fig8_merge_parallel";
  w.threads = threads;
  struct Placement {
    int series, x, y;
  };
  const Placement placements[] = {{1, 1, 2}, {2, 1, 4}};
  std::uint64_t index = 0;
  for (int rep = 0; rep < kFig8Reps; ++rep) {
    for (auto buf : kFig8Buffers) {
      for (const auto& pl : placements) {
        for (int mode = 1; mode <= 2; ++mode) {
          Point p;
          p.text = scsq::bench::merge_query(pl.x, pl.y, kArrayBytes, kFig8Arrays);
          p.cost = jittered(mix(seed, index++));
          p.buffer_bytes = buf;
          p.send_buffers = mode;
          p.expected = 2 * kFig8Arrays;
          p.payload = 2 * kArrayBytes * kFig8Arrays;
          // Two producers, each limited by the rate of one torus link.
          p.limit_mbps = 2 * torus_link_mbps(p.cost);
          p.series = 10 * pl.series + mode;
          p.x = buf;
          w.points.push_back(std::move(p));
        }
      }
    }
  }
  return w;
}

Workload fig15_inbound(std::uint64_t seed) {
  Workload w;
  w.name = "fig15_inbound";
  w.threads = 1;
  std::uint64_t index = 0;
  for (int rep = 0; rep < kFig15Reps; ++rep) {
    for (int n = 1; n <= kFig15MaxN; ++n) {
      for (int qn = 1; qn <= 6; ++qn) {
        Point p;
        p.text = scsq::bench::inbound_query(qn, n, kArrayBytes, kFig15Arrays);
        p.cost = jittered(mix(seed, index++));
        p.buffer_bytes = 64 * 1024;  // TCP path: the stack buffers
        p.send_buffers = 2;
        p.expected = static_cast<std::int64_t>(n) * kFig15Arrays;
        p.payload = static_cast<std::uint64_t>(n) * kArrayBytes * kFig15Arrays;
        // Every inbound byte crosses the NIC of an I/O node: one for
        // Q1-Q4, one per pset reached (at most all of them) for Q5/Q6.
        const int io_nodes = qn <= 4 ? 1 : std::min(n, p.cost.io_node_count);
        p.limit_mbps = io_nodes * nic_mbps(p.cost);
        p.series = qn;
        p.x = static_cast<std::uint64_t>(n);
        w.points.push_back(std::move(p));
      }
    }
  }
  return w;
}

// Lines containing "pulsar" in the grep statement's 50 files, counted by
// the benchmark's own substring search.
std::int64_t count_grep_matches() {
  std::int64_t matches = 0;
  for (int i = 1; i <= 50; ++i) {
    for (const auto& line : scsq::funcs::file_lines(scsq::funcs::filename_for(i))) {
      if (line.find("pulsar") != std::string::npos) ++matches;
    }
  }
  return matches;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// The frozen copy of examples/paper_queries.scsql: p2p (10 arrays), two
// merges (2 x 10), Query 1 and Query 5 at n = 4 (4 x 10), and the grep.
Workload paper_script(std::uint64_t seed, const std::string& root) {
  Workload w;
  w.name = "paper_script";
  w.long_lived = true;
  w.script = read_file(root + "/perfbench/paper_queries.scsql");
  w.script_reps = kScriptReps;
  w.cost = jittered(mix(seed, 0));
  const double torus = torus_link_mbps(w.cost);
  const double nic = nic_mbps(w.cost);
  struct Expect {
    std::int64_t count;
    std::uint64_t payload;
    double limit;
  };
  const Expect expect[] = {
      {10, 10 * kArrayBytes, torus},
      {20, 20 * kArrayBytes, 2 * torus},
      {20, 20 * kArrayBytes, 2 * torus},
      {40, 40 * kArrayBytes, nic},  // Query 1: one I/O node
      {40, 40 * kArrayBytes, std::min(4, w.cost.io_node_count) * nic},  // Query 5, n = 4
      {count_grep_matches(), 0, 0.0},
  };
  for (const auto& e : expect) {
    Point p;
    p.cost = w.cost;
    p.expected = e.count;
    p.payload = e.payload;
    p.limit_mbps = e.limit;
    w.points.push_back(std::move(p));
  }
  return w;
}

double mbps(const Point& p, const StmtOutcome& o) {
  return static_cast<double>(p.payload) * 8.0 / o.elapsed_s / 1e6;
}

void fail(StmtOutcome& o, const std::string& why) {
  if (!o.failed) o.why = why;
  o.failed = true;
}

// Mean bandwidth per (series, x) over the pass's repetitions.
using Curve = std::map<std::uint64_t, double>;

std::map<int, Curve> curves(const Workload& w, const std::vector<StmtOutcome>& out) {
  std::map<int, std::map<std::uint64_t, std::pair<double, int>>> acc;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].error.empty() || out[i].elapsed_s <= 0.0) continue;
    auto& a = acc[w.points[i].series][w.points[i].x];
    a.first += mbps(w.points[i], out[i]);
    a.second += 1;
  }
  std::map<int, Curve> result;
  for (const auto& [series, xs] : acc) {
    for (const auto& [x, a] : xs) result[series][x] = a.first / a.second;
  }
  return result;
}

// Marks every statement of `series` (all of them when series < 0).
void fail_series(const Workload& w, std::vector<StmtOutcome>& out, int series,
                 const std::string& why) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (series < 0 || w.points[i].series == series) fail(out[i], why);
  }
}

void check_fig6_shape(const Workload& w, std::vector<StmtOutcome>& out) {
  auto c = curves(w, out);
  for (int mode = 1; mode <= 2; ++mode) {
    const Curve& curve = c[mode];
    if (curve.empty()) continue;
    const auto peak = std::max_element(curve.begin(), curve.end(), [](auto& a, auto& b) {
      return a.second < b.second;
    });
    if (peak->first != 1000) {
      fail_series(w, out, mode,
                  "fig6 peak at " + std::to_string(peak->first) + " B, not 1000 B");
    }
  }
  for (const auto& [buf, single] : c[1]) {
    if (buf >= 1000 && c[2].count(buf) && c[2][buf] < single) {
      fail_series(w, out, 2,
                  "fig6 double < single buffering at " + std::to_string(buf) + " B");
    }
  }
}

void check_fig8_shape(const Workload& w, std::vector<StmtOutcome>& out) {
  auto c = curves(w, out);
  for (int mode = 1; mode <= 2; ++mode) {
    for (const auto& [buf, seq] : c[10 + mode]) {
      if (buf >= 10000 && c[20 + mode].count(buf) && c[20 + mode][buf] < seq) {
        fail_series(w, out, 20 + mode,
                    "fig8 balanced < sequential at " + std::to_string(buf) + " B");
      }
    }
  }
}

void check_fig15_shape(const Workload& w, std::vector<StmtOutcome>& out) {
  auto c = curves(w, out);
  const Curve& q5 = c[5];
  for (const auto& [n, bw] : q5) {
    if (n < 2) continue;
    for (int q = 1; q <= 4; ++q) {
      if (c[q].count(n) && c[q][n] >= bw) {
        fail_series(w, out, 5,
                    "fig15 Q5 <= Q" + std::to_string(q) + " at n=" + std::to_string(n));
      }
    }
  }
  if (q5.count(4) && q5.count(5) && !(q5.at(5) < q5.at(4))) {
    fail_series(w, out, 5, "fig15 Q5 does not dip at n=5");
  }
}

// Repetitions of one statement on the long-lived engine start at
// different phases of the 1 ms bgCC poll clock, so they agree within 1%
// rather than exactly.
void check_script_repeats(const Workload& w, std::vector<StmtOutcome>& out) {
  const std::size_t k = w.points.size();
  for (std::size_t i = k; i < out.size(); ++i) {
    const double first = out[i % k].elapsed_s;
    if (std::fabs(out[i].elapsed_s - first) > 0.01 * first) {
      fail(out[i], "elapsed differs from the first repetition by more than 1%");
    }
  }
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, const std::string& root,
                       unsigned threads) {
  if (name == "fig6_p2p") return fig6_p2p(seed);
  if (name == "fig15_inbound") return fig15_inbound(seed);
  if (name == "fig8_merge_parallel") return fig8_merge_parallel(seed, threads);
  if (name == "paper_script") return paper_script(seed, root);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void check_pass(const Workload& w, std::vector<StmtOutcome>& out) {
  const std::size_t k = w.points.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Point& p = w.points[i % k];
    StmtOutcome& o = out[i];
    if (!o.error.empty()) {
      fail(o, o.error);
    } else if (o.count != p.expected) {
      fail(o, "count " + std::to_string(o.count) + " != " + std::to_string(p.expected));
    } else if (o.stream_bytes < p.payload) {
      fail(o, "stream bytes below the requested payload");
    } else if (!(o.elapsed_s > 0.0)) {
      fail(o, "non-positive simulated elapsed time");
    } else if (p.limit_mbps > 0.0 && mbps(p, o) > p.limit_mbps) {
      fail(o, "bandwidth above the physical limit");
    }
  }
  if (w.name == "fig6_p2p") check_fig6_shape(w, out);
  if (w.name == "fig8_merge_parallel") check_fig8_shape(w, out);
  if (w.name == "fig15_inbound") check_fig15_shape(w, out);
  if (w.long_lived) check_script_repeats(w, out);
}

void check_identical(const std::vector<StmtOutcome>& reference,
                     std::vector<StmtOutcome>& out, const char* what) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i >= reference.size()) {
      fail(out[i], std::string("no ") + what + " to compare with");
      continue;
    }
    const auto& a = reference[i];
    const auto& b = out[i];
    const bool same =
        a.error == b.error && a.count == b.count &&
        std::memcmp(&a.elapsed_s, &b.elapsed_s, sizeof(double)) == 0 &&
        a.stream_bytes == b.stream_bytes &&
        a.perf.events_dispatched == b.perf.events_dispatched &&
        a.perf.heap_pushes == b.perf.heap_pushes && a.perf.fifo_pushes == b.perf.fifo_pushes &&
        a.perf.callbacks_run == b.perf.callbacks_run &&
        a.perf.channel_sends == b.perf.channel_sends &&
        a.perf.channel_recvs == b.perf.channel_recvs &&
        a.perf.channel_waits == b.perf.channel_waits && a.perf.wakeups == b.perf.wakeups &&
        a.perf.peak_queue_depth == b.perf.peak_queue_depth;
    if (!same) fail(out[i], std::string("differs from the ") + what);
  }
}

}  // namespace perfbench
