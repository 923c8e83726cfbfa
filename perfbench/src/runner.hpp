// One pass of a workload, driven through the program's public entry
// points only: scsql::parse_script, the Scsq constructor and destructor,
// Engine::run_statement, Engine::profile, Machine::publish_metrics with
// the registry's counters, Simulator::perf() and util::run_sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Per-module counters read by name from a machine's metrics registry
/// after Machine::publish_metrics (traced passes only).
struct LayerCounters {
  std::uint64_t events = 0;  ///< sim.events_dispatched
  std::uint64_t wakeups = 0;
  std::uint64_t channel_waits = 0;
  std::uint64_t callbacks_run = 0;
  double peak_queue_depth = 0;
  std::uint64_t mpi_frames = 0;  ///< transport.link.frames{type=mpi}
  std::uint64_t tcp_frames = 0;  ///< transport.link.frames{type=tcp*}
  std::uint64_t link_bytes = 0;
  std::uint64_t link_stalls = 0;
  double pool_acquired = 0;
  double pool_reused = 0;
  std::uint64_t torus_messages = 0;
  std::uint64_t torus_packets = 0;
  std::uint64_t tree_inbound = 0;

  void add(const LayerCounters& o);
  bool operator==(const LayerCounters&) const = default;
};

/// Host-side record of one statement.
struct StmtRecord {
  StmtOutcome outcome;
  std::size_t rps = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_items = 0;
  double parse_s = 0.0;  ///< share of parse_script for this statement
  double run_s = 0.0;    ///< inside Engine::run_statement
  double profile_s = 0.0;
  double export_s = 0.0;  ///< publish_metrics + registry JSON snapshot
};

struct PassResult {
  double wall_s = 0.0;
  double probe_s = 0.0;  ///< host_probe_s, run just before the pass
  double cpu_s = 0.0;
  double setup_s = 0.0;     ///< Scsq construction, summed
  double teardown_s = 0.0;  ///< Scsq destruction, summed
  std::size_t builds = 0;   ///< environments constructed
  double stmt_ms_p50 = 0.0;  ///< statement latency percentiles within the pass
  double stmt_ms_p95 = 0.0;
  std::vector<double> stmt_ms;  ///< every statement's latency, in pass order
  std::uint64_t sim_events = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t coro_chunk_allocs = 0;
  std::uint64_t coro_bucket_reused = 0;
  LayerCounters layer;  ///< traced passes only
  std::vector<StmtRecord> stmts;

  std::vector<StmtOutcome> outcomes() const;
};

/// Runs one pass on `threads` sweep threads (the long-lived workload
/// always runs on the calling thread). With a recorder the pass is traced:
/// spans are recorded and each statement also pays Engine::profile and a
/// registry export, whose counters fill `layer`.
PassResult run_pass(const Workload& workload, unsigned threads, SpanRecorder* spans);

/// The q-quantile of `v` (0 <= q <= 1), interpolating linearly between
/// closest ranks; 0 for an empty vector.
double percentile(std::vector<double> v, double q);

/// Schedule + dispatch cost, in ns per event, of a bare default Simulator
/// held at `depth` pending callbacks. Median of several probes.
double probe_event_ns(std::size_t depth, std::uint64_t seed);

/// Marshal + unmarshal round trip of the objects a workload streams, in
/// MB of encoded bytes per second. With grep lines when `with_text`.
double probe_marshal_mb_s(bool with_text);

}  // namespace perfbench
