// Bridges the simulation kernel's inline PerfCounters into the metrics
// registry, so kernel event-loop statistics appear next to the per-link
// and per-RP metrics in every exporter snapshot.
//
// The kernel keeps its counters as plain struct members (a registry
// handle per dispatch would be a pointer chase in the hottest loop of
// the repo); this bridge copies them over on demand — call it right
// before snapshotting. Idempotent: counters are set to the kernel's
// cumulative totals, so bridging twice does not double-count.
#pragma once

#include "sim/simulator.hpp"

namespace scsq::obs {

class Registry;

/// Publishes `perf` into `registry` under sim.* metric names.
void bridge_sim_perf(Registry& registry, const sim::PerfCounters& perf);

}  // namespace scsq::obs
