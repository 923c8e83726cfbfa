// The benchmark's four workloads and the checks on their outputs.
//
// Every statement is one operation. The expected value of each statement
// and every bound it is checked against are computed here, apart from
// the program: from the query's own parameters, from the physical link
// rates in hw::CostModel, or from an independent substring count over the
// grep corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/cost_model.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// One SCSQL statement with what its result must satisfy.
struct Point {
  std::string text;
  scsq::hw::CostModel cost;
  std::uint64_t buffer_bytes = 64 * 1024;
  int send_buffers = 2;
  std::int64_t expected = 0;     ///< the count the statement must return
  std::uint64_t payload = 0;     ///< stream payload the statement requests
  double limit_mbps = 0.0;       ///< physical bandwidth bound, 0 = none
  int series = 0;                ///< curve the point belongs to (shape checks)
  std::uint64_t x = 0;           ///< the curve's x value (buffer bytes or n)
};

struct Workload {
  std::string name;
  /// Statements of one pass. Sweep workloads run each on a fresh Scsq;
  /// the script workload runs them in order on one long-lived Scsq.
  std::vector<Point> points;
  unsigned threads = 1;      ///< sweep threads (util::run_sweep)
  bool long_lived = false;   ///< one Scsq per pass instead of one per statement
  std::string script;        ///< long_lived: the script parsed each repetition
  int script_reps = 0;       ///< long_lived: repetitions of the script per pass
  scsq::hw::CostModel cost;  ///< long_lived: the environment's cost model
};

/// Builds a workload's inputs from the seed. `root` is the checkout root
/// (the script workload reads its frozen copy of the paper's queries).
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, const std::string& root,
                       unsigned threads);

/// What one statement produced, as the benchmark saw it.
struct StmtOutcome {
  std::string error;  ///< exception text; empty when the statement ran
  std::int64_t count = -1;
  double elapsed_s = 0.0;
  std::uint64_t stream_bytes = 0;
  scsq::sim::PerfCounters perf;  ///< this statement's kernel counters
  bool failed = false;
  std::string why;  ///< first failed check
};

/// Runs every output check on one pass and sets `failed`/`why` on the
/// statements that fail one. A shape property that fails marks every
/// statement of the curve it fails on.
void check_pass(const Workload& workload, std::vector<StmtOutcome>& outcomes);

/// Marks statements whose simulated results differ from `reference`
/// (same workload, other pass or other thread count): results, elapsed
/// time bit for bit, stream bytes and every kernel counter.
void check_identical(const std::vector<StmtOutcome>& reference,
                     std::vector<StmtOutcome>& outcomes, const char* what);

}  // namespace perfbench
