// Public facade of the SCSQ reproduction.
//
// One Scsq instance owns a complete simulated LOFAR environment (front-
// end cluster, back-end cluster, BlueGene partition) and an execution
// engine. Submit SCSQL scripts with run(); the returned RunReport holds
// the result stream, the simulated elapsed time and per-connection byte
// counts — everything the paper's bandwidth measurements need.
//
// Example:
//   scsq::Scsq scsq;
//   auto report = scsq.run(
//       "select extract(b) from sp a, sp b "
//       "where b=sp(streamof(count(extract(a))),'bg',0) "
//       "and a=sp(gen_array(3000000,100),'bg',1);");
//   // report.results == {100}, report.elapsed_s = simulated query time
#pragma once

#include <string_view>

#include "exec/engine.hpp"
#include "hw/machine.hpp"
#include "sim/simulator.hpp"

namespace scsq {

struct ScsqConfig {
  /// Hardware calibration (defaults: the paper's LOFAR environment).
  hw::CostModel cost = hw::CostModel::lofar();
  /// Execution options (stream buffer size, single/double buffering...).
  exec::ExecOptions exec;
};

class Scsq {
 public:
  explicit Scsq(ScsqConfig config = {})
      : machine_(sim_, config.cost), engine_(machine_, config.exec) {}

  /// Parses and runs an SCSQL script; returns the last query's report.
  /// Throws scsql::Error on syntax/semantic/execution errors.
  exec::RunReport run(std::string_view script) { return engine_.run_script(script); }

  /// Registers a named signal source for the receiver() builtin.
  void register_stream_source(std::string name, std::vector<std::vector<double>> arrays) {
    engine_.register_stream_source(std::move(name), std::move(arrays));
  }

  sim::Simulator& sim() { return sim_; }
  hw::Machine& machine() { return machine_; }
  exec::Engine& engine() { return engine_; }

 private:
  // Declaration order doubles as teardown order: the engine (RPs,
  // drivers) goes first, then the machine (resources), then the
  // Simulator (it holds surviving coroutine frames).
  sim::Simulator sim_;
  hw::Machine machine_;
  exec::Engine engine_;
};

}  // namespace scsq
