// The simulated LOFAR hardware environment (paper Fig. 1): a front-end
// Linux cluster, a back-end Linux cluster, and a BlueGene partition,
// joined by a Gigabit Ethernet fabric. The BlueGene internally has a 3D
// torus between compute nodes and a tree network from each pset's I/O
// node to its compute nodes.
//
// Machine is the single composition root: it owns the simulator-attached
// networks and per-node resources, tracks inbound TCP streams (for the
// I/O coordination and compute-multiplexing factors of Fig. 15), and
// exposes the per-cluster CNDBs used by the coordinators' node
// selection.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/cndb.hpp"
#include "hw/cost_model.hpp"
#include "hw/location.hpp"
#include "net/ethernet.hpp"
#include "obs/metrics.hpp"
#include "net/topology.hpp"
#include "net/torus_net.hpp"
#include "net/tree_net.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "transport/frame.hpp"

namespace scsq::hw {

/// A Linux cluster: N dual-CPU hosts on the Ethernet fabric.
class LinuxCluster {
 public:
  LinuxCluster(sim::Simulator& sim, net::EthernetFabric& fabric, std::string name,
               int node_count, const NodeParams& params);

  int node_count() const { return static_cast<int>(cpus_.size()); }
  sim::Resource& cpu(int node) { return *cpus_.at(node); }
  int fabric_host(int node) const { return hosts_.at(node); }
  const NodeParams& params() const { return params_; }
  const std::string& name() const { return name_; }
  Cndb& cndb() { return cndb_; }

 private:
  std::string name_;
  NodeParams params_;
  std::vector<std::unique_ptr<sim::Resource>> cpus_;
  std::vector<int> hosts_;
  Cndb cndb_;
};

/// The BlueGene partition: torus + tree + per-compute-node CPU, plus the
/// fabric hosts of its I/O nodes.
class BlueGene {
 public:
  BlueGene(sim::Simulator& sim, net::EthernetFabric& fabric, const CostModel& cost);

  int compute_node_count() const { return static_cast<int>(cpus_.size()); }
  int pset_of(int rank) const { return cndb_.pset_of(rank); }
  int pset_count() const { return static_cast<int>(io_hosts_.size()); }

  net::TorusNetwork& torus() { return *torus_; }
  net::TreeNetwork& tree() { return *tree_; }
  /// The compute CPU of a node (the second CPU is the communication
  /// co-processor owned by TorusNetwork).
  sim::Resource& compute_cpu(int rank) { return *cpus_.at(rank); }
  int io_fabric_host(int pset) const { return io_hosts_.at(pset); }
  const NodeParams& params() const { return params_; }
  Cndb& cndb() { return cndb_; }

 private:
  NodeParams params_;
  std::unique_ptr<net::TorusNetwork> torus_;
  std::unique_ptr<net::TreeNetwork> tree_;
  std::vector<std::unique_ptr<sim::Resource>> cpus_;
  std::vector<int> io_hosts_;
  Cndb cndb_;
};

class Machine {
 public:
  explicit Machine(sim::Simulator& sim, CostModel cost = CostModel::lofar());

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Simulator& sim() { return *sim_; }
  const CostModel& cost() const { return cost_; }
  net::EthernetFabric& fabric() { return *fabric_; }
  LinuxCluster& fe() { return *fe_; }
  LinuxCluster& be() { return *be_; }
  BlueGene& bg() { return *bg_; }

  /// True if `cluster` names a known cluster ("fe", "be", "bg").
  bool has_cluster(const std::string& cluster) const;
  Cndb& cndb(const std::string& cluster);
  int node_count(const std::string& cluster) const;

  /// The compute CPU resource an RP at `loc` charges operator work to.
  sim::Resource& cpu_of(const Location& loc);
  /// Node CPU cost parameters at `loc`.
  const NodeParams& node_params(const Location& loc) const;

  /// Fabric host carrying TCP traffic for `loc`: the node's own NIC on
  /// Linux clusters, the pset's I/O node for BlueGene compute nodes
  /// (CNK cannot open sockets; all external traffic goes via the I/O
  /// node, paper §2.1).
  int fabric_host_of(const Location& loc) const;

  // --- Inbound TCP stream tracking (Fig. 15 coordination factors) ---

  /// Registers/unregisters a live inbound TCP stream terminating at
  /// BlueGene compute node `rank`.
  void register_bg_inbound(int rank);
  void unregister_bg_inbound(int rank);

  /// 1 + io_coord_coeff * (distinct external hosts streaming into the
  /// BlueGene - 1).
  double io_coordination_factor() const;

  /// 1 + compute_mux_coeff * (inbound streams at `rank` - 1).
  double compute_mux_factor(int rank) const;

  /// Attaches a trace to the interesting contended resources (BlueGene
  /// co-processors and compute CPUs, I/O-node CPUs, tree links, cluster
  /// CPUs and NICs). Pass nullptr to detach. Busy episodes then appear
  /// on per-resource tracks in the Chrome tracing export. The engine and
  /// transport layer read the attached trace back via trace() to add
  /// stream-process lifecycle instants and frame flow arrows.
  void set_trace(sim::Trace* trace);

  /// The trace attached by set_trace (nullptr when tracing is off).
  sim::Trace* trace() { return trace_; }

  // --- Metrics ---

  /// The environment-wide metrics registry. Always present; instruments
  /// (links, drivers, engine) register labeled counters at wiring time.
  obs::Registry& metrics() { return metrics_; }

  /// The machine's frame recycling pool. Its counters are published as
  /// transport.frame_pool.* — on a steady-state stream, acquired -
  /// reused stays flat: the zero-churn invariant.
  transport::FramePool& frame_pool() { return frame_pool_; }

  /// Publishes the pull-style metrics that are not maintained
  /// incrementally: per-hop torus/tree utilization and busy seconds, and
  /// the simulation kernel's PerfCounters. Call right before
  /// snapshotting the registry (exporters, bench records, \metrics).
  void publish_metrics();

 private:
  sim::Simulator* sim_;
  CostModel cost_;
  std::unique_ptr<net::EthernetFabric> fabric_;
  std::unique_ptr<LinuxCluster> fe_;
  std::unique_ptr<LinuxCluster> be_;
  std::unique_ptr<BlueGene> bg_;
  std::vector<int> bg_inbound_streams_;  // per compute rank
  transport::FramePool frame_pool_;
  obs::Registry metrics_;
  sim::Trace* trace_ = nullptr;
};

}  // namespace scsq::hw
