// BlueGene tree (collective) network between I/O nodes and the compute
// nodes of their pset, plus the I/O-node forwarding CPU.
//
// On BlueGene/L all external TCP traffic is forwarded by the pset's I/O
// node (the CIOD daemon) over the 2.8 Gbit/s tree network; compute nodes
// cannot open sockets (CNK has no listen()/accept()/select()). The
// forwarding CPU is the slow element of the inbound path — this is why
// the paper's Queries 1–4 saturate far below the GigE line rate and why
// "a considerable amount of I/O nodes must be designated to handle input
// streams".
//
// The caller supplies two cost factors per message:
//  * io_factor — I/O-node coordination with distinct external senders
//    (Fig. 15: Query 5 beats Query 6, Query 1 beats Query 2);
//  * compute_factor — receive multiplexing on the destination compute
//    node when many streams converge on it (Fig. 15: Queries 3/4 gain a
//    little over 1/2 by spreading receivers).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace scsq::net {

struct TreeParams {
  double link_bandwidth_Bps = 350e6;       // 2.8 Gbit/s tree network
  double io_forward_per_byte_s = 23.8e-9;  // CIOD forwarding (~336 Mbit/s cap)
  double io_per_message_overhead_s = 30e-6;
  double compute_recv_per_byte_s = 26.7e-9;  // compute-side ingest (~300 Mbit/s cap)
  double compute_per_message_overhead_s = 20e-6;
};

class TreeNetwork {
 public:
  /// One I/O node (and one tree subtree) per pset; one ingest processor
  /// per compute node.
  TreeNetwork(sim::Simulator& sim, int pset_count, int compute_count, TreeParams params);

  TreeNetwork(const TreeNetwork&) = delete;
  TreeNetwork& operator=(const TreeNetwork&) = delete;

  /// Forwards one inbound message through pset `pset`'s I/O node to
  /// compute node `compute_rank`. Completes when the compute node has
  /// ingested the message.
  sim::Task<void> forward_inbound(int pset, int compute_rank, std::uint64_t bytes,
                                  double io_factor, double compute_factor);

  /// Forwards one outbound message from `compute_rank` through its
  /// pset's I/O node (compute egress cost, tree, I/O CPU).
  sim::Task<void> forward_outbound(int pset, int compute_rank, std::uint64_t bytes,
                                   double io_factor);

  sim::Resource& io_cpu(int pset) { return *io_cpus_.at(pset); }
  sim::Resource& tree_link(int pset) { return *tree_links_.at(pset); }
  sim::Resource& compute_ingest(int compute_rank) { return *ingest_.at(compute_rank); }

  int pset_count() const { return static_cast<int>(io_cpus_.size()); }
  const TreeParams& params() const { return params_; }

  /// Publishes per-hop utilization into the registry: tree.io_cpu.* and
  /// tree.link.* gauges per pset, tree.ingest.* per compute node with
  /// traffic, and tree.inbound/outbound message+byte counters. Message
  /// totals are plain member increments on the forward path; the
  /// registry is only touched here.
  void publish_metrics(obs::Registry& registry) const;

 private:
  sim::Simulator* sim_;
  TreeParams params_;
  std::vector<std::unique_ptr<sim::Resource>> io_cpus_;
  std::vector<std::unique_ptr<sim::Resource>> tree_links_;
  std::vector<std::unique_ptr<sim::Resource>> ingest_;
  // Message totals (publish_metrics).
  struct Counters {
    std::uint64_t inbound_messages = 0;
    std::uint64_t inbound_bytes = 0;
    std::uint64_t outbound_messages = 0;
    std::uint64_t outbound_bytes = 0;
  };
  Counters counters_;
};

}  // namespace scsq::net
