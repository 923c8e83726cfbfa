#include "net/ethernet.hpp"

#include <algorithm>
#include <set>

namespace scsq::net {

EthernetFabric::EthernetFabric(sim::Simulator& sim, EthernetParams params)
    : sim_(&sim), params_(params) {}

int EthernetFabric::add_host(std::string name, bool is_ionode) {
  Host h;
  h.name = std::move(name);
  h.is_ionode = is_ionode;
  h.tx = std::make_unique<sim::Resource>(*sim_, 1, h.name + ".tx");
  h.rx = std::make_unique<sim::Resource>(*sim_, 1, h.name + ".rx");
  hosts_.push_back(std::move(h));
  return static_cast<int>(hosts_.size()) - 1;
}

FlowId EthernetFabric::open_flow(int src, int dst) {
  SCSQ_CHECK(src >= 0 && src < host_count()) << "bad src host " << src;
  SCSQ_CHECK(dst >= 0 && dst < host_count()) << "bad dst host " << dst;
  FlowId id = next_flow_++;
  flows_[id] = Flow{src, dst};
  hosts_[dst].inbound_flows += 1;
  return id;
}

void EthernetFabric::close_flow(FlowId id) {
  auto it = flows_.find(id);
  SCSQ_CHECK(it != flows_.end()) << "close of unknown flow " << id;
  hosts_[it->second.dst].inbound_flows -= 1;
  flows_.erase(it);
}

int EthernetFabric::distinct_senders_to_ionodes() const {
  std::set<int> senders;
  for (const auto& [id, flow] : flows_) {
    if (hosts_[flow.dst].is_ionode) senders.insert(flow.src);
  }
  return static_cast<int>(senders.size());
}

double EthernetFabric::sender_imbalance_factor(int src) const {
  // Destinations this source currently feeds.
  std::set<int> dsts;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == src) dsts.insert(flow.dst);
  }
  if (dsts.size() < 2) return 1.0;
  int lo = INT32_MAX, hi = 0;
  for (int d : dsts) {
    lo = std::min(lo, hosts_[d].inbound_flows);
    hi = std::max(hi, hosts_[d].inbound_flows);
  }
  return 1.0 + params_.imbalance_coeff * static_cast<double>(hi - lo);
}

sim::Task<void> EthernetFabric::transfer(FlowId id, std::uint64_t bytes) {
  int src = -1;
  int dst = -1;
  {
      auto it = flows_.find(id);
    SCSQ_CHECK(it != flows_.end()) << "transfer on unknown flow " << id;
    src = it->second.src;
    dst = it->second.dst;
  }

  const double wire = wire_time(bytes);
  // Sender NIC: per-message overhead plus wire time, inflated by the
  // head-of-line imbalance factor (evaluated per message so it tracks
  // flows opening/closing during a run).
  const double tx_time =
      params_.per_message_overhead_s + wire * sender_imbalance_factor(src);
  co_await tx_nic(src).use(tx_time);
  // Receiver NIC: wire time (the switch is non-blocking; GigE ports are
  // the contended points).
  co_await rx_nic(dst).use(wire);
}

}  // namespace scsq::net
