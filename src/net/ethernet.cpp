#include "net/ethernet.hpp"

#include <algorithm>
#include <climits>

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
  refresh_factors();
  return id;
}

void EthernetFabric::close_flow(FlowId id) {
  auto it = flows_.find(id);
  SCSQ_CHECK(it != flows_.end()) << "close of unknown flow " << id;
  hosts_[it->second.dst].inbound_flows -= 1;
  flows_.erase(it);
  refresh_factors();
}

void EthernetFabric::refresh_factors() {
  distinct_io_senders_ = 0;
  for (int src = 0; src < host_count(); ++src) {
    // Min/max over the destinations `src` feeds come out the same whether
    // a destination fed by several flows is visited once or many times;
    // only "two or more distinct destinations" needs first_dst.
    int first_dst = -1;
    bool multi_dst = false;
    bool feeds_ionode = false;
    int lo = INT_MAX, hi = 0;
    for (const auto& [id, flow] : flows_) {
      if (flow.src != src) continue;
      const Host& d = hosts_[flow.dst];
      if (first_dst < 0) {
        first_dst = flow.dst;
      } else if (flow.dst != first_dst) {
        multi_dst = true;
      }
      lo = std::min(lo, d.inbound_flows);
      hi = std::max(hi, d.inbound_flows);
      if (d.is_ionode) feeds_ionode = true;
    }
    hosts_[src].imbalance =
        multi_dst ? 1.0 + params_.imbalance_coeff * static_cast<double>(hi - lo) : 1.0;
    if (feeds_ionode) ++distinct_io_senders_;
  }
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
  // head-of-line imbalance factor (kept current by open_flow/close_flow,
  // so it tracks flows opening and closing during a run).
  const double tx_time =
      params_.per_message_overhead_s + wire * sender_imbalance_factor(src);
  co_await tx_nic(src).use(tx_time);
  // Receiver NIC: wire time (the switch is non-blocking; GigE ports are
  // the contended points).
  co_await rx_nic(dst).use(wire);
}

}  // namespace scsq::net
