#include "net/torus_net.hpp"

#include <algorithm>
#include <cmath>

namespace scsq::net {

TorusNetwork::TorusNetwork(sim::Simulator& sim, Torus3D topology, TorusParams params)
    : sim_(&sim), topology_(topology), params_(params) {
  const int n = topology_.node_count();
  coprocs_.reserve(n);
  for (int i = 0; i < n; ++i) {
    coprocs_.push_back(std::make_unique<sim::Resource>(sim, 1, "coproc" + std::to_string(i)));
  }
  inbound_streams_.assign(n, 0);
  switch_seconds_by_dst_.assign(static_cast<std::size_t>(n), 0.0);
}

std::uint32_t TorusNetwork::packets_for(std::uint64_t payload_bytes) const {
  if (payload_bytes == 0) return 1;  // control messages still cost a packet
  return static_cast<std::uint32_t>((payload_bytes + params_.packet_bytes - 1) /
                                    params_.packet_bytes);
}

double TorusNetwork::wire_time(std::uint64_t payload_bytes) const {
  // A partially filled final packet occupies a full packet slot.
  return static_cast<double>(packets_for(payload_bytes)) * params_.packet_bytes /
         params_.link_bandwidth_Bps;
}

double TorusNetwork::effective_wire_time(std::uint64_t payload_bytes) const {
  const double cf = cache_factor(payload_bytes);
  const double ramp = (cf - 1.0) / (params_.cache_max_factor - 1.0 + 1e-300);
  return wire_time(payload_bytes) * (1.0 + params_.memory_slowdown_max * ramp);
}

double TorusNetwork::cache_factor(std::uint64_t payload_bytes) const {
  if (payload_bytes <= params_.cache_knee_bytes) return 1.0;
  double octaves = std::log2(static_cast<double>(payload_bytes) /
                             static_cast<double>(params_.cache_knee_bytes));
  double ramp = std::min(1.0, octaves / params_.cache_ramp_octaves);
  return 1.0 + (params_.cache_max_factor - 1.0) * ramp;
}

sim::Resource& TorusNetwork::link(int from, int to) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(from) * static_cast<std::uint64_t>(topology_.node_count()) +
      static_cast<std::uint64_t>(to);
  auto it = links_.find(key);
  if (it == links_.end()) {
    it = links_
             .emplace(key, std::make_unique<sim::Resource>(
                               *sim_, 1,
                               "link" + std::to_string(from) + "->" + std::to_string(to)))
             .first;
  }
  return *it->second;
}

void TorusNetwork::register_inbound_stream(int node) {
  inbound_streams_.at(node) += 1;
}

void TorusNetwork::unregister_inbound_stream(int node) {
  auto& n = inbound_streams_.at(node);
  SCSQ_CHECK(n > 0) << "unregister of absent inbound stream at node " << node;
  n -= 1;
}

double TorusNetwork::switch_seconds() const {
  double total = 0.0;
  for (double s : switch_seconds_by_dst_) total += s;
  return total;
}

void TorusNetwork::publish_metrics(obs::Registry& registry) const {
  registry.counter("torus.messages").set_total(tx_.messages);
  registry.counter("torus.packets").set_total(tx_.packets);
  registry.counter("torus.rendezvous_messages").set_total(tx_.rendezvous_messages);
  registry.counter("torus.payload_bytes").set_total(tx_.payload_bytes);
  registry.gauge("torus.coproc.switch_s").set(switch_seconds());
  const int n = topology_.node_count();
  for (const auto& [key, link] : links_) {
    // Publish used links only.
    if (link->busy_seconds() <= 0.0) continue;
    const int from = static_cast<int>(key / static_cast<std::uint64_t>(n));
    const int to = static_cast<int>(key % static_cast<std::uint64_t>(n));
    obs::Labels labels{{"from", std::to_string(from)}, {"to", std::to_string(to)}};
    registry.gauge("torus.link.busy_s", labels).set(link->busy_seconds());
    registry.gauge("torus.link.utilization", labels).set(link->utilization());
  }
  for (int node = 0; node < n; ++node) {
    const double busy = coprocs_[static_cast<std::size_t>(node)]->busy_seconds();
    if (busy <= 0.0) continue;  // 512 idle co-processors would drown the snapshot
    obs::Labels labels{{"node", std::to_string(node)}};
    registry.gauge("torus.coproc.busy_s", labels).set(busy);
    registry.gauge("torus.coproc.utilization", labels)
        .set(coprocs_[static_cast<std::size_t>(node)]->utilization());
  }
}

double TorusNetwork::link_busy_seconds(int from, int to) const {
  const std::uint64_t key =
      static_cast<std::uint64_t>(from) * static_cast<std::uint64_t>(topology_.node_count()) +
      static_cast<std::uint64_t>(to);
  auto it = links_.find(key);
  return it == links_.end() ? 0.0 : it->second->busy_seconds();
}

sim::Task<void> TorusNetwork::transmit(int from, int to, std::uint64_t payload_bytes,
                                       std::uint64_t source_tag) {
  co_await transmit_impl(from, to, payload_bytes, source_tag, nullptr, nullptr);
}

void TorusNetwork::transmit_async(int from, int to, std::uint64_t payload_bytes,
                                  std::uint64_t source_tag, sim::Event* sender_free,
                                  sim::Event* delivered) {
  sim_->spawn(transmit_impl(from, to, payload_bytes, source_tag, sender_free, delivered));
}

sim::Task<void> TorusNetwork::transmit_impl(int from, int to, std::uint64_t payload_bytes,
                                            std::uint64_t source_tag,
                                            sim::Event* sender_free, sim::Event* delivered) {
  const int hops = topology_.hop_distance(from, to);
  const auto npkt = packets_for(payload_bytes);
  const double cf = cache_factor(payload_bytes);
  const double wire = effective_wire_time(payload_bytes);
  const double rendezvous = payload_bytes > params_.eager_limit_bytes
                                ? params_.rendezvous_rtt_per_hop_s * std::max(hops, 1)
                                : 0.0;

  tx_.messages += 1;
  tx_.packets += npkt;
  tx_.payload_bytes += payload_bytes;
  if (rendezvous > 0.0) tx_.rendezvous_messages += 1;

  // Sender co-processor: per-message overhead, rendezvous handshake (the
  // co-processor is busy during the handshake), per-packet handling.
  co_await coproc(from).use(params_.per_message_overhead_s + rendezvous +
                            npkt * params_.send_per_packet_s * cf);

  if (hops == 0) {
    // Self-delivery (not used by real queries, but keeps the model total).
    if (sender_free) sender_free->set();
  }

  // Walk the dimension-ordered route hop by hop (no path vector).
  int at = from;
  for (int i = 0; i < hops; ++i) {
    const int next = topology_.next_hop(at, to);
    co_await link(at, next).use(wire);
    if (i == 0 && sender_free) sender_free->set();
    const bool is_intermediate = (i + 1) < hops;
    if (is_intermediate) {
      // Store-and-forward through the intermediate node's co-processor.
      co_await coproc(next).use(npkt * params_.forward_per_packet_s * cf);
    }
    at = next;
  }

  // Receive handling at the destination. With k live inbound streams,
  // interleaved arrivals make the single-threaded co-processor switch
  // sources on an expected (k-1)/k of the messages.
  (void)source_tag;
  const int streams = std::max(1, inbound_streams_[to]);
  const double switch_cost = params_.source_switch_penalty_s *
                             static_cast<double>(streams - 1) /
                             static_cast<double>(streams);
  switch_seconds_by_dst_[static_cast<std::size_t>(to)] += switch_cost;
  co_await coproc(to).use(npkt * params_.recv_per_packet_s * cf + switch_cost);
  if (delivered) delivered->set();
}

}  // namespace scsq::net
