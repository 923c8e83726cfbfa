#include "transport/driver.hpp"

namespace scsq::transport {
namespace {

// params.factor(bytes), with the full-buffer value the driver computed
// once standing in for full frames — most of a stream — so only short
// frames (linger flushes, stream tails) pay the cache-factor function.
double frame_factor(const DriverParams& params, double buffer_factor, std::uint64_t bytes) {
  return bytes == params.buffer_bytes ? buffer_factor : params.factor(bytes);
}

}  // namespace

void Link::start_transmit(Frame frame, std::function<void()> on_sender_free) {
  if (split()) {
    sim_->spawn(run_split(std::move(frame), std::move(on_sender_free)));
    return;
  }
  sim_->spawn(run(std::move(frame), std::move(on_sender_free)));
}

sim::Task<void> Link::run(Frame frame, std::function<void()> on_sender_free) {
  const bool eos = frame.eos;
  const std::uint64_t payload = frame.bytes;
  const double t0 = sim_->now();
  if (window_.in_use() >= window_.capacity()) ++batch_.stalls;
  co_await window_.acquire();
  const double window_wait = sim_->now() - t0;
  co_await transmit_one(std::move(frame), std::move(on_sender_free));
  window_.release();
  const double t1 = sim_->now();
  // Scalar accounting batches across the burst of in-flight frames; the
  // histogram observes stay per-frame (quantiles need every sample).
  batch_.frames += 1;
  batch_.payload_bytes += payload;
  batch_.wire_bytes += wire_bytes_for(payload);
  batch_.transit_s += t1 - t0;
  batch_.window_wait_s += window_wait;
  if (metrics_.frame_latency) metrics_.frame_latency->observe(t1 - t0);
  stats_.latency.observe(t1 - t0);
  if (flow_trace_ && !eos) flow_trace_->flow(flow_from_, flow_to_, "frame", t0, t1);
  if (eos) {
    flush_batch();
    stream_ended();
    drained_.set();
  } else if (window_.in_use() == 0) {
    // The burst has fully drained — settle the books while idle.
    flush_batch();
  }
}

void Link::flush_batch() const {
  if (batch_.frames == 0 && batch_.stalls == 0) return;
  stats_.frames += batch_.frames;
  stats_.payload_bytes += batch_.payload_bytes;
  stats_.wire_bytes += batch_.wire_bytes;
  stats_.stalls += batch_.stalls;
  stats_.transit_s += batch_.transit_s;
  stats_.window_wait_s += batch_.window_wait_s;
  if (metrics_.frames) metrics_.frames->inc(batch_.frames);
  if (metrics_.bytes) metrics_.bytes->inc(batch_.payload_bytes);
  if (metrics_.stalls && batch_.stalls) metrics_.stalls->inc(batch_.stalls);
  if (metrics_.stall_seconds) metrics_.stall_seconds->add(batch_.window_wait_s);
  batch_ = StatsBatch{};
}

sim::Task<void> Link::transmit_one(Frame, std::function<void()>) {
  SCSQ_CHECK(false) << "link type '" << type_ << "' has no whole-trip transmit";
  co_return;
}

sim::Task<void> Link::src_transmit(Frame, std::function<void()>, double, double, bool) {
  SCSQ_CHECK(false) << "link type '" << type_ << "' does not support split transmit";
  co_return;
}

sim::Task<void> Link::dst_receive(Frame) {
  SCSQ_CHECK(false) << "link type '" << type_ << "' does not support split receive";
  co_return;
}

void Link::announce_delivery(double at, Frame frame, double t0, double window_wait,
                             bool stalled) {
  int slot = 0;
  while (slot < kWindow && announced_[slot].used) ++slot;
  SCSQ_CHECK(slot < kWindow) << "link '" << type_ << "': more than " << kWindow
                             << " frames announced but undelivered";
  Announcement& a = announced_[slot];
  a.frame = std::move(frame);
  a.t0 = t0;
  a.window_wait = window_wait;
  a.stalled = stalled;
  a.used = true;
  sim_->call_at(at, [this, slot] {
    Announcement& a = announced_[slot];
    a.used = false;
    sim_->spawn(dst_run(std::move(a.frame), a.t0, a.window_wait, a.stalled));
  });
}

sim::Task<void> Link::run_split(Frame frame, std::function<void()> on_sender_free) {
  const double t0 = sim_->now();
  // Same stall truth-value as the whole-trip schedule; accounted in
  // dst_run with the rest of the frame.
  const bool stalled = window_.in_use() >= window_.capacity();
  co_await window_.acquire();
  const double window_wait = sim_->now() - t0;
  co_await src_transmit(std::move(frame), std::move(on_sender_free), t0, window_wait,
                        stalled);
}

sim::Task<void> Link::dst_run(Frame frame, double t0, double window_wait, bool stalled) {
  const bool eos = frame.eos;
  const std::uint64_t payload = frame.bytes;
  co_await dst_receive(std::move(frame));
  const double t1 = sim_->now();
  batch_.frames += 1;
  batch_.payload_bytes += payload;
  batch_.wire_bytes += wire_bytes_for(payload);
  if (stalled) ++batch_.stalls;
  batch_.transit_s += t1 - t0;
  batch_.window_wait_s += window_wait;
  if (metrics_.frame_latency) metrics_.frame_latency->observe(t1 - t0);
  stats_.latency.observe(t1 - t0);
  if (flow_trace_ && !eos) flow_trace_->flow(flow_from_, flow_to_, "frame", t0, t1);
  // Flow-control credit: the window slot frees one modeled round-trip
  // after delivery. The drained event (EOS) rides the same credit.
  sim_->call_at(t1 + credit_latency_s_, [this, eos] {
    window_.release();
    if (eos) drained_.set();
  });
  if (eos) {
    flush_batch();
    stream_ended();
  } else if (batch_.frames >= 16) {
    // Bounded batching: split links never see the window drain to zero
    // at delivery (the credit round-trip keeps slots in flight), so
    // settle the books every 16 frames instead.
    flush_batch();
  }
}

SenderDriver::SenderDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu,
                           std::unique_ptr<Link> link, std::uint64_t producer_tag)
    : sim_(&sim),
      params_(params),
      buffer_factor_(params.factor(params.buffer_bytes)),
      cpu_(&cpu),
      link_(std::move(link)),
      tag_(producer_tag),
      cutter_(params.buffer_bytes, params.frame_pool),
      slots_(sim, params.send_buffers, "sendbuf"),
      outbox_(sim, 1) {
  SCSQ_CHECK(link_ != nullptr) << "sender driver needs a link";
  SCSQ_CHECK(params_.send_buffers >= 1) << "need at least one send buffer";
}

void SenderDriver::ensure_drain() {
  // Lazy: spawned at the first push/finish instead of at construction,
  // so an error between wiring and the drive leaves no un-dispatched
  // coroutine start in the queue. The drain's first action is to park
  // on an empty outbox either way, so the simulated timeline is
  // unchanged.
  if (drain_started_) return;
  drain_started_ = true;
  sim_->spawn(drain());
}

sim::Task<void> SenderDriver::push(catalog::Object obj) {
  SCSQ_CHECK(!finishing_) << "push after finish";
  ensure_drain();
  // Entering active production invalidates any armed linger flush (the
  // cut in the timer callback must never interleave with a push).
  ++linger_generation_;
  // Pushes on one sender are sequential (the producing RP awaits each),
  // so the cut scratch vector is reusable — its capacity persists for
  // the life of the stream and the no-cut common case costs nothing.
  cut_scratch_.clear();
  cutter_.push(std::move(obj), cut_scratch_);
  for (auto& frame : cut_scratch_) {
    co_await outbox_.send(std::move(frame));
  }
  arm_linger();
}

void SenderDriver::arm_linger() {
  const std::uint64_t generation = ++linger_generation_;
  if (params_.linger_s <= 0.0 || cutter_.pending_bytes() == 0) return;
  sim_->call_at(sim_->now() + params_.linger_s, [this, generation] {
    if (generation != linger_generation_ || finishing_) return;
    if (cutter_.pending_bytes() == 0) return;
    if (outbox_.size() > 0 || outbox_.closed()) {
      // Downstream is backed up; retry after another linger period.
      sim_->call_at(sim_->now() + params_.linger_s, [this, generation] {
        if (generation == linger_generation_ && !finishing_) arm_linger_fire();
      });
      return;
    }
    arm_linger_fire();
  });
}

void SenderDriver::arm_linger_fire() {
  if (cutter_.pending_bytes() == 0 || outbox_.size() > 0 || outbox_.closed()) {
    arm_linger();  // conditions changed: start over
    return;
  }
  auto frame = cutter_.cut_partial();
  SCSQ_CHECK(frame.has_value()) << "linger flush with no pending bytes";
  ++linger_generation_;
  // Capacity-1 outbox with size 0 and not closed: cannot fail.
  SCSQ_CHECK(outbox_.try_send(std::move(*frame))) << "linger flush enqueue failed";
}

sim::Task<void> SenderDriver::finish() {
  ensure_drain();
  finishing_ = true;
  ++linger_generation_;  // cancel pending flushes
  co_await outbox_.send(cutter_.finish());
  outbox_.close();
  co_await link_->drained().wait();
}

sim::Task<void> SenderDriver::drain() {
  while (auto frame = co_await outbox_.recv()) {
    frame->producer = tag_;
    // Wait for a free send buffer: with a single buffer this serializes
    // marshal and transmit; with two, marshal of frame i+1 overlaps the
    // transmission of frame i.
    const double wait_start = sim_->now();
    co_await slots_.acquire();
    stall_seconds_ += sim_->now() - wait_start;
    const double marshal_cost =
        static_cast<double>(frame->bytes) * params_.marshal_per_byte_s *
        frame_factor(params_, buffer_factor_, frame->bytes);
    marshal_seconds_ += marshal_cost;
    co_await cpu_->use(marshal_cost);
    link_->start_transmit(std::move(*frame), [this] { slots_.release(); });
  }
}

ReceiverDriver::ReceiverDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu)
    : sim_(&sim),
      params_(params),
      buffer_factor_(params.factor(params.buffer_bytes)),
      cpu_(&cpu),
      inbox_(sim, static_cast<std::size_t>(std::max(params.recv_buffers, 1))) {}

double ReceiverDriver::demarshal_cost(const Frame& frame) const {
  return static_cast<double>(frame.bytes) * params_.marshal_per_byte_s *
             frame_factor(params_, buffer_factor_, frame.bytes) +
         static_cast<double>(frame.objects.size()) * params_.alloc_per_object_s;
}

sim::Task<std::optional<catalog::Object>> ReceiverDriver::next() {
  while (ready_head_ == ready_.size()) {
    if (eos_) co_return std::nullopt;
    const double wait_start = sim_->now();
    auto frame = co_await inbox_.recv();
    wait_seconds_ += sim_->now() - wait_start;
    if (!frame) {  // channel force-closed (teardown)
      eos_ = true;
      co_return std::nullopt;
    }
    bytes_ += frame->bytes;
    const double cost = demarshal_cost(*frame);
    demarshal_seconds_ += cost;
    co_await cpu_->use(cost);
    // ready_ is fully drained here: take the frame's object vector
    // wholesale (O(1) swap) and give the frame our spent one — the two
    // vectors ping-pong their capacity for the life of the stream.
    ready_.clear();
    ready_head_ = 0;
    std::swap(ready_, frame->objects);
    if (frame->eos) eos_ = true;
    if (frame->pool) frame->pool->recycle(std::move(*frame));
  }
  auto obj = std::move(ready_[ready_head_]);
  ++ready_head_;
  if (ready_head_ == ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
  }
  co_return std::optional<catalog::Object>(std::move(obj));
}

sim::Task<std::size_t> ReceiverDriver::next_batch(catalog::ItemBatch& out,
                                                  std::size_t max) {
  std::size_t delivered = 0;
  while (delivered < max) {
    if (ready_head_ < ready_.size()) {
      out.push(std::move(ready_[ready_head_]));
      ++ready_head_;
      ++delivered;
      if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
      }
      continue;
    }
    // Nothing materialized. Stop at a frame boundary once anything was
    // delivered (see header: taking the next frame early would release
    // sender backpressure ahead of the per-item timeline); otherwise
    // pull frames — identical to next()'s inner loop, including pulling
    // *several* frames back-to-back when a frame completes no object
    // (large arrays spanning many buffers).
    if (delivered > 0 || eos_) break;
    const double wait_start = sim_->now();
    auto frame = co_await inbox_.recv();
    wait_seconds_ += sim_->now() - wait_start;
    if (!frame) {  // channel force-closed (teardown)
      eos_ = true;
      break;
    }
    bytes_ += frame->bytes;
    const double cost = demarshal_cost(*frame);
    demarshal_seconds_ += cost;
    co_await cpu_->use(cost);
    ready_.clear();
    ready_head_ = 0;
    std::swap(ready_, frame->objects);
    if (frame->eos) eos_ = true;
    if (frame->pool) frame->pool->recycle(std::move(*frame));
  }
  co_return delivered;
}

}  // namespace scsq::transport
