// Stream carrier drivers (paper Fig. 3).
//
// Every RP has a sender driver per subscriber and a receiver driver per
// producer. The sender driver marshals result objects into fixed-size
// send buffers and transmits full buffers over a Link (MPI inside the
// BlueGene, TCP between clusters); with double buffering (the default,
// as in the paper's MPI drivers) one buffer is marshaled while the
// other is in flight. The receiver driver buffers incoming frames in a
// bounded inbox (backpressure = flow-control messages) and materializes
// objects for the SQEP operators, charging de-marshal and allocation
// costs to the node's compute CPU.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "catalog/batch.hpp"
#include "catalog/object.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "transport/frame.hpp"

namespace scsq::transport {

struct DriverParams {
  /// Size of one stream buffer — the x-axis of the paper's Fig. 6/8.
  std::uint64_t buffer_bytes = 64 * 1024;
  /// 1 = single buffering, 2 = double buffering (paper §2.3).
  int send_buffers = 2;
  /// Receiver inbox capacity in frames.
  int recv_buffers = 2;
  /// Marshal/de-marshal CPU cost per byte on this node.
  double marshal_per_byte_s = 1.0e-9;
  /// Cost to materialize one received object.
  double alloc_per_object_s = 1.0e-6;
  /// Buffer-size-dependent CPU cost factor (cache misses); null = 1.0.
  std::function<double(std::uint64_t)> cache_factor;
  /// Linger: a partially filled send buffer is flushed after this much
  /// simulated idle time, so sparse streams (one aggregate per window)
  /// are delivered promptly. 0 disables (flush only when full / at EOS).
  double linger_s = 10e-3;
  /// Frame recycling pool (owned by the simulated machine); null = every
  /// cut frame is a fresh allocation, as in directly-wired test rigs.
  FramePool* frame_pool = nullptr;

  double factor(std::uint64_t bytes) const {
    return cache_factor ? cache_factor(bytes) : 1.0;
  }
};

/// Registry handles one Link reports through — resolved once when the
/// connection is wired (make_link labels them by link type and endpoint
/// locations), then every delivered frame is a few plain adds.
struct LinkMetrics {
  obs::Counter* frames = nullptr;        ///< frames delivered (incl. EOS)
  obs::Counter* bytes = nullptr;         ///< payload bytes delivered
  obs::Counter* stalls = nullptr;        ///< transmissions that found the window full
  obs::Gauge* stall_seconds = nullptr;   ///< total time spent waiting for the window
  obs::Histogram* frame_latency = nullptr;  ///< queue-entry -> inbox-delivery seconds
};

/// Per-link running totals the profiler reads back after a run (the
/// registry metrics above are exporter-facing; these are analysis-facing
/// and include the wire-byte accounting and the LogHistogram the
/// EXPLAIN ANALYZE latency quantiles come from). Scalar fields are
/// updated from a per-burst batch that Link::run flushes when the link
/// window drains or the stream ends (stats() also flushes lazily, so
/// readers always see exact totals); only the histogram observes stay
/// per-frame — quantiles need every sample.
struct LinkStats {
  std::uint64_t frames = 0;         ///< frames delivered (incl. EOS)
  std::uint64_t payload_bytes = 0;  ///< stream payload bytes
  std::uint64_t wire_bytes = 0;     ///< payload rounded to wire granularity
  std::uint64_t stalls = 0;         ///< transmissions that found the window full
  double transit_s = 0.0;           ///< sum of queue-entry -> delivery times
  double window_wait_s = 0.0;       ///< share of transit_s queued on the window
  obs::LogHistogram latency;        ///< per-frame transit seconds
};

/// A transport connection carrying frames from one producer RP to one
/// consumer RP's inbox, in order. Implementations (MPI over the torus,
/// TCP via I/O nodes, node-local) live in transport/links.hpp.
///
/// `window` bounds the frames in flight end-to-end (posted MPI receives
/// / the TCP window): when the consumer stops draining, the pipeline
/// stalls all the way back to the producer instead of queueing unbounded
/// frames inside the network resources.
///
/// A link runs one of two schedules, fixed by its constructor:
///  * whole-trip (MPI, local): transmit_one carries a frame from window
///    admission to inbox delivery, and the window slot frees on
///    delivery;
///  * split (TCP): the source half (src_transmit) holds the source-side
///    resources and announces the destination half at the claimed
///    completion time of its final source resource; the destination
///    half (dst_receive) holds the receive-side resources and delivers
///    into the inbox, and the window slot frees one flow-control credit
///    latency after delivery.
class Link {
 public:
  /// Whole-trip schedule.
  explicit Link(sim::Simulator& sim) : Link(sim, 0.0) {}

  static constexpr int kWindow = 4;
  virtual ~Link() = default;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Starts transmitting a frame in the background. `on_sender_free` is
  /// invoked when the send buffer becomes reusable. Frames are delivered
  /// to the consumer inbox in start order.
  void start_transmit(Frame frame, std::function<void()> on_sender_free);

  /// Set once the EOS frame has been delivered (safe to tear down).
  sim::Event& drained() { return drained_; }

  /// Attaches registry handles; every delivered frame then updates them.
  void set_metrics(const LinkMetrics& metrics) { metrics_ = metrics; }

  /// Protocol tag ("mpi", "tcp", ...), set by make_link.
  void set_type(std::string type) { type_ = std::move(type); }
  const std::string& type() const { return type_; }

  /// Running per-link totals for the profiler. Flushes any batched
  /// updates first, so the returned totals are always exact.
  const LinkStats& stats() const {
    flush_batch();
    return stats_;
  }

  /// Attaches a trace: every delivered data frame records a flow arrow
  /// from `from_track` (at transmission start) to `to_track` (at inbox
  /// delivery) — the producer→consumer stream hand-off in Perfetto.
  void set_flow_trace(sim::Trace* trace, std::string from_track, std::string to_track) {
    flow_trace_ = trace;
    flow_from_ = std::move(from_track);
    flow_to_ = std::move(to_track);
  }

 protected:
  /// Split schedule; `credit_latency_s` (> 0) models the flow-control
  /// round trip that returns a window slot after delivery.
  Link(sim::Simulator& sim, double credit_latency_s)
      : sim_(&sim),
        drained_(sim),
        window_(sim, kWindow, "linkwin"),
        credit_latency_s_(credit_latency_s) {}

  /// Whole-trip schedule: the frame's trip from the window to the inbox.
  /// Split links never call it; the default aborts.
  virtual sim::Task<void> transmit_one(Frame frame, std::function<void()> on_sender_free);

  /// Split schedule, source half: source-side resource holds only.
  /// Implementations claim() their final capacity-1 source resource,
  /// call announce_delivery() with the claimed completion time before
  /// suspending (claim and use must share one event so claim order is
  /// grant order), then co_await the actual holds. Whole-trip links
  /// never call it; the default aborts.
  virtual sim::Task<void> src_transmit(Frame frame, std::function<void()> on_sender_free,
                                       double t0, double window_wait, bool stalled);

  /// Split schedule, destination half: receive-side resource holds plus
  /// the inbox delivery.
  virtual sim::Task<void> dst_receive(Frame frame);

  /// Schedules the destination half of a split transmit at absolute time
  /// `at` (the claimed source completion time). The frame waits in one of
  /// the link's announcement slots, so the announcement allocates nothing.
  void announce_delivery(double at, Frame frame, double t0, double window_wait,
                         bool stalled);

  /// Called after the EOS frame is delivered; close flows etc.
  virtual void stream_ended() {}

  /// Bytes a payload occupies on the wire. The default is the payload
  /// itself; the MPI link rounds up to full torus packets (a partially
  /// filled final packet still burns a full packet slot) — the
  /// packetization-waste input to the profiler's attribution.
  virtual std::uint64_t wire_bytes_for(std::uint64_t payload_bytes) const {
    return payload_bytes;
  }

  sim::Simulator& sim() { return *sim_; }

 private:
  bool split() const { return credit_latency_s_ > 0.0; }
  /// Whole-trip schedule: window admission, transmit_one, accounting.
  sim::Task<void> run(Frame frame, std::function<void()> on_sender_free);
  /// Split schedule, source half: window admission, then src_transmit
  /// (which announces the destination half).
  sim::Task<void> run_split(Frame frame, std::function<void()> on_sender_free);
  /// Split schedule, destination half: dst_receive, accounting and the
  /// window credit.
  sim::Task<void> dst_run(Frame frame, double t0, double window_wait, bool stalled);

  /// Scalar stats accumulated across a burst of in-flight frames and
  /// applied to stats_/metrics_ in one shot — per-frame delivery used
  /// to pay five counter/gauge updates each; a burst now pays them
  /// once. mutable: stats() flushes lazily from const context.
  struct StatsBatch {
    std::uint64_t frames = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t stalls = 0;
    double transit_s = 0.0;
    double window_wait_s = 0.0;
  };
  void flush_batch() const;

  /// A frame announced by src_transmit but not yet handed to dst_run.
  /// Every announced frame holds a window unit until its delivery, so at
  /// most kWindow are outstanding; the scheduled callback carries only
  /// the slot index, which keeps it inside std::function's local buffer.
  struct Announcement {
    Frame frame;
    double t0 = 0.0;
    double window_wait = 0.0;
    bool stalled = false;
    bool used = false;
  };

  sim::Simulator* sim_;
  sim::Event drained_;
  sim::Resource window_;
  double credit_latency_s_;  // 0 = whole-trip schedule
  std::array<Announcement, kWindow> announced_;
  LinkMetrics metrics_;
  mutable LinkStats stats_;
  mutable StatsBatch batch_;
  std::string type_;
  sim::Trace* flow_trace_ = nullptr;
  std::string flow_from_;
  std::string flow_to_;
};

class SenderDriver {
 public:
  /// `cpu` is the compute CPU marshal work is charged to; `producer_tag`
  /// identifies the producing RP (network source tag).
  SenderDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu,
               std::unique_ptr<Link> link, std::uint64_t producer_tag);

  /// Appends one object to the stream; suspends for marshal cost and for
  /// buffer availability (this is where single vs. double buffering
  /// changes the timing).
  sim::Task<void> push(catalog::Object obj);

  /// Flushes the partial buffer, sends EOS, and waits until the link has
  /// delivered everything (so the RP may be torn down afterwards).
  sim::Task<void> finish();

  std::uint64_t bytes_sent() const { return cutter_.total_emitted_bytes(); }

  /// Time this sender spent waiting for a free send buffer — the
  /// per-RP stall gauge (nonzero = the stream is transmit-bound).
  double stall_seconds() const { return stall_seconds_; }

  /// Marshal CPU time charged by this sender (profiler input).
  double marshal_seconds() const { return marshal_seconds_; }

  /// The underlying connection (profiler reads its stats/type).
  const Link& link() const { return *link_; }

 private:
  /// Single drainer coroutine: emits frames in cut order (marshal on the
  /// CPU, then hand to the link), serializing pushes and linger flushes.
  /// Spawned lazily at the first push()/finish() — see ensure_drain().
  sim::Task<void> drain();
  void ensure_drain();
  void arm_linger();
  void arm_linger_fire();

  sim::Simulator* sim_;
  DriverParams params_;
  double buffer_factor_;  // params_.factor(params_.buffer_bytes), evaluated once
  sim::Resource* cpu_;
  std::unique_ptr<Link> link_;
  std::uint64_t tag_;
  FrameCutter cutter_;
  sim::Resource slots_;  // send buffers: capacity 1 (single) or 2 (double)
  sim::Channel<Frame> outbox_;
  std::vector<Frame> cut_scratch_;  // reused across pushes (see push())
  std::uint64_t linger_generation_ = 0;
  bool drain_started_ = false;
  bool finishing_ = false;
  double stall_seconds_ = 0.0;
  double marshal_seconds_ = 0.0;
};

class ReceiverDriver {
 public:
  ReceiverDriver(sim::Simulator& sim, DriverParams params, sim::Resource& cpu);

  /// The inbox a Link delivers into.
  sim::Channel<Frame>& inbox() { return inbox_; }

  /// Next materialized object, or nullopt at end of stream. Charges
  /// de-marshal + allocation cost per received frame.
  sim::Task<std::optional<catalog::Object>> next();

  /// Batch pull: appends up to `max` materialized objects to `out` and
  /// returns how many were delivered (0 only at end of stream). The
  /// batch is *frame-granular*: it hands back everything already
  /// materialized from previously received frames, pulls further frames
  /// from the inbox only while it has nothing to deliver, and never
  /// takes a frame beyond the one that produced the batch — taking
  /// extra frames early would free inbox slots (and thus release sender
  /// backpressure) before the per-item path would, shifting the
  /// simulated timeline. Charge order is exactly the per-item order:
  /// demarshal(frame), then its objects, then — on the *next* call —
  /// demarshal of the following frame.
  sim::Task<std::size_t> next_batch(catalog::ItemBatch& out, std::size_t max);

  bool eos_seen() const { return eos_; }

  /// True once the stream has ended AND every materialized object has
  /// been handed out: the next pull would yield nothing.
  bool exhausted() const { return eos_ && ready_head_ == ready_.size(); }
  std::uint64_t bytes_received() const { return bytes_; }

  /// Time spent blocked on an empty inbox (queue-wait; profiler input).
  double wait_seconds() const { return wait_seconds_; }

  /// De-marshal + allocation CPU time charged by this receiver.
  double demarshal_seconds() const { return demarshal_seconds_; }

 private:
  /// De-marshal + allocation CPU cost of one received frame.
  double demarshal_cost(const Frame& frame) const;

  sim::Simulator* sim_;
  DriverParams params_;
  double buffer_factor_;  // params_.factor(params_.buffer_bytes), evaluated once
  sim::Resource* cpu_;
  sim::Channel<Frame> inbox_;
  // Materialized objects not yet handed to the operators. Vector + head
  // index instead of a deque: a frame's objects arrive as one bulk
  // move, and the storage resets (keeping capacity) whenever drained.
  std::vector<catalog::Object> ready_;
  std::size_t ready_head_ = 0;
  bool eos_ = false;
  std::uint64_t bytes_ = 0;
  double wait_seconds_ = 0.0;
  double demarshal_seconds_ = 0.0;
};

}  // namespace scsq::transport
