// Discrete-event simulation kernel.
//
// The Simulator owns a timestamped event queue (coroutine resumptions or
// plain callbacks) and drives spawned root tasks until no events remain.
// All SCSQ "hardware" (networks, CPUs, co-processors) is modeled on top
// of this kernel; simulated time stands in for the wall-clock
// measurements of the paper.
//
// Hot-path layout: a queued event is 24 bytes of POD — timestamp, FIFO
// sequence number, and a type-punned payload word. Coroutine frame
// addresses are at least 2-byte aligned, so the low payload bit tags the
// rare plain-callback events, whose std::function lives in a reusable
// side slab instead of inside every queue node. Events land either in
// the timed pending-event set (sim/event_queue.hpp: a ladder queue by
// default, the old binary min-heap behind SCSQ_EVENT_QUEUE=heap as a
// byte-diffable reference — both dispatch in the identical (time, seq)
// order) or in an index-advancing FIFO ring (events at exactly now(),
// the common case for channel wake-ups), so the usual
// schedule_now/resume cycle never touches the timed structure at all.
//
// Threading model: one Simulator is strictly single-threaded,
// run-to-completion. A resumed coroutine runs until its next suspension;
// wake-ups always go through schedule_* so there are no re-entrant
// resumptions. *Distinct* Simulator instances are independent and may
// run concurrently on different threads (the parallel sweep harness
// relies on this).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"  // Time, QueuedEvent, EventQueue
#include "sim/task.hpp"
#include "util/logging.hpp"

namespace scsq::sim {

/// Event-loop statistics, maintained inline by the kernel. Every counter
/// is a single register increment on a cache line the dispatch loop
/// already owns, so keeping them always on costs nothing measurable; the
/// accessor itself is a free inline reference. Benches divide
/// events_dispatched by wall time to report simulated events per second.
struct PerfCounters {
  std::uint64_t events_dispatched = 0;  ///< total events run (timed + fifo)
  std::uint64_t heap_pushes = 0;        ///< timed events (future timestamps)
  std::uint64_t fifo_pushes = 0;        ///< same-timestamp fast-path events
  std::uint64_t callbacks_run = 0;      ///< call_at dispatches (slab path)
  std::uint64_t channel_sends = 0;      ///< Channel::send/try_send accepted
  std::uint64_t channel_recvs = 0;      ///< Channel::recv values delivered
  std::uint64_t channel_waits = 0;      ///< suspensions on full/empty channels
  std::uint64_t wakeups = 0;            ///< WaitQueue/Event notify resumptions
  std::uint64_t peak_queue_depth = 0;   ///< max outstanding events (timed+fifo)
  std::uint64_t rung_spills = 0;        ///< events respread into a ladder rung
  std::uint64_t bottom_resorts = 0;     ///< bucket/top batches sorted to bottom
  std::uint64_t cancel_consumed = 0;    ///< cancelled timer nodes popped silently
};

class Simulator {
 public:
  /// Default: pending-event set mode from SCSQ_EVENT_QUEUE (ladder
  /// unless overridden).
  Simulator();
  /// Explicit pending-event-set mode (tests and benches compare both).
  explicit Simulator(EventQueue::Mode queue_mode);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds since simulation start).
  Time now() const { return now_; }

  /// Pending-event-set mode this kernel runs with.
  EventQueue::Mode queue_mode() const { return timed_.mode(); }

  /// Returns the kernel to its initial state — clock at 0, seq counter at
  /// 0, no queued events, no live roots — while keeping every piece of
  /// warm storage (event-queue rungs and vectors, FIFO ring, callback
  /// slab). Re-running a workload on a reset Simulator allocates nothing
  /// in steady state. PerfCounters are cumulative across resets.
  /// Outstanding TimerIds are invalidated (their slots' generations
  /// advance).
  void reset();

  /// Starts a root process. The task begins executing at the current time
  /// (it is scheduled, not run inline). The simulator keeps the coroutine
  /// alive until it completes.
  void spawn(Task<void> task);

  /// Schedules `h` to resume at absolute time `at` (>= now()). Events at
  /// the current time take the FIFO fast path and skip the timed set.
  void schedule_at(Time at, std::coroutine_handle<> h) {
    SCSQ_CHECK(at >= now_) << "scheduling into the past: " << at << " < " << now_;
    if (at == now_) {
      push_fifo(encode(h));
    } else {
      push_timed(at, encode(h));
    }
  }

  /// Schedules `h` to resume at the current time, after already-queued
  /// same-time events (FIFO within a timestamp).
  void schedule_now(std::coroutine_handle<> h) { push_fifo(encode(h)); }

  /// Handle to a pending call_at timer, usable with cancel_timer. The
  /// generation counter makes stale handles harmless: a slot recycled to
  /// a newer timer no longer matches an old TimerId.
  struct TimerId {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Schedules a plain callback at absolute time `at`. The callable is
  /// parked in a reusable slab; the queue node stays 24-byte POD. The
  /// returned TimerId can cancel the callback before it fires.
  TimerId call_at(Time at, std::function<void()> fn);

  /// Cancels a pending call_at timer. Returns true when the callback was
  /// still pending (it will never run); false for a timer that already
  /// fired, was already cancelled, or whose slot was recycled. A
  /// cancelled queue node is consumed silently when its timestamp is
  /// reached: it does not advance now(), does not count as a dispatched
  /// event, and never keeps run() from returning — so a periodic sampler
  /// can park a timer past the end of a run without perturbing the
  /// simulation's observable timing.
  bool cancel_timer(TimerId id);

  /// Awaitable: suspends the awaiting coroutine for `dt` seconds
  /// (dt <= 0 completes immediately without suspension).
  auto delay(Time dt) {
    struct Awaiter {
      Simulator* sim;
      Time dt;
      bool await_ready() const noexcept { return dt <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) { sim->schedule_at(sim->now_ + dt, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: suspends until absolute simulated time `at` (at <= now()
  /// completes immediately without suspension). Batched cost charges use
  /// this to land the clock on an exact fold of per-item costs: k
  /// sequential delay(d) calls advance time as ((t+d)+d)+... which is
  /// not bitwise t + k*d, so an aggregated charge computes the same
  /// sequential fold and schedules at that absolute instant.
  auto delay_until(Time at) {
    struct Awaiter {
      Simulator* sim;
      Time at;
      bool await_ready() const noexcept { return at <= sim->now_; }
      void await_suspend(std::coroutine_handle<> h) { sim->schedule_at(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, at};
  }

  /// Runs until the event queue is empty or `until` is exceeded.
  /// Returns the final simulated time.
  Time run(Time until = kNoLimit);

  /// Timestamp of the next pending event: now() when same-time FIFO
  /// events are queued, the timed front's timestamp otherwise, kNoLimit
  /// when the queue is empty.
  Time next_event_time() const {
    if (fifo_.size() != fifo_head_) return now_;
    if (!timed_.empty()) return timed_.front().at;
    return kNoLimit;
  }

  /// Number of root tasks spawned that have not yet completed. After
  /// run() returns with an empty queue, a nonzero value means deadlock
  /// (processes waiting on channels/resources that will never signal).
  std::size_t live_root_tasks() const;

  /// Total events dispatched so far (diagnostics / tests).
  std::uint64_t events_dispatched() const { return perf_.events_dispatched; }

  /// Outstanding queued events (timed + same-time FIFO), including any
  /// cancelled-but-unpopped timer nodes. Live observability gauge; O(1).
  std::size_t queue_depth() const { return timed_.size() + (fifo_.size() - fifo_head_); }

  /// Kernel event-loop counters (see PerfCounters). Zero-cost accessor.
  const PerfCounters& perf() const { return perf_; }

  // Instrumentation hooks for the sim primitives (Channel, WaitQueue).
  // Inline single increments; not part of the user-facing API.
  void count_channel_send() { ++perf_.channel_sends; }
  void count_channel_recv() { ++perf_.channel_recvs; }
  void count_channel_wait() { ++perf_.channel_waits; }
  void count_wakeup() { ++perf_.wakeups; }

  static constexpr Time kNoLimit = 1e300;

 private:
  static std::uintptr_t encode(std::coroutine_handle<> h) {
    return reinterpret_cast<std::uintptr_t>(h.address());
  }

  // Peak queue depth is sampled at the top of the run() loop rather than
  // on every push: depth only grows between two pops, so it is maximal
  // exactly when the next event is about to be popped, and the loop top
  // already has both container sizes in registers.
  void push_fifo(std::uintptr_t payload) {
    ++perf_.fifo_pushes;
    fifo_.push_back(QueuedEvent{now_, next_seq_++, payload});
  }

  // `heap_pushes` keeps its historical name: it counts pushes into the
  // timed pending-event set, whichever structure backs it.
  void push_timed(Time at, std::uintptr_t payload) {
    ++perf_.heap_pushes;
    timed_.push(QueuedEvent{at, next_seq_++, payload});
  }

  void run_callback(std::uintptr_t payload);
  void sweep_finished_roots();

  // True (and the slot released) when `payload` is a cancelled callback
  // node: the dispatch loop consumes it without any observable effect
  // beyond the cancel_consumed diagnostic counter.
  bool consume_cancelled(std::uintptr_t payload) {
    if (!(payload & 1u)) return false;
    const auto slot = static_cast<std::uint32_t>(payload >> 1);
    if (callbacks_[slot]) return false;
    free_slots_.push_back(slot);
    ++perf_.cancel_consumed;
    return true;
  }

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  PerfCounters perf_;                // must precede timed_ (it points in)
  EventQueue timed_;                 // pending-event set for at > now()
  std::vector<QueuedEvent> fifo_;  // events at now_, drained by fifo_head_
  std::size_t fifo_head_ = 0;
  std::vector<std::function<void()>> callbacks_;  // slab for call_at bodies
  std::vector<std::uint32_t> callback_gens_;      // slot generation (TimerId check)
  std::vector<std::uint32_t> free_slots_;         // recycled slab indices
  std::vector<std::coroutine_handle<Task<void>::promise_type>> roots_;
};

/// One-shot broadcast event (like a latch): wait() suspends until set()
/// is called; set() wakes all current and future waiters, oldest first.
///
/// The first waiter is held inline and only later ones go to the heap:
/// the common event has a single waiter (a per-message MPI completion
/// event lives in the transmitting coroutine's frame), so waiting on it
/// allocates nothing.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(&sim) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    if (first_) wake(first_);
    for (auto h : more_) wake(h);
    more_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (ev->first_) {
          ev->more_.push_back(h);
        } else {
          ev->first_ = h;
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  void wake(std::coroutine_handle<> h) {
    sim_->count_wakeup();
    sim_->schedule_now(h);
  }

  Simulator* sim_;
  bool set_ = false;
  std::coroutine_handle<> first_;
  std::vector<std::coroutine_handle<>> more_;
};

/// Condition-variable-like wait queue used to build channels.
/// wait() suspends until notify_one()/notify_all(); waiters must re-check
/// their condition after resuming (standard cv loop discipline).
///
/// The waiter list is an index-advancing ring: notify_one hands out
/// waiters_[head_++] in O(1) instead of erasing the vector front, and the
/// storage resets once the ring drains, so no wake-up path in the kernel
/// is linear in the number of waiters.
class WaitQueue {
 public:
  explicit WaitQueue(Simulator& sim) : sim_(&sim) {}

  auto wait() {
    struct Awaiter {
      WaitQueue* wq;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { wq->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void notify_one() {
    if (head_ == waiters_.size()) return;
    sim_->count_wakeup();
    sim_->schedule_now(waiters_[head_++]);
    if (head_ == waiters_.size()) {
      waiters_.clear();
      head_ = 0;
    }
  }

  void notify_all() {
    for (std::size_t i = head_; i < waiters_.size(); ++i) {
      sim_->count_wakeup();
      sim_->schedule_now(waiters_[i]);
    }
    waiters_.clear();
    head_ = 0;
  }

  std::size_t waiting() const { return waiters_.size() - head_; }

 private:
  Simulator* sim_;
  std::size_t head_ = 0;  // oldest live waiter; entries before it are spent
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace scsq::sim
