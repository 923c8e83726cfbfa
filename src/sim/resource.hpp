// FIFO-fair counted resource for the simulation kernel.
//
// Resources model contended hardware: a BlueGene communication
// co-processor is a Resource of capacity 1, a NIC is a capacity-1
// resource whose hold time is the wire time of a frame, a dual-CPU node
// exposes a compute Resource per CPU. Grants are strictly FIFO — a
// release hands the slot directly to the oldest waiter, so later
// arrivals can never barge (matching the in-order servicing of a
// single-threaded co-processor).
#pragma once

#include <coroutine>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace scsq::sim {

class Resource {
 public:
  Resource(Simulator& sim, int capacity, std::string name = {})
      : sim_(&sim), capacity_(capacity), name_(std::move(name)) {
    SCSQ_CHECK(capacity_ >= 1) << "resource capacity must be >= 1";
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Awaitable acquire; FIFO under contention.
  auto acquire() {
    struct Awaiter {
      Resource* res;
      bool await_ready() {
        if (res->in_use_ < res->capacity_) {
          res->note_change();
          ++res->in_use_;
          if (res->in_use_ == 1) res->episode_start_ = res->sim_->now();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { res->waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  /// Releases one slot. If waiters exist the slot transfers directly to
  /// the oldest one (in_use stays constant across the hand-off).
  void release() {
    SCSQ_CHECK(in_use_ > 0) << "release of idle resource " << name_;
    if (waiters_head_ == waiters_.size()) {
      note_change();
      --in_use_;
      if (in_use_ == 0 && trace_ != nullptr) {
        trace_->interval(name_.empty() ? "resource" : name_, "busy", episode_start_,
                         sim_->now());
      }
      return;
    }
    auto h = waiters_[waiters_head_++];
    if (waiters_head_ == waiters_.size()) {
      waiters_.clear();
      waiters_head_ = 0;
    } else if (2 * waiters_head_ >= waiters_.size()) {
      // Contention that never drains: drop the spent prefix once it is
      // half the ring, so the storage stays bounded by the live waiters.
      // The move costs at most the grants since the last drop: O(1)
      // amortized per grant.
      waiters_.erase(waiters_.begin(),
                     waiters_.begin() + static_cast<std::ptrdiff_t>(waiters_head_));
      waiters_head_ = 0;
    }
    sim_->schedule_now(h);
  }

  /// Convenience: acquire, hold for `duration` simulated seconds, release.
  Task<void> use(Time duration) {
    co_await acquire();
    co_await sim_->delay(duration);
    release();
  }

  /// Batched convenience: acquire once, hold for the sequential fold of
  /// `n` holds of `per` seconds each, release. The end time is computed
  /// by the same left-to-right addition chain n back-to-back use(per)
  /// calls would produce, so the clock lands on the bitwise-identical
  /// timestamp — with one scheduler event instead of n. Only safe when
  /// no other process would contend for this resource between the
  /// individual holds (FIFO barging would otherwise reorder grants).
  Task<void> use_repeated(Time per, std::uint64_t n) {
    if (n == 0) co_return;
    co_await acquire();
    Time end = sim_->now();
    for (std::uint64_t i = 0; i < n; ++i) end += per;
    co_await sim_->delay_until(end);
    release();
  }

  /// Reserves the next FIFO slot of a capacity-1 resource and returns the
  /// exact simulated time a use(hold) enqueued *now* will complete. Valid
  /// only when every user of the resource pairs claim(hold) with an
  /// immediately following use(hold) in the same event (no suspension in
  /// between), so claim order equals grant order. The returned time is
  /// bitwise-identical to the clock after the matching use(): a FIFO
  /// grant resumes at its predecessor's release time, so completion is
  /// max(now, previous completion) + hold in both computations. Split
  /// TCP links use this to announce a delivery at the instant the sender's
  /// NIC hold will end (transport/driver.hpp).
  Time claim(Time hold) {
    SCSQ_CHECK(capacity_ == 1) << "claim() needs FIFO capacity 1: " << name_;
    Time start = claim_until_ > sim_->now() ? claim_until_ : sim_->now();
    claim_until_ = start + hold;
    return claim_until_;
  }

  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  std::size_t queue_length() const { return waiters_.size() - waiters_head_; }
  const std::string& name() const { return name_; }

  /// Integral of in_use over time divided by capacity: the mean
  /// utilization of this resource since construction (or since
  /// reset_stats()). Used for the per-link utilization in RunReport.
  double utilization() const {
    double total = sim_->now() - stats_start_;
    if (total <= 0.0) return 0.0;
    double busy = busy_integral_ + in_use_ * (sim_->now() - last_change_);
    return busy / (total * capacity_);
  }

  /// Total resource-busy seconds accumulated (per slot-second).
  double busy_seconds() const {
    return busy_integral_ + in_use_ * (sim_->now() - last_change_);
  }

  void reset_stats() {
    busy_integral_ = 0.0;
    stats_start_ = last_change_ = sim_->now();
  }

  /// Attaches a trace: every busy episode (in_use > 0) is recorded as an
  /// interval on a track named after the resource. Pass nullptr to
  /// detach.
  void set_trace(Trace* trace) { trace_ = trace; }

 private:
  void note_change() {
    busy_integral_ += in_use_ * (sim_->now() - last_change_);
    last_change_ = sim_->now();
  }

  Simulator* sim_;
  int capacity_;
  std::string name_;
  int in_use_ = 0;
  // FIFO waiters as a vector + head-index ring, like WaitQueue: a grant
  // takes waiters_[waiters_head_++] and the storage resets (keeping its
  // capacity) once drained, or sheds its spent prefix once that is half
  // of it. Unlike a deque, an idle Resource owns no heap blocks.
  std::vector<std::coroutine_handle<>> waiters_;
  std::size_t waiters_head_ = 0;
  double busy_integral_ = 0.0;
  double last_change_ = 0.0;
  double stats_start_ = 0.0;
  Time claim_until_ = 0.0;
  Trace* trace_ = nullptr;
  double episode_start_ = 0.0;
};

/// RAII guard releasing a Resource on scope exit. Use as:
///   co_await res.acquire();
///   ResourceLock lock(res);
class ResourceLock {
 public:
  explicit ResourceLock(Resource& res) : res_(&res) {}
  ResourceLock(ResourceLock&& other) noexcept : res_(other.res_) { other.res_ = nullptr; }
  ResourceLock(const ResourceLock&) = delete;
  ResourceLock& operator=(const ResourceLock&) = delete;
  ResourceLock& operator=(ResourceLock&&) = delete;
  ~ResourceLock() {
    if (res_) res_->release();
  }

 private:
  Resource* res_;
};

}  // namespace scsq::sim
