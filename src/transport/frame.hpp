// Stream framing: cutting a continuous marshaled object stream into
// fixed-size send buffers.
//
// The paper's RP "marshals [objects] into a send buffer and transmits
// the send buffers when they are full" (§3.1) — objects larger than the
// buffer (a 3 MB array over 1000-byte buffers!) span many frames, and a
// frame may complete several small objects. FrameCutter tracks the byte
// offsets: each emitted Frame carries exactly `buffer_bytes` of stream
// payload plus the objects whose final byte falls inside it (those are
// the objects the receiver can materialize after this frame arrives).
//
// Frames are pooled: a FramePool free-list hands out recycled Frames
// whose `objects` vectors keep their capacity, so the steady-state
// cut → transmit → deliver → materialize cycle performs no heap
// allocation at all for SynthArray/scalar streams (a 3 MB array over
// 1 KB buffers is ~3000 frames per object — per-frame mallocs were the
// dominant host-side cost of the Fig. 6 sweeps). The pool is per
// simulated machine and single-threaded, like the simulator it serves.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/object.hpp"

namespace scsq::transport {

class FramePool;

struct Frame {
  std::uint64_t bytes = 0;  // marshaled payload bytes carried by this buffer
  std::vector<catalog::Object> objects;  // objects completed by this frame
  bool eos = false;         // final frame of the stream
  std::uint64_t producer = 0;  // source RP id (network source tag)
  std::uint64_t seq = 0;       // frame sequence number within the stream
  FramePool* pool = nullptr;   // origin pool; the consumer recycles into it
};

/// Free-list slab of Frames. acquire() pops a recycled Frame (its
/// objects vector retains capacity) or default-constructs one; the
/// final consumer calls recycle() once the frame's objects have been
/// moved out. Frames that never come back (e.g. dropped on a closed
/// channel at teardown) are simply destroyed — the pool does not track
/// outstanding frames.
class FramePool {
 public:
  Frame acquire() {
    ++acquired_;
    if (free_.empty()) {
      Frame f;
      f.pool = this;
      return f;
    }
    ++reused_;
    Frame f = std::move(free_.back());
    free_.pop_back();
    return f;
  }

  void recycle(Frame&& f) {
    f.bytes = 0;
    f.objects.clear();  // keeps capacity — the point of the pool
    f.eos = false;
    f.producer = 0;
    f.seq = 0;
    f.pool = this;
    ++recycled_;
    free_.push_back(std::move(f));
  }

  /// Total acquire() calls; `reused()` of them were served from the
  /// free list. acquired() - reused() = frames ever default-constructed
  /// — flat across steady-state streaming (the zero-churn invariant the
  /// obs registry exposes as transport.frame_pool.*).
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t reused() const { return reused_; }
  std::uint64_t recycled() const { return recycled_; }
  std::uint64_t free_frames() const { return free_.size(); }

 private:
  std::vector<Frame> free_;
  std::uint64_t acquired_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t recycled_ = 0;
};

class FrameCutter {
 public:
  /// `pool` (optional) supplies recycled Frames for every cut.
  explicit FrameCutter(std::uint64_t buffer_bytes, FramePool* pool = nullptr)
      : buffer_bytes_(buffer_bytes), pool_(pool) {
    SCSQ_CHECK(buffer_bytes_ >= 1) << "buffer size must be >= 1 byte";
    // One up-front reservation instead of a ladder of small regrows as
    // the first buffer's worth of objects accumulates.
    pending_.reserve(16);
    pending_end_.reserve(16);
  }

  /// Adds an object to the stream; appends the frames that became full
  /// to `out` (caller-owned scratch — reuse it across pushes so the
  /// common no-cut case does no work at all). Inline: the no-cut path
  /// is three appends and a compare, executed once per stream object.
  void push(catalog::Object obj, std::vector<Frame>& out) {
    SCSQ_CHECK(!finished_) << "push after finish";
    pushed_bytes_ += obj.marshaled_size();
    pending_.push_back(std::move(obj));
    pending_end_.push_back(pushed_bytes_);
    // Objects spanning many buffers (a 3 MB SynthArray over 1 KB
    // frames) loop here: every full frame before the one carrying the
    // object's final byte is pure byte accounting — cut() finds no
    // completed objects and ships an empty (pooled) objects vector.
    while (pushed_bytes_ - emitted_bytes_ >= buffer_bytes_) {
      out.push_back(cut(buffer_bytes_));
    }
  }

  /// Cuts the currently pending partial buffer into a frame (non-EOS).
  /// Returns nullopt when nothing is pending. Used by the sender
  /// driver's linger flush so sparse result streams (e.g. one count per
  /// window) are delivered promptly instead of waiting for a full
  /// buffer.
  std::optional<Frame> cut_partial();

  /// Ends the stream: returns the final frame (partial buffer or empty)
  /// with eos set. Must be called exactly once, after the last push().
  Frame finish();

  /// Bytes pushed but not yet cut into frames.
  std::uint64_t pending_bytes() const { return pushed_bytes_ - emitted_bytes_; }

  std::uint64_t total_pushed_bytes() const { return pushed_bytes_; }
  std::uint64_t total_emitted_bytes() const { return emitted_bytes_; }

 private:
  Frame cut(std::uint64_t frame_bytes);

  std::uint64_t buffer_bytes_;
  FramePool* pool_;
  std::uint64_t pushed_bytes_ = 0;   // total marshaled bytes pushed
  std::uint64_t emitted_bytes_ = 0;  // total bytes already cut into frames
  std::uint64_t next_seq_ = 0;
  bool finished_ = false;
  // Objects whose final byte has not yet been emitted (parallel arrays:
  // scanning end offsets touches only the u64 vector, and completed
  // objects bulk-move out of the contiguous object vector). head_
  // indexes the first live entry; both vectors reset when drained, so
  // their capacity is reused for the whole stream.
  std::vector<catalog::Object> pending_;
  std::vector<std::uint64_t> pending_end_;  // stream offset past each encoding
  std::size_t head_ = 0;
};

}  // namespace scsq::transport
