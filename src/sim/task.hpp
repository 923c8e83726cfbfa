// Coroutine task type for simulated processes.
//
// A sim::Task<T> is a lazily-started coroutine. It can be:
//  * co_await-ed from another task (nested call; the child runs to its
//    first suspension inside the parent's resume, and resumes the parent
//    on completion via symmetric transfer), or
//  * handed to Simulator::spawn() as a root process (Task<void> only).
//
// Tasks are single-threaded: the whole simulation is cooperative and all
// coroutines are driven by the Simulator's event loop.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace scsq::sim {

/// Diagnostic counters for the coroutine-frame pool (coro_pool_stats()).
struct CoroPoolStats {
  std::uint64_t bucket_reused = 0;   ///< frames served from a warm free list
  std::uint64_t chunk_allocs = 0;    ///< ::operator new chunk refills
  std::uint64_t oversize_allocs = 0; ///< frames beyond the pooled classes
};

namespace detail {

// Pooled coroutine-frame allocation. Every simulated message crossing a
// Channel and every Resource::use() spins up a short-lived coroutine;
// at steady state the same handful of frame sizes are allocated and
// freed millions of times per run. Frames are recycled through
// thread-local free lists bucketed in 64-byte size classes (the
// simulator is single-threaded, but sweep workers run one simulation
// per thread). A free-list miss carves kCoroChunkBlocks blocks out of
// one ::operator new — so even cold starts and deep workloads (tens of
// thousands of live frames) reach malloc once per chunk, not per frame,
// and the lists are uncapped: steady state performs zero ::operator new
// calls. Oversized frames (> kCoroBucketCount classes) fall through to
// the global heap.
//
// Chunk ownership is process-global, not per-thread. Sweep workers
// (util::run_sweep) are fresh threads on every call and exit when it
// returns, so a thread's warm free lists would die with it. Instead an
// exiting thread donates its lists to a global registry, cut into
// batches of at most kCoroChunkBlocks blocks, and a free-list miss adopts
// a donated batch before carving a new chunk: successive sweeps reuse
// the chunks of earlier ones. Chunks stay registered (always reachable —
// leak checkers stay quiet) and are released only at process exit.
inline constexpr std::size_t kCoroBucketShift = 6;  // 64-byte classes
inline constexpr std::size_t kCoroBucketCount = 16;  // covers up to 1 KiB
inline constexpr std::size_t kCoroChunkBlocks = 64;  // blocks per refill

struct CoroChunkRegistry {
  std::mutex mu;
  std::vector<void*> chunks;
  // Free-list batches donated by exited threads, per size class: each
  // entry heads a null-terminated list of at most kCoroChunkBlocks blocks.
  std::vector<void*> donated[kCoroBucketCount];
  // Stats of exited threads, folded in at thread-local destruction.
  std::atomic<std::uint64_t> retired_reused{0};
  std::atomic<std::uint64_t> retired_chunks{0};
  std::atomic<std::uint64_t> retired_oversize{0};

  ~CoroChunkRegistry() {
    for (void* c : chunks) ::operator delete(c);
  }

  void add(void* chunk) {
    const std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  }

  // Pops one donated batch of class `b`, nullptr when none is left.
  void* adopt(std::size_t b) {
    const std::lock_guard<std::mutex> lock(mu);
    if (donated[b].empty()) return nullptr;
    void* batch = donated[b].back();
    donated[b].pop_back();
    return batch;
  }

  static CoroChunkRegistry& instance() {
    static CoroChunkRegistry registry;
    return registry;
  }
};

struct CoroFreeLists {
  void* head[kCoroBucketCount] = {};
  CoroPoolStats stats;

  // Touch the registry first so it is constructed before (and therefore
  // destroyed after) every thread-local list, including main's.
  CoroFreeLists() { (void)CoroChunkRegistry::instance(); }

  ~CoroFreeLists() {
    auto& reg = CoroChunkRegistry::instance();
    {
      const std::lock_guard<std::mutex> lock(reg.mu);
      for (std::size_t b = 0; b < kCoroBucketCount; ++b) {
        // Cut the list into batches so one adopter cannot take the
        // whole class and leave other threads to carve fresh chunks.
        while (void* batch = head[b]) {
          void* tail = batch;
          for (std::size_t n = 1; n < kCoroChunkBlocks && *static_cast<void**>(tail); ++n) {
            tail = *static_cast<void**>(tail);
          }
          head[b] = *static_cast<void**>(tail);
          *static_cast<void**>(tail) = nullptr;
          reg.donated[b].push_back(batch);
        }
      }
    }
    reg.retired_reused.fetch_add(stats.bucket_reused, std::memory_order_relaxed);
    reg.retired_chunks.fetch_add(stats.chunk_allocs, std::memory_order_relaxed);
    reg.retired_oversize.fetch_add(stats.oversize_allocs, std::memory_order_relaxed);
  }

  static CoroFreeLists& tls() {
    static thread_local CoroFreeLists lists;
    return lists;
  }
};

// Cold path: adopt a batch donated by an exited thread, else carve one
// chunk into class-size blocks; thread all but the returned block onto
// the free list.
inline void* coro_refill(CoroFreeLists& fl, std::size_t b) {
  if (void* batch = CoroChunkRegistry::instance().adopt(b)) {
    fl.head[b] = *static_cast<void**>(batch);
    ++fl.stats.bucket_reused;
    return batch;
  }
  const std::size_t block = (b + 1) << kCoroBucketShift;
  char* chunk = static_cast<char*>(::operator new(block * kCoroChunkBlocks));
  CoroChunkRegistry::instance().add(chunk);
  ++fl.stats.chunk_allocs;
  for (std::size_t i = 1; i < kCoroChunkBlocks; ++i) {
    void* p = chunk + i * block;
    *static_cast<void**>(p) = fl.head[b];
    fl.head[b] = p;
  }
  return chunk;
}

inline void* coro_alloc(std::size_t n) {
  const std::size_t b = (n - 1) >> kCoroBucketShift;
  if (b < kCoroBucketCount) {
    auto& fl = CoroFreeLists::tls();
    if (void* p = fl.head[b]) {
      fl.head[b] = *static_cast<void**>(p);
      ++fl.stats.bucket_reused;
      return p;
    }
    return coro_refill(fl, b);
  }
  ++CoroFreeLists::tls().stats.oversize_allocs;
  return ::operator new(n);
}

inline void coro_free(void* p, std::size_t n) noexcept {
  const std::size_t b = (n - 1) >> kCoroBucketShift;
  if (b < kCoroBucketCount) {
    // Always recycle: the block is a chunk interior and must never reach
    // ::operator delete individually.
    auto& fl = CoroFreeLists::tls();
    *static_cast<void**>(p) = fl.head[b];
    fl.head[b] = p;
    return;
  }
  ::operator delete(p);
}

}  // namespace detail

/// This thread's coroutine-pool counters plus those of exited threads.
/// With single-threaded use (tests), deltas across a workload are exact:
/// equal chunk_allocs before/after proves steady-state zero-malloc.
inline CoroPoolStats coro_pool_stats() {
  const auto& fl = detail::CoroFreeLists::tls();
  const auto& reg = detail::CoroChunkRegistry::instance();
  CoroPoolStats s = fl.stats;
  s.bucket_reused += reg.retired_reused.load(std::memory_order_relaxed);
  s.chunk_allocs += reg.retired_chunks.load(std::memory_order_relaxed);
  s.oversize_allocs += reg.retired_oversize.load(std::memory_order_relaxed);
  return s;
}

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // resumed at final suspend, if set
  std::exception_ptr exception;

  // Route all Task coroutine frames through the per-thread pool. Only
  // the sized form is declared: frame deallocation must know the class
  // size because pooled blocks are chunk interiors that can never be
  // released to ::operator delete individually ([dcl.fct.def.coroutine]
  // selects the sized overload whenever it is declared).
  static void* operator new(std::size_t n) { return coro_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept { coro_free(p, n); }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <class T = void>
class [[nodiscard]] Task;

template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <class U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiting a task starts it; the awaiting coroutine resumes when the
  /// task completes, receiving its value (or rethrowing its exception).
  /// The awaiter's ready/suspend steps are noexcept so the compiler can
  /// elide exception plumbing on every nested co_await (hot path: one
  /// awaited child task per simulated message).
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        handle.promise().continuation = parent;
        return handle;  // symmetric transfer: start the child now
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        SCSQ_CHECK(p.value.has_value()) << "task finished without a value";
        return std::move(*p.value);
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, nullptr);
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        handle.promise().continuation = parent;
        return handle;
      }
      void await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, nullptr);
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace scsq::sim
