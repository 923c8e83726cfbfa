// Counts every call of the global operator new in the benchmark process.
//
// The replacement forwards to malloc/aligned_alloc and frees with free,
// so the program's allocation behaviour is unchanged apart from one
// thread-local increment per call. libstdc++'s array, nothrow and sized
// variants forward to the four functions replaced here.
//
// Each thread counts into its own tally, so sweep workers do not contend
// on a shared cache line; a tally is folded into the process total when
// its thread exits, which happens before the thread can be joined.
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_retired{0};

struct Tally {
  std::uint64_t calls = 0;
  ~Tally() { g_retired.fetch_add(calls, std::memory_order_relaxed); }
};

thread_local Tally t_tally;

void* allocate(std::size_t size) {
  ++t_tally.calls;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  ++t_tally.calls;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t heap_allocs() {
  return t_tally.calls + g_retired.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
