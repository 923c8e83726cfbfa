#include "host_speed.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

// A discrete-event loop in miniature: a binary heap of timed events; each
// event chases pointers through a working set larger than L2, allocates
// and fills a small buffer, and schedules a successor. The buffers come
// from malloc, not operator new, so they stay out of heap_allocs.
std::uint64_t probe_work() {
  constexpr std::uint32_t kNodes = 1u << 15;  // 32 Ki nodes x 32 B = 1 MiB
  constexpr std::uint32_t kEvents = 200'000;
  constexpr std::uint32_t kPending = 32;
  struct Node {
    std::uint32_t next;
    std::uint32_t payload[7];
  };
  std::vector<Node> nodes(kNodes);
  // One cycle through every node, in an order fixed by an LCG shuffle.
  std::vector<std::uint32_t> order(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) order[i] = i;
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  for (std::uint32_t i = kNodes - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i], order[static_cast<std::uint32_t>(lcg >> 33) % (i + 1)]);
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    nodes[order[i]].next = order[(i + 1) % kNodes];
    nodes[order[i]].payload[0] = i;
  }
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (std::uint32_t i = 0; i < kPending; ++i) queue.emplace(i * 7919u, i * 1021u % kNodes);
  std::uint64_t sum = 0;
  for (std::uint32_t e = 0; e < kEvents; ++e) {
    auto [t, at] = queue.top();
    queue.pop();
    for (int hop = 0; hop < 4; ++hop) {
      sum += nodes[at].payload[0];
      at = nodes[at].next;
    }
    const std::size_t bytes = 32 + (at & 255u);
    auto* buf = static_cast<unsigned char*>(std::malloc(bytes));
    if (buf == nullptr) return 0;
    std::memset(buf, static_cast<int>(at & 255u), bytes);
    sum += buf[bytes / 2];
    std::free(buf);
    queue.emplace(t + 1 + (at & 4095u), at);
  }
  return sum;
}

}  // namespace

double host_probe_s(unsigned threads) {
  std::vector<std::uint64_t> sums(threads);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    for (unsigned i = 1; i < threads; ++i) {
      workers.emplace_back([&sums, i] { sums[i] = probe_work(); });
    }
    sums[0] = probe_work();
  }
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // Every thread does the same work, so every sum must match.
  for (auto v : sums) {
    if (v != sums[0] || v == 0) return 0.0;
  }
  return s;
}

}  // namespace perfbench
