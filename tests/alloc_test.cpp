// Per-frame allocation regression test for the transport data plane.
//
// The binary replaces the global operator new with a counting one. For
// every link type that make_link builds on the LOFAR Machine, a stream
// of 2N data frames must perform exactly as many operator new calls as
// a stream of N once one warm-up stream has filled the pools (frames,
// coroutine frames, simulator slabs, registry series): whatever a
// stream allocates is then per-stream setup, never per-frame work. The
// TCP links exercise the EthernetFabric factor reads and the split
// schedule's delivery announcements; the MPI link the torus route walk
// and its per-message completion events.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "hw/machine.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "transport/links.hpp"

namespace {

// Single-threaded test binary: a plain counter is enough.
std::uint64_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
// GCC pairs operator new with its builtin delete and flags the free()
// here once gtest's new/delete pairs are inlined; both sides are ours.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace scsq {
namespace {

using transport::Frame;

constexpr std::uint64_t kFrameBytes = 64 * 1024;

// Sends `frames` data frames and the EOS frame through `link` with two
// send buffers (the drivers' double buffering), then waits for drain.
sim::Task<void> produce(sim::Simulator& sim, transport::Link& link,
                        transport::FramePool& pool, int frames) {
  sim::Resource send_buffers(sim, 2, "sendbuf");
  for (int i = 0; i <= frames; ++i) {
    co_await send_buffers.acquire();
    Frame frame = pool.acquire();
    frame.bytes = i < frames ? kFrameBytes : 0;
    frame.eos = i == frames;
    frame.seq = static_cast<std::uint64_t>(i);
    link.start_transmit(std::move(frame), [&send_buffers] { send_buffers.release(); });
  }
  co_await link.drained().wait();
}

// Drains the inbox, recycling every frame into its pool.
sim::Task<void> consume(sim::Channel<Frame>& inbox, int& delivered) {
  while (auto frame = co_await inbox.recv()) {
    const bool eos = frame->eos;
    if (!eos) ++delivered;
    frame->pool->recycle(std::move(*frame));
    if (eos) break;
  }
}

// operator new calls made by one whole stream of `frames` data frames:
// link construction, the transfer and the teardown.
std::uint64_t stream_allocs(hw::Machine& machine, const hw::Location& src,
                            const hw::Location& dst, int frames) {
  auto& sim = machine.sim();
  const std::uint64_t before = g_allocs;
  int delivered = 0;
  {
    sim::Channel<Frame> inbox(sim, 2);
    auto link = transport::make_link(machine, src, dst, inbox, /*source_tag=*/1);
    sim.spawn(produce(sim, *link, machine.frame_pool(), frames));
    sim.spawn(consume(inbox, delivered));
    sim.run();
  }
  const std::uint64_t allocs = g_allocs - before;
  EXPECT_EQ(delivered, frames);
  return allocs;
}

struct LinkCase {
  const char* type;
  hw::Location src;
  hw::Location dst;
};

void PrintTo(const LinkCase& c, std::ostream* os) { *os << c.type; }

class FrameAllocs : public ::testing::TestWithParam<LinkCase> {};

TEST_P(FrameAllocs, DoublingTheStreamAddsNoAllocations) {
  const LinkCase& c = GetParam();
  sim::Simulator sim;
  hw::Machine machine(sim);
  {
    sim::Channel<Frame> probe(sim, 1);
    ASSERT_EQ(transport::make_link(machine, c.src, c.dst, probe, 1)->type(), c.type);
  }
  constexpr int kN = 64;
  stream_allocs(machine, c.src, c.dst, 2 * kN);  // warm-up
  const std::uint64_t n = stream_allocs(machine, c.src, c.dst, kN);
  const std::uint64_t two_n = stream_allocs(machine, c.src, c.dst, 2 * kN);
  EXPECT_EQ(two_n, n) << c.type << ": " << kN << " extra data frames made "
                      << static_cast<double>(two_n - n) / kN << " allocations each";
}

INSTANTIATE_TEST_SUITE_P(
    Links, FrameAllocs,
    ::testing::Values(LinkCase{"tcp_to_bg", {"be", 0}, {"bg", 3}},
                      LinkCase{"tcp_from_bg", {"bg", 2}, {"fe", 0}},
                      LinkCase{"tcp", {"be", 0}, {"fe", 0}},
                      LinkCase{"mpi", {"bg", 1}, {"bg", 0}}),
    [](const ::testing::TestParamInfo<LinkCase>& info) { return std::string(info.param.type); });

}  // namespace
}  // namespace scsq
