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
//
// The same counter bounds the statement path: re-resolving an existing
// registry series allocates nothing, creating one costs about a block,
// and one grep scan allocates its matches plus a few buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "funcs/textgen.hpp"
#include "hw/machine.hpp"
#include "obs/metrics.hpp"
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

TEST(RegistryAllocs, ResolvingAnExistingSeriesAllocatesNothing) {
  obs::Registry registry;
  const obs::Labels labels{{"type", "tcp_to_bg"},
                           {"src", "backend_cluster:0"},
                           {"dst", "bluegene_partition:3"}};
  const std::vector<double> bounds = obs::Histogram::exp_buckets(1e-6, 4.0, 12);
  obs::Counter* counter = &registry.counter("transport.link.frames", labels);
  obs::Gauge* gauge = &registry.gauge("transport.link.stall_s", labels);
  obs::Histogram* histogram =
      &registry.histogram("transport.link.frame_latency_s", labels, bounds);
  obs::Gauge* unlabeled = &registry.gauge("engine.setup_s");

  const std::uint64_t before = g_allocs;
  const bool same = &registry.counter("transport.link.frames", labels) == counter &&
                    &registry.gauge("transport.link.stall_s", labels) == gauge &&
                    &registry.histogram("transport.link.frame_latency_s", labels, bounds) ==
                        histogram &&
                    &registry.gauge("engine.setup_s") == unlabeled;
  const std::uint64_t allocs = g_allocs - before;
  EXPECT_TRUE(same);
  EXPECT_EQ(allocs, 0u) << "re-resolving four existing series";
  EXPECT_EQ(registry.size(), 4u);
}

// A link's five series share one label set: creating them for many
// links costs at most one block per series, amortized (labels stored
// once per link, histogram buckets, index and storage growth).
TEST(RegistryAllocs, CreatingASeriesCostsAboutOneBlock) {
  obs::Registry registry;
  const std::vector<double> bounds = obs::Histogram::exp_buckets(1e-6, 4.0, 12);
  constexpr int kLinks = 200;
  std::vector<obs::Labels> labels;
  for (int i = 0; i < kLinks; ++i) {
    labels.push_back({{"type", "tcp"}, {"src", "be:" + std::to_string(i)}, {"dst", "fe:0"}});
  }
  const std::uint64_t before = g_allocs;
  for (const auto& l : labels) {
    registry.counter("transport.link.frames", l);
    registry.counter("transport.link.bytes", l);
    registry.counter("transport.link.stalls", l);
    registry.gauge("transport.link.stall_s", l);
    registry.histogram("transport.link.frame_latency_s", l, bounds);
  }
  const std::uint64_t allocs = g_allocs - before;
  ASSERT_EQ(registry.size(), 5u * kLinks);
  EXPECT_LE(allocs, registry.size()) << static_cast<double>(allocs) / registry.size()
                                     << " allocations per series";
}

// One grep scan generates the file once: the line buffer, the match list
// and one string per matching line — nothing per scanned line.
TEST(GrepAllocs, OneScanAllocatesItsMatchesAndAFewBuffers) {
  for (const char* pattern : {"pulsar", "ea"}) {
    for (std::int64_t i = 1; i <= 50; ++i) {
      const std::string file = funcs::filename_for(i);
      const std::uint64_t before = g_allocs;
      const funcs::GrepScan scan = funcs::scan_file(pattern, file);
      const std::uint64_t allocs = g_allocs - before;
      EXPECT_LE(allocs, scan.matches.size() + 4)
          << file << " '" << pattern << "': " << scan.matches.size() << " matches";
    }
  }
}

}  // namespace
}  // namespace scsq
