/**
 * @file
 * Timing tests for the Omega network transport and the interface buffers:
 * uncontended latency, flit-proportional port occupancy, FIFO contention,
 * buffer capacity, and WO2 load bypassing. The overflow queue behind a
 * full buffer is covered by test_outbox.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/iface_buffer.hh"
#include "net/omega_network.hh"
#include "sim/event_queue.hh"

using namespace mcsim;

namespace
{

struct Payload
{
    int id = 0;
};

using Net = net::OmegaNetwork<Payload>;
using Buf = net::IfaceBuffer<Payload>;
using Msg = net::Msg<Payload>;

struct Delivery
{
    int id;
    Tick at;
    std::uint32_t dst;
};

struct Harness
{
    EventQueue queue;
    std::vector<Delivery> delivered;
    Net network;

    explicit Harness(unsigned ports = 16, unsigned radix = 4)
        : network(queue, ports, radix, [this](Msg &&m) {
              delivered.push_back({m.payload.id, queue.now(), m.dst});
          })
    {}

    Msg
    make(int id, std::uint32_t src, std::uint32_t dst,
         std::uint32_t bytes = 8, bool bypass = false)
    {
        Msg m;
        m.src = src;
        m.dst = dst;
        m.bytes = bytes;
        m.bypassEligible = bypass;
        m.payload.id = id;
        return m;
    }
};

} // namespace

TEST(Message, FlitCount)
{
    Msg m;
    m.bytes = 8;
    EXPECT_EQ(m.flits(), 1u);
    m.bytes = 9;
    EXPECT_EQ(m.flits(), 2u);
    m.bytes = 72;  // header + 64-byte line
    EXPECT_EQ(m.flits(), 9u);
    m.bytes = 0;
    EXPECT_EQ(m.flits(), 1u);
}

TEST(OmegaNetwork, UncontendedHeadLatencyEqualsStages)
{
    Harness h;
    EXPECT_EQ(h.network.headLatency(), 2u);
    h.queue.schedule(100, [&]() { h.network.inject(h.make(1, 3, 9)); });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].at, 102u);  // one cycle per stage
    EXPECT_EQ(h.delivered[0].dst, 9u);
}

TEST(OmegaNetwork, LatencyIndependentOfMessageSize)
{
    // Pipelined flits: the head arrives after `stages` cycles no matter
    // how long the message is (paper section 3.1).
    for (std::uint32_t bytes : {8u, 16u, 64u, 72u}) {
        Harness h;
        h.queue.schedule(50,
                         [&, bytes]() {
                             h.network.inject(h.make(1, 0, 15, bytes));
                         });
        h.queue.run();
        ASSERT_EQ(h.delivered.size(), 1u);
        EXPECT_EQ(h.delivered[0].at, 52u) << "bytes=" << bytes;
    }
}

TEST(OmegaNetwork, PortOccupancySerializesBySize)
{
    // Two same-path messages: the second's head waits for the first's
    // flits to clear each port.
    Harness h;
    h.queue.schedule(10, [&]() {
        h.network.inject(h.make(1, 0, 9, 72));  // 9 flits
        h.network.inject(h.make(2, 0, 9, 8));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].at, 12u);
    // Message 2 starts stage 0 when the port frees at t=19, head out 20,
    // stage 1 likewise gated.
    EXPECT_EQ(h.delivered[1].at, 21u);
    EXPECT_GT(h.network.stats().queueCycles, 0u);
}

TEST(OmegaNetwork, DisjointPathsDoNotInterfere)
{
    Harness h;
    h.queue.schedule(10, [&]() {
        h.network.inject(h.make(1, 0, 0, 72));
        h.network.inject(h.make(2, 5, 10, 8));  // different switches
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].at, 12u);
    EXPECT_EQ(h.delivered[1].at, 12u);
}

TEST(OmegaNetwork, HotSpotContentionAccumulates)
{
    // All 16 sources target one destination: final-stage port serializes.
    Harness h;
    h.queue.schedule(10, [&]() {
        for (std::uint32_t s = 0; s < 16; ++s)
            h.network.inject(h.make(static_cast<int>(s), s, 7, 8));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 16u);
    Tick last = 0;
    for (const auto &d : h.delivered) {
        EXPECT_GT(d.at, last);  // strictly serialized arrivals
        last = d.at;
    }
    EXPECT_GE(last, 10u + 16u);  // at least one cycle apart each
    EXPECT_EQ(h.network.stats().messages, 16u);
}

TEST(OmegaNetwork, StatsCountMessagesAndFlits)
{
    Harness h;
    h.queue.schedule(1, [&]() {
        h.network.inject(h.make(1, 0, 1, 8));
        h.network.inject(h.make(2, 2, 3, 72));
    });
    h.queue.run();
    EXPECT_EQ(h.network.stats().messages, 2u);
    EXPECT_EQ(h.network.stats().flits, 10u);
    EXPECT_GT(h.network.stats().latencyCycles, 0u);
}

// ---------------------------------------------------------------------
// Interface buffer
// ---------------------------------------------------------------------

namespace
{

struct BufHarness : Harness
{
    Buf buffer;

    explicit BufHarness(unsigned capacity = 4, bool bypass = false)
        : Harness(), buffer(queue, network, capacity, bypass)
    {}
};

} // namespace

TEST(IfaceBuffer, AddsOneCycleBeforeInjection)
{
    BufHarness h;
    h.queue.schedule(10, [&]() { h.buffer.send(h.make(1, 0, 5, 8)); });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    // drain at 10, head at stage0 at 11, delivered at 13.
    EXPECT_EQ(h.delivered[0].at, 13u);
}

TEST(IfaceBuffer, LinkSerializesByFlits)
{
    BufHarness h;
    h.queue.schedule(10, [&]() {
        h.buffer.send(h.make(1, 0, 5, 72));  // 9 flits
        h.buffer.send(h.make(2, 0, 5, 8));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].id, 1);
    // Second message starts the link at t=19.
    EXPECT_GE(h.delivered[1].at, 22u);
}

TEST(IfaceBuffer, BypassPromotesLoads)
{
    BufHarness h(8, /*bypass=*/true);
    h.queue.schedule(10, [&]() {
        // Three stores queue; then a bypass-eligible load jumps every
        // queued message, including the one at the front -- the paper's
        // "simple, but slightly flawed" behaviour (section 3.2): nothing
        // has started draining yet at this tick.
        h.buffer.send(h.make(1, 0, 5, 72));
        h.buffer.send(h.make(2, 0, 5, 72));
        h.buffer.send(h.make(3, 0, 5, 72));
        h.buffer.send(h.make(4, 0, 5, 8, /*bypass=*/true));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 4u);
    EXPECT_EQ(h.delivered[0].id, 4);  // jumped 1, 2 and 3
    EXPECT_EQ(h.delivered[1].id, 1);
    EXPECT_EQ(h.delivered[2].id, 2);
    EXPECT_EQ(h.delivered[3].id, 3);
    EXPECT_EQ(h.buffer.stats().bypasses, 1u);
    EXPECT_EQ(h.buffer.stats().messagesJumped, 3u);
}

TEST(IfaceBuffer, NoBypassWhenDisabled)
{
    BufHarness h(8, /*bypass=*/false);
    h.queue.schedule(10, [&]() {
        h.buffer.send(h.make(1, 0, 5, 72));
        h.buffer.send(h.make(2, 0, 5, 72));
        h.buffer.send(h.make(3, 0, 5, 8, true));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 3u);
    EXPECT_EQ(h.delivered[1].id, 2);
    EXPECT_EQ(h.delivered[2].id, 3);
    EXPECT_EQ(h.buffer.stats().bypasses, 0u);
}

TEST(IfaceBuffer, FifoOrderPreserved)
{
    BufHarness h(8);
    h.queue.schedule(5, [&]() {
        for (int i = 0; i < 6; ++i)
            h.buffer.send(h.make(i, 0, 3, 8));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(h.delivered[static_cast<std::size_t>(i)].id, i);
}
