/**
 * @file
 * Unit tests for the overflow queue of a controller's outbound port
 * (net::IfaceBuffer::send): messages beyond the buffer's capacity wait in
 * an unbounded queue, refill the buffer as slots free, and, with WO2 load
 * bypassing on, a bypass-eligible message jumps the overflowed ones.
 */

#include <gtest/gtest.h>

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

using Msg = net::Msg<Payload>;

struct Harness
{
    EventQueue queue;
    std::vector<int> delivered;  // payload ids in delivery order
    net::OmegaNetwork<Payload> network;
    net::IfaceBuffer<Payload> buffer;

    explicit Harness(unsigned capacity = 2, bool bypass = false)
        : network(queue, 16, 4,
                  [this](Msg &&m) { delivered.push_back(m.payload.id); }),
          buffer(queue, network, capacity, bypass)
    {}

    Msg
    make(int id, std::uint32_t bytes = 72, bool bypass = false)
    {
        Msg m;
        m.src = 0;
        m.dst = 3;
        m.bytes = bytes;
        m.bypassEligible = bypass;
        m.payload.id = id;
        return m;
    }
};

} // namespace

TEST(Outbox, OverflowsBeyondBufferCapacity)
{
    Harness h(2);
    h.queue.schedule(1, [&]() {
        for (int i = 0; i < 6; ++i)
            h.buffer.send(h.make(i));
        EXPECT_GT(h.buffer.backlog(), 0u);
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(h.delivered[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(h.buffer.backlog(), 0u);
}

TEST(Outbox, OverflowsAndRefillsWhenFull)
{
    Harness h(2);
    h.queue.schedule(10, [&]() {
        h.buffer.send(h.make(1));
        h.buffer.send(h.make(2));
        // First message drains its slot at t=10; but at this instant both
        // slots are held, so the third waits in the overflow queue.
        EXPECT_TRUE(h.buffer.full());
        h.buffer.send(h.make(3, 8));
        EXPECT_EQ(h.buffer.occupancy(), 2u);
        EXPECT_EQ(h.buffer.backlog(), 1u);
    });
    h.queue.run();
    // The first drain freed a slot and the overflowed message took it:
    // one reject, no retry needed.
    EXPECT_EQ(h.buffer.stats().fullRejects, 1u);
    EXPECT_EQ(h.buffer.stats().enqueued, 3u);
    EXPECT_EQ(h.buffer.backlog(), 0u);
    ASSERT_EQ(h.delivered.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(h.delivered[static_cast<std::size_t>(i)], i + 1);
}

TEST(Outbox, ResidencyStartsAtBufferEntry)
{
    // One slot, three 9-flit messages sent at t=10. The first drains at
    // 10 and the second takes its slot then; the third waits in the
    // overflow queue until the second drains at 19. Residency counts
    // only buffer time: 0 + 9 + 9, not the 0 + 9 + 18 since send.
    Harness h(1);
    h.queue.schedule(10, [&]() {
        for (int i = 0; i < 3; ++i)
            h.buffer.send(h.make(i));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 3u);
    EXPECT_EQ(h.buffer.stats().residencyCycles, 18u);
}

TEST(Outbox, BypassAppliesInOverflowQueue)
{
    Harness h(1, /*bypass=*/true);
    h.queue.schedule(1, [&]() {
        h.buffer.send(h.make(0));           // into the buffer
        h.buffer.send(h.make(1));           // overflow
        h.buffer.send(h.make(2));           // overflow
        h.buffer.send(h.make(3, 8, true));  // load: jumps the overflow
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 4u);
    EXPECT_EQ(h.delivered[0], 0);
    EXPECT_EQ(h.delivered[1], 3);
    EXPECT_EQ(h.delivered[2], 1);
    EXPECT_EQ(h.delivered[3], 2);
}

TEST(Outbox, NoBypassReordersNothing)
{
    Harness h(1, /*bypass=*/false);
    h.queue.schedule(1, [&]() {
        for (int i = 0; i < 4; ++i)
            h.buffer.send(h.make(i, 72, i == 3));
    });
    h.queue.run();
    ASSERT_EQ(h.delivered.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(h.delivered[static_cast<std::size_t>(i)], i);
}
