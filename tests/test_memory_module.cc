/**
 * @file
 * Unit tests for the directory/memory module: state transitions,
 * transaction blocking, invalidation-ack collection, recalls, the
 * writeback-vs-recall race, the grant-floor rule for a Get from the
 * registered owner, and DRAM occupancy timing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/memory_module.hh"
#include "net/iface_buffer.hh"
#include "net/omega_network.hh"
#include "sim/event_queue.hh"

using namespace mcsim;
using mem::CoherenceMsg;
using mem::MemoryModule;
using mem::MsgKind;
using mem::NetMsg;

namespace
{

/** One module; outgoing messages captured instead of routed to caches. */
struct DirHarness
{
    EventQueue queue;
    net::OmegaNetwork<CoherenceMsg> respNet;
    mem::Port respPort;
    MemoryModule module;

    struct Sent
    {
        MsgKind kind;
        Addr line;
        ProcId proc;
        Tick at;
        std::uint32_t seq;
    };
    std::vector<Sent> sent;

    explicit DirHarness(unsigned line_bytes = 16)
        : respNet(queue, 16, 4,
                  [this](NetMsg &&m) {
                      sent.push_back({m.payload.kind, m.payload.lineAddr,
                                      m.payload.proc, queue.now(),
                                      m.payload.seq});
                  }),
          respPort(queue, respNet, 4, false),
          module(queue, 0, mem::MemoryParams{line_bytes, 7, 16}, respPort)
    {}

    /** Deliver a request at @p when, stamped with the @p seq a real
     *  cache sends: the grant being surrendered on Writeback/FlushData,
     *  the recall's stamp on RecallStale, the grant floor on Get*. */
    void
    request(MsgKind kind, Addr line, ProcId proc, Tick when = 0,
            std::uint32_t seq = 0)
    {
        queue.schedule(std::max(when, queue.now()), [this, kind, line, proc,
                                                     seq]() {
            NetMsg m;
            m.src = proc;
            m.dst = 0;
            m.bytes = mem::messageBytes(kind, 16);
            m.payload = CoherenceMsg{kind, line, proc, seq};
            module.handleRequest(std::move(m));
        });
    }

    void settle() { queue.run(); }

    /** Sent messages of one kind. */
    std::vector<Sent>
    ofKind(MsgKind kind) const
    {
        std::vector<Sent> out;
        for (const auto &s : sent)
            if (s.kind == kind)
                out.push_back(s);
        return out;
    }
};

} // namespace

TEST(MemoryModule, GetSharedFromUncached)
{
    DirHarness h;
    h.request(MsgKind::GetShared, 0x100, 3);
    h.settle();
    ASSERT_EQ(h.sent.size(), 1u);
    EXPECT_EQ(h.sent[0].kind, MsgKind::DataReplyShared);
    EXPECT_EQ(h.sent[0].proc, 3u);
    EXPECT_EQ(h.module.dirState(0x100), MemoryModule::DirState::Shared);
    EXPECT_EQ(h.module.presenceMask(0x100), 1u << 3);
    EXPECT_EQ(h.module.openTransactions(), 0u);
}

TEST(MemoryModule, FirstWordTimingSevenCyclesPlusBuffer)
{
    DirHarness h;
    h.request(MsgKind::GetShared, 0x100, 1, 10);
    h.settle();
    ASSERT_EQ(h.sent.size(), 1u);
    // Request delivered at t=10; first word at 17; buffer link +1; two
    // stages +2 => capture (delivery) at 20.
    EXPECT_EQ(h.sent[0].at, 20u);
}

TEST(MemoryModule, DramOccupancySerializesBackToBack)
{
    DirHarness h(64);  // 8 words per line
    h.request(MsgKind::GetShared, 0x000, 1, 10);
    h.request(MsgKind::GetShared, 0x040, 2, 10);
    h.settle();
    auto replies = h.ofKind(MsgKind::DataReplyShared);
    ASSERT_EQ(replies.size(), 2u);
    // Second access starts when the first's 7+8 busy window ends.
    EXPECT_GE(replies[1].at - replies[0].at, 8u);
    EXPECT_EQ(h.module.stats().busyCycles, 2u * (7 + 8));
}

TEST(MemoryModule, SharersAccumulate)
{
    DirHarness h;
    h.request(MsgKind::GetShared, 0x200, 0);
    h.request(MsgKind::GetShared, 0x200, 5);
    h.settle();
    EXPECT_EQ(h.module.presenceMask(0x200), (1u << 0) | (1u << 5));
}

TEST(MemoryModule, GetExclusiveInvalidatesSharers)
{
    DirHarness h;
    h.request(MsgKind::GetShared, 0x300, 1);
    h.request(MsgKind::GetShared, 0x300, 2);
    h.settle();
    h.request(MsgKind::GetExclusive, 0x300, 3);
    h.settle();
    // Two invalidates sent; the reply waits for both acks.
    auto invs = h.ofKind(MsgKind::Invalidate);
    ASSERT_EQ(invs.size(), 2u);
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyExclusive).size(), 0u);
    EXPECT_EQ(h.module.openTransactions(), 1u);

    h.request(MsgKind::InvAck, 0x300, 1);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyExclusive).size(), 0u);
    h.request(MsgKind::InvAck, 0x300, 2);
    h.settle();
    ASSERT_EQ(h.ofKind(MsgKind::DataReplyExclusive).size(), 1u);
    EXPECT_EQ(h.module.dirState(0x300), MemoryModule::DirState::Exclusive);
    EXPECT_EQ(h.module.stats().invalidatesSent, 2u);
}

TEST(MemoryModule, RequesterAmongSharersNotInvalidated)
{
    DirHarness h;
    h.request(MsgKind::GetShared, 0x400, 1);
    h.settle();
    // Proc 1 upgrades (self-invalidated its S copy, sends GetExclusive):
    // no Invalidate should go anywhere.
    h.request(MsgKind::GetExclusive, 0x400, 1);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::Invalidate).size(), 0u);
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyExclusive).size(), 1u);
}

TEST(MemoryModule, GetSharedRecallsDirtyOwner)
{
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0x500, 1);
    h.settle();
    h.request(MsgKind::GetShared, 0x500, 2);
    h.settle();
    ASSERT_EQ(h.ofKind(MsgKind::RecallShared).size(), 1u);
    EXPECT_EQ(h.ofKind(MsgKind::RecallShared)[0].proc, 1u);
    EXPECT_EQ(h.module.openTransactions(), 1u);
    // Owner flushes; requester gets data; owner stays a sharer.
    h.request(MsgKind::FlushData, 0x500, 1);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyShared).size(), 1u);
    EXPECT_EQ(h.module.dirState(0x500), MemoryModule::DirState::Shared);
    EXPECT_EQ(h.module.presenceMask(0x500), (1u << 1) | (1u << 2));
}

TEST(MemoryModule, GetExclusiveRecallsAndTransfersOwnership)
{
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0x600, 1);
    h.settle();
    h.request(MsgKind::GetExclusive, 0x600, 2);
    h.settle();
    ASSERT_EQ(h.ofKind(MsgKind::RecallExclusive).size(), 1u);
    h.request(MsgKind::FlushData, 0x600, 1);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyExclusive).size(), 2u);
    EXPECT_EQ(h.module.dirState(0x600), MemoryModule::DirState::Exclusive);
    EXPECT_EQ(h.module.presenceMask(0x600), 1u << 2);
}

TEST(MemoryModule, WritebackReturnsLineToMemory)
{
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0x700, 1);
    h.settle();
    h.request(MsgKind::Writeback, 0x700, 1, 0, /*grant*/ 1);
    h.settle();
    EXPECT_EQ(h.module.dirState(0x700), MemoryModule::DirState::Uncached);
    EXPECT_EQ(h.module.stats().writebacks, 1u);
}

TEST(MemoryModule, WritebackRecallRaceSatisfiesRequester)
{
    // Owner's eviction writeback and a recall (triggered by another GetS)
    // cross on the wire: the directory must use the writeback as the
    // recall data and ignore the RecallStale.
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0x800, 1);
    h.settle();
    h.request(MsgKind::GetShared, 0x800, 2);  // triggers recall to 1
    h.settle();
    ASSERT_EQ(h.ofKind(MsgKind::RecallShared).size(), 1u);
    // Owner already evicted: its writeback arrives, then the stale notice.
    h.request(MsgKind::Writeback, 0x800, 1, 0, /*grant*/ 1);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyShared).size(), 1u);
    EXPECT_EQ(h.module.presenceMask(0x800), 1u << 2);  // owner dropped out
    h.request(MsgKind::RecallStale, 0x800, 1, 0, /*recall stamp*/ 2);
    h.settle();  // must be absorbed quietly
    EXPECT_EQ(h.module.openTransactions(), 0u);
}

TEST(MemoryModule, OwnerReRequestWaitsForOwnWriteback)
{
    // Owner evicts (writeback in flight) then re-requests the same line;
    // the directory sees GetShared from the registered owner and waits.
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0x900, 1);
    h.settle();
    h.request(MsgKind::GetShared, 0x900, 1, 0, /*floor*/ 2);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::RecallShared).size(), 0u);
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyShared).size(), 0u);
    EXPECT_EQ(h.module.openTransactions(), 1u);
    h.request(MsgKind::Writeback, 0x900, 1, 0, /*grant*/ 1);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyShared).size(), 1u);
    EXPECT_EQ(h.module.dirState(0x900), MemoryModule::DirState::Shared);
}

TEST(MemoryModule, OwnerGetExclusiveAboveGrantWaitsForWriteback)
{
    // The owner evicted its grant-1 copy (floor 2) and re-requests with
    // write permission before its Writeback lands: no recall, and the
    // request is served once the Writeback arrives.
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0x980, 1);
    h.settle();
    h.request(MsgKind::GetExclusive, 0x980, 1, 0, /*floor*/ 2);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::RecallExclusive).size(), 0u);
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyExclusive).size(), 1u);
    EXPECT_EQ(h.module.openTransactions(), 1u);
    h.request(MsgKind::Writeback, 0x980, 1, 0, /*grant*/ 1);
    h.settle();
    auto grants = h.ofKind(MsgKind::DataReplyExclusive);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[1].seq, 2u);
    EXPECT_EQ(h.module.dirState(0x980), MemoryModule::DirState::Exclusive);
    EXPECT_EQ(h.module.openTransactions(), 0u);
    EXPECT_EQ(h.module.stats().staleMessages, 0u);
}

TEST(MemoryModule, OwnerGetExclusiveAtGrantIsReGranted)
{
    // The owner's floor is not past its grant: the grant was lost (or
    // this is a duplicate request). Re-grant at the same seq, no recall.
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0x9c0, 1);
    h.settle();
    h.request(MsgKind::GetExclusive, 0x9c0, 1, 0, /*floor*/ 1);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::RecallExclusive).size(), 0u);
    auto grants = h.ofKind(MsgKind::DataReplyExclusive);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[0].seq, 1u);
    EXPECT_EQ(grants[1].seq, 1u);
    EXPECT_EQ(h.module.openTransactions(), 0u);
    // The re-granted copy surrenders under the same seq.
    h.request(MsgKind::Writeback, 0x9c0, 1, 0, /*grant*/ 1);
    h.settle();
    EXPECT_EQ(h.module.dirState(0x9c0), MemoryModule::DirState::Uncached);
    EXPECT_EQ(h.module.stats().staleMessages, 0u);
}

TEST(MemoryModule, OwnerGetSharedAtGrantSelfRecalls)
{
    // GetShared from the registered owner with its floor at the grant:
    // the directory recalls the requester itself; a RecallStale at the
    // recall's stamp completes the transaction from memory.
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0xe00, 1);
    h.settle();
    h.request(MsgKind::GetShared, 0xe00, 1, 0, /*floor*/ 1);
    h.settle();
    auto recalls = h.ofKind(MsgKind::RecallShared);
    ASSERT_EQ(recalls.size(), 1u);
    EXPECT_EQ(recalls[0].proc, 1u);
    EXPECT_EQ(recalls[0].seq, 2u);
    EXPECT_EQ(h.module.openTransactions(), 1u);
    h.request(MsgKind::RecallStale, 0xe00, 1, 0, /*recall stamp*/ 2);
    h.settle();
    auto replies = h.ofKind(MsgKind::DataReplyShared);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].proc, 1u);
    EXPECT_EQ(replies[0].seq, 2u);
    EXPECT_EQ(h.module.dirState(0xe00), MemoryModule::DirState::Shared);
    EXPECT_EQ(h.module.openTransactions(), 0u);
    EXPECT_EQ(h.module.stats().staleMessages, 0u);
}

TEST(MemoryModule, RecallStaleBehindClosingWritebackIsAbsorbed)
{
    // The recall target's Writeback lands first and its finish is still
    // pending (DRAM read in progress) when the RecallStale arrives: the
    // notice is benign and not counted as stale.
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0xf00, 1);
    h.settle();
    h.request(MsgKind::GetShared, 0xf00, 2);
    h.settle();
    const Tick t = h.queue.now() + 1;
    h.request(MsgKind::Writeback, 0xf00, 1, t, /*grant*/ 1);
    h.request(MsgKind::RecallStale, 0xf00, 1, t + 1, /*recall stamp*/ 2);
    h.settle();
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyShared).size(), 1u);
    EXPECT_EQ(h.module.openTransactions(), 0u);
    EXPECT_EQ(h.module.stats().writebacks, 1u);
    EXPECT_EQ(h.module.stats().staleMessages, 0u);
}

TEST(MemoryModule, RecallStaleFromEarlierRecallIsCounted)
{
    // A RecallStale whose stamp names neither the open recall nor the
    // last closed one is a long-delayed leftover: counted, and it must
    // not close the open transaction.
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0xf40, 1);
    h.settle();
    h.request(MsgKind::GetShared, 0xf40, 2);  // recall stamped 2
    h.settle();
    h.request(MsgKind::RecallStale, 0xf40, 1, 0, /*old stamp*/ 0);
    h.settle();
    EXPECT_EQ(h.module.openTransactions(), 1u);
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyShared).size(), 0u);
    EXPECT_EQ(h.module.stats().staleMessages, 1u);
}

TEST(MemoryModule, RequestsQueueBehindOpenTransaction)
{
    DirHarness h;
    h.request(MsgKind::GetExclusive, 0xa00, 1);
    h.settle();
    // Two competing requests while a recall is open.
    h.request(MsgKind::GetShared, 0xa00, 2);
    h.settle();
    h.request(MsgKind::GetShared, 0xa00, 3);
    h.settle();
    EXPECT_EQ(h.module.stats().queuedRequests, 1u);
    h.request(MsgKind::FlushData, 0xa00, 1);
    h.settle();
    // First waiter served from Shared state directly.
    EXPECT_EQ(h.ofKind(MsgKind::DataReplyShared).size(), 2u);
    EXPECT_EQ(h.module.presenceMask(0xa00),
              (1u << 1) | (1u << 2) | (1u << 3));
}

TEST(MemoryModule, RejectsBadConfig)
{
    mem::MemoryParams p;
    p.lineBytes = 10;
    EXPECT_THROW(p.validate(), FatalError);
    p = mem::MemoryParams{};
    p.numProcs = 65;
    EXPECT_THROW(p.validate(), FatalError);
}
