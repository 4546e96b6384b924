/**
 * @file
 * Unit tests for the lockup-free write-back cache against a real
 * directory/memory back end: hit/miss classification, the
 * write-to-shared-line policy, LRU and writeback on eviction, MSHR
 * merging and conflicts, coherence request handling, and the grant floor
 * a re-request carries.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "mem/cache.hh"
#include "mem/memory_module.hh"
#include "net/iface_buffer.hh"
#include "net/omega_network.hh"
#include "sim/event_queue.hh"

using namespace mcsim;
using mem::AccessOutcome;
using mem::AccessType;
using mem::Cache;

namespace
{

/** Two caches + four modules wired through real networks. */
struct MemHarness
{
    static constexpr unsigned numPorts = 4;

    EventQueue queue;
    net::OmegaNetwork<mem::CoherenceMsg> reqNet;
    net::OmegaNetwork<mem::CoherenceMsg> respNet;
    std::vector<std::unique_ptr<mem::Port>> reqPorts;
    std::vector<std::unique_ptr<mem::Port>> respPorts;
    std::vector<std::unique_ptr<mem::MemoryModule>> modules;
    std::vector<std::unique_ptr<Cache>> caches;
    std::vector<std::vector<std::pair<std::uint64_t, Tick>>> completions;
    /** Every request-network message, as delivered to its module. */
    std::vector<mem::CoherenceMsg> requests;
    /** While set, Writebacks are parked here instead of delivered, as a
     *  slow link would delay them; releaseWritebacks() delivers them. */
    bool holdWritebacks = false;
    std::vector<mem::NetMsg> heldWritebacks;

    explicit MemHarness(mem::CacheParams cache_params = {})
        : reqNet(queue, numPorts, 4,
                 [this](mem::NetMsg &&m) {
                     if (holdWritebacks &&
                         m.payload.kind == mem::MsgKind::Writeback) {
                         heldWritebacks.push_back(std::move(m));
                         return;
                     }
                     requests.push_back(m.payload);
                     modules[m.dst]->handleRequest(std::move(m));
                 }),
          respNet(queue, numPorts, 4, [this](mem::NetMsg &&m) {
              caches[m.dst]->handleResponse(std::move(m));
          })
    {
        mem::MemoryParams mp;
        mp.lineBytes = cache_params.lineBytes;
        mp.numProcs = numPorts;
        for (unsigned i = 0; i < numPorts; ++i) {
            respPorts.push_back(
                std::make_unique<mem::Port>(queue, respNet, 4, false));
            modules.push_back(std::make_unique<mem::MemoryModule>(
                queue, i, mp, *respPorts.back()));
        }
        completions.resize(2);
        for (unsigned p = 0; p < 2; ++p) {
            reqPorts.push_back(
                std::make_unique<mem::Port>(queue, reqNet, 4, false));
            caches.push_back(std::make_unique<Cache>(
                queue, p, cache_params, *reqPorts.back(), numPorts));
            caches.back()->setCompletionHandler(
                [this, p](std::uint64_t cookie) {
                    completions[p].emplace_back(cookie, queue.now());
                });
        }
    }

    Cache &c0() { return *caches[0]; }
    Cache &c1() { return *caches[1]; }

    void settle() { queue.run(); }

    void
    releaseWritebacks()
    {
        holdWritebacks = false;
        for (auto &m : heldWritebacks) {
            requests.push_back(m.payload);
            modules[m.dst]->handleRequest(std::move(m));
        }
        heldWritebacks.clear();
    }
};

mem::CacheParams
smallParams()
{
    mem::CacheParams p;
    p.cacheBytes = 512;  // 16 sets x 2 ways x 16B
    p.lineBytes = 16;
    p.numMshrs = 5;
    return p;
}

} // namespace

TEST(Cache, ParamsValidation)
{
    mem::CacheParams p = smallParams();
    p.lineBytes = 12;
    EXPECT_THROW(p.validate(), FatalError);
    p = smallParams();
    p.numMshrs = 0;
    EXPECT_THROW(p.validate(), FatalError);
    p = smallParams();
    p.cacheBytes = 500;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Cache, ColdMissThenHit)
{
    MemHarness h(smallParams());
    EXPECT_EQ(h.c0().access(0x100, AccessType::Load, 1),
              AccessOutcome::Miss);
    h.settle();
    ASSERT_EQ(h.completions[0].size(), 1u);
    EXPECT_EQ(h.completions[0][0].first, 1u);
    EXPECT_EQ(h.c0().lineState(0x100), Cache::LineState::Shared);
    EXPECT_EQ(h.c0().access(0x108, AccessType::Load, 2),
              AccessOutcome::Hit);  // same 16B line
    EXPECT_EQ(h.c0().stats().loads, 2u);
    EXPECT_EQ(h.c0().stats().loadHits, 1u);
}

TEST(Cache, StoreMissInstallsModified)
{
    MemHarness h(smallParams());
    EXPECT_EQ(h.c0().access(0x200, AccessType::Store, 1),
              AccessOutcome::Miss);
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x200), Cache::LineState::Modified);
    EXPECT_EQ(h.c0().access(0x208, AccessType::Store, 2),
              AccessOutcome::Hit);
}

TEST(Cache, WriteToSharedLineIsAWriteMiss)
{
    // Paper section 3.3: a write to a line held read-only invalidates the
    // local copy and refetches with write permission.
    MemHarness h(smallParams());
    h.c0().access(0x300, AccessType::Load, 1);
    h.settle();
    ASSERT_EQ(h.c0().lineState(0x300), Cache::LineState::Shared);
    EXPECT_EQ(h.c0().access(0x300, AccessType::Store, 2),
              AccessOutcome::Miss);
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x300), Cache::LineState::Modified);
    EXPECT_EQ(h.c0().stats().stores, 1u);
    EXPECT_EQ(h.c0().stats().storeHits, 0u);
}

TEST(Cache, LoadsMergeOntoPendingFill)
{
    MemHarness h(smallParams());
    EXPECT_EQ(h.c0().access(0x400, AccessType::Load, 1),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().access(0x408, AccessType::Load, 2),
              AccessOutcome::Merged);
    h.settle();
    ASSERT_EQ(h.completions[0].size(), 2u);
    // Both complete at the same fill.
    EXPECT_EQ(h.completions[0][0].second, h.completions[0][1].second);
    EXPECT_EQ(h.c0().stats().mergedAccesses, 1u);
}

TEST(Cache, StoreOntoPendingSharedFillBlocks)
{
    MemHarness h(smallParams());
    EXPECT_EQ(h.c0().access(0x500, AccessType::Load, 1),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().access(0x500, AccessType::Store, 2),
              AccessOutcome::Blocked);
    h.settle();
    // After the fill the store can retry and becomes a write miss.
    EXPECT_EQ(h.c0().access(0x500, AccessType::Store, 3),
              AccessOutcome::Miss);
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x500), Cache::LineState::Modified);
}

TEST(Cache, StoreMergesOntoPendingExclusiveFill)
{
    MemHarness h(smallParams());
    EXPECT_EQ(h.c0().access(0x600, AccessType::Store, 1),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().access(0x608, AccessType::Store, 2),
              AccessOutcome::Merged);
    EXPECT_EQ(h.c0().access(0x600, AccessType::Load, 3),
              AccessOutcome::Merged);
    h.settle();
    EXPECT_EQ(h.completions[0].size(), 3u);
}

TEST(Cache, MshrExhaustionBlocks)
{
    mem::CacheParams p = smallParams();
    p.numMshrs = 2;
    MemHarness h(p);
    // Distinct sets: stride by line*numSets = 16*16 = 256... use distinct
    // lines in distinct sets.
    EXPECT_EQ(h.c0().access(0x000, AccessType::Load, 1),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().access(0x010, AccessType::Load, 2),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().access(0x020, AccessType::Load, 3),
              AccessOutcome::Blocked);
    EXPECT_EQ(h.c0().freeMshrs(), 0u);
    h.settle();
    EXPECT_EQ(h.c0().freeMshrs(), 2u);
    EXPECT_EQ(h.c0().stats().blockedAccesses, 1u);
}

TEST(Cache, SetConflictWithPendingWaysBlocks)
{
    mem::CacheParams p = smallParams();  // 16 sets, 2 ways
    MemHarness h(p);
    // Three lines in the same set (stride = 16 lines * 16B = 256).
    EXPECT_EQ(h.c0().access(0x1000, AccessType::Load, 1),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().access(0x1100, AccessType::Load, 2),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().access(0x1200, AccessType::Load, 3),
              AccessOutcome::Blocked);  // both ways pending
    h.settle();
    EXPECT_EQ(h.c0().access(0x1200, AccessType::Load, 4),
              AccessOutcome::Miss);  // now evicts LRU
    h.settle();
}

TEST(Cache, LruEvictionAndWriteback)
{
    MemHarness h(smallParams());
    auto step = [&]() { h.queue.runUntil(h.queue.now() + 1); };
    // Fill both ways of one set; dirty the first.
    h.c0().access(0x1000, AccessType::Store, 1);
    h.settle();
    h.c0().access(0x1100, AccessType::Load, 2);
    h.settle();
    // Distinct-tick touches: 0x1100 becomes MRU, 0x1000 LRU... then
    // re-touch 0x1000 so the clean 0x1100 is the LRU victim.
    step();
    h.c0().access(0x1100, AccessType::Load, 3);
    step();
    h.c0().access(0x1000, AccessType::Load, 4);
    step();
    h.c0().access(0x1200, AccessType::Load, 5);
    h.settle();
    EXPECT_EQ(h.c0().stats().writebacks, 0u);
    EXPECT_EQ(h.c0().lineState(0x1100), Cache::LineState::Invalid);
    // Next eviction removes dirty 0x1000: a writeback goes out.
    step();
    h.c0().access(0x1100, AccessType::Load, 6);
    h.settle();
    EXPECT_EQ(h.c0().stats().writebacks, 1u);
    EXPECT_EQ(h.c0().lineState(0x1000), Cache::LineState::Invalid);
}

TEST(Cache, InvalidationOnSharedLine)
{
    MemHarness h(smallParams());
    h.c0().access(0x700, AccessType::Load, 1);
    h.settle();
    // Cache 1 writes the same line: directory invalidates cache 0.
    h.c1().access(0x700, AccessType::Store, 1);
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x700), Cache::LineState::Invalid);
    EXPECT_EQ(h.c1().lineState(0x700), Cache::LineState::Modified);
    EXPECT_EQ(h.c0().stats().invalidationsReceived, 1u);
    // Re-reading it is an invalidation miss.
    h.c0().access(0x700, AccessType::Load, 2);
    h.settle();
    EXPECT_EQ(h.c0().stats().invalidationMisses, 1u);
}

TEST(Cache, RecallSharedDowngradesOwner)
{
    MemHarness h(smallParams());
    h.c0().access(0x800, AccessType::Store, 1);
    h.settle();
    ASSERT_EQ(h.c0().lineState(0x800), Cache::LineState::Modified);
    h.c1().access(0x800, AccessType::Load, 1);
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x800), Cache::LineState::Shared);
    EXPECT_EQ(h.c1().lineState(0x800), Cache::LineState::Shared);
    EXPECT_EQ(h.c0().stats().recallsServed, 1u);
}

TEST(Cache, RecallExclusiveInvalidatesOwner)
{
    MemHarness h(smallParams());
    h.c0().access(0x900, AccessType::Store, 1);
    h.settle();
    h.c1().access(0x900, AccessType::Store, 1);
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x900), Cache::LineState::Invalid);
    EXPECT_EQ(h.c1().lineState(0x900), Cache::LineState::Modified);
}

TEST(Cache, PrefetchSharedAndDemandMerge)
{
    MemHarness h(smallParams());
    EXPECT_TRUE(h.c0().prefetch(0xa00, false));
    EXPECT_EQ(h.c0().stats().prefetchesIssued, 1u);
    // A demand load arriving while the prefetch is in flight merges and
    // converts it to a demand fetch.
    EXPECT_EQ(h.c0().access(0xa00, AccessType::Load, 1),
              AccessOutcome::Merged);
    h.settle();
    EXPECT_EQ(h.c0().stats().prefetchesUseful, 1u);
    ASSERT_EQ(h.completions[0].size(), 1u);
}

TEST(Cache, PrefetchDoesNotDisturbValidLines)
{
    MemHarness h(smallParams());
    h.c0().access(0xb00, AccessType::Load, 1);
    h.settle();
    EXPECT_FALSE(h.c0().prefetch(0xb00, true));  // present: no-op
    EXPECT_EQ(h.c0().lineState(0xb00), Cache::LineState::Shared);
}

TEST(Cache, PrefetchCompletionFiresNoConsumer)
{
    MemHarness h(smallParams());
    EXPECT_TRUE(h.c0().prefetch(0xc00, true));
    h.settle();
    EXPECT_TRUE(h.completions[0].empty());
    EXPECT_EQ(h.c0().lineState(0xc00), Cache::LineState::Modified);
}

TEST(Cache, SyncAccessesCountedSeparately)
{
    MemHarness h(smallParams());
    h.c0().access(0xd00, AccessType::SyncRmw, 1);
    h.settle();
    h.c0().access(0xd00, AccessType::SyncLoad, 2);
    h.c0().access(0xd00, AccessType::SyncStore, 3);
    EXPECT_EQ(h.c0().stats().syncAccesses, 3u);
    EXPECT_EQ(h.c0().stats().syncHits, 2u);
    EXPECT_EQ(h.c0().stats().loads, 0u);
    EXPECT_EQ(h.c0().stats().stores, 0u);
}

TEST(Cache, ReRequestOfEvictedDirtyLineIsAMissCarryingTheFloor)
{
    // A fault plan that injects nothing still arms retry timers; the
    // protocol itself is the same with or without it.
    fault::FaultConfig fc;
    fc.enable = true;
    fault::FaultPlan plan(fc);
    MemHarness h(smallParams());
    for (auto &c : h.caches)
        c->setFaultPlan(&plan);
    for (auto &m : h.modules)
        m->setFaultPlan(&plan);

    auto step = [&]() { h.queue.runUntil(h.queue.now() + 1); };
    // Dirty 0x1000 under its first grant (seq 1), then evict it by
    // filling the set's other way and missing on a third line.
    h.c0().access(0x1000, AccessType::Store, 1);
    h.settle();
    h.c0().access(0x1100, AccessType::Store, 2);
    h.settle();
    step();
    h.c0().access(0x1100, AccessType::Store, 3);
    step();
    EXPECT_EQ(h.c0().access(0x1200, AccessType::Load, 4),
              AccessOutcome::Miss);
    EXPECT_EQ(h.c0().lineState(0x1000), Cache::LineState::Invalid);
    EXPECT_EQ(h.c0().stats().writebacks, 1u);
    // Re-request while the Writeback is still in flight: a plain miss
    // whose GetExclusive tells the directory grant 1 was surrendered.
    EXPECT_EQ(h.c0().access(0x1000, AccessType::Store, 5),
              AccessOutcome::Miss);
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x1000), Cache::LineState::Modified);
    std::vector<std::uint32_t> gets;
    for (const auto &r : h.requests)
        if (r.kind == mem::MsgKind::GetExclusive && r.lineAddr == 0x1000)
            gets.push_back(r.seq);
    ASSERT_EQ(gets.size(), 2u);
    EXPECT_EQ(gets[0], 0u);
    EXPECT_EQ(gets[1], 2u);  // the surrendered grant's seq + 1
    EXPECT_EQ(h.c0().stats().blockedAccesses, 0u);
    EXPECT_EQ(h.c0().stats().staleReplies, 0u);
    EXPECT_EQ(h.modules[0]->stats().staleMessages, 0u);
}

TEST(Cache, ReRequestOvertakingItsWritebackWaitsForIt)
{
    // The eviction race the floor exists for: the Writeback of a dirty
    // line is delayed past the owner's re-request. The directory still
    // registers the cache as Exclusive owner at grant 1; the Get's floor
    // (2) tells it the grant was surrendered, so it waits for the
    // Writeback instead of re-granting seq 1, which the cache's MSHR
    // would discard as stale.
    MemHarness h(smallParams());
    auto step = [&]() { h.queue.runUntil(h.queue.now() + 1); };
    h.c0().access(0x1000, AccessType::Store, 1);
    h.settle();
    h.c0().access(0x1100, AccessType::Store, 2);
    h.settle();
    step();
    h.c0().access(0x1100, AccessType::Store, 3);
    step();
    h.holdWritebacks = true;
    EXPECT_EQ(h.c0().access(0x1200, AccessType::Load, 4),
              AccessOutcome::Miss);  // evicts dirty 0x1000
    EXPECT_EQ(h.c0().access(0x1000, AccessType::Store, 5),
              AccessOutcome::Miss);
    h.settle();
    ASSERT_FALSE(h.heldWritebacks.empty());
    EXPECT_EQ(h.c0().lineState(0x1000), Cache::LineState::Pending);
    EXPECT_EQ(h.modules[0]->openTransactions(), 1u);
    h.releaseWritebacks();
    h.settle();
    EXPECT_EQ(h.c0().lineState(0x1000), Cache::LineState::Modified);
    EXPECT_EQ(h.modules[0]->dirState(0x1000),
              mem::MemoryModule::DirState::Exclusive);
    EXPECT_EQ(h.modules[0]->openTransactions(), 0u);
    EXPECT_EQ(h.c0().stats().staleReplies, 0u);
    EXPECT_EQ(h.modules[0]->stats().staleMessages, 0u);
}
