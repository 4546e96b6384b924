/**
 * @file
 * Randomized stress tests: adversarial access streams hammer the
 * coherence protocol across every consistency model, then the machine
 * must quiesce with caches and directory in agreement and all functional
 * invariants intact. These are the tests that shake out protocol races
 * (recall-vs-writeback, invalidate-during-fill, MSHR merge windows).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/machine.hh"
#include "cpu/sync.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "workloads/layout.hh"

using namespace mcsim;
using core::Model;

namespace
{

/**
 * Hammer a tiny shared region (heavy false sharing, constant recalls and
 * invalidations) with a per-processor deterministic mix of loads, split
 * load/use pairs, and stores. Lock-protected slots carry a functional
 * check: each slot counts increments and must total exactly the number
 * of increments performed.
 */
SimTask
hammer(cpu::Processor &p, Addr region, unsigned region_words,
       cpu::LockVar lock, Addr counter, unsigned ops, unsigned pid,
       std::uint64_t *done_increments)
{
    Rng rng(0xfeedULL + pid * 7919);
    std::uint64_t increments = 0;
    for (unsigned i = 0; i < ops; ++i) {
        const Addr addr = region + rng.below(region_words) * 8;
        switch (rng.below(4)) {
          case 0:
            (void)co_await p.loadUse(addr);
            break;
          case 1: {
            const auto tok = co_await p.load(addr);
            co_await p.exec(static_cast<std::uint32_t>(rng.below(6)));
            (void)co_await p.use(tok);
            break;
          }
          case 2:
            co_await p.store(addr, rng.next());
            break;
          case 3: {
            co_await cpu::lockAcquire(p, lock);
            const std::uint64_t v = co_await p.loadUse(counter);
            co_await p.store(counter, v + 1);
            co_await cpu::lockRelease(p, lock);
            ++increments;
            break;
          }
        }
    }
    *done_increments = increments;
}

void
checkQuiesced(core::Machine &machine, const core::MachineConfig &cfg)
{
    machine.eventQueue().run();
    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        for (const auto &[line, state] : machine.cache(p).validLines()) {
            const unsigned mod = static_cast<unsigned>(
                (line / cfg.lineBytes) % cfg.numModules);
            if (state == mem::Cache::LineState::Modified) {
                ASSERT_EQ(machine.module(mod).dirState(line),
                          mem::MemoryModule::DirState::Exclusive);
                ASSERT_EQ(machine.module(mod).ownerOf(line), p);
            } else {
                ASSERT_EQ(machine.module(mod).dirState(line),
                          mem::MemoryModule::DirState::Shared);
                ASSERT_TRUE(machine.module(mod).presenceMask(line) &
                            (std::uint64_t(1) << p));
            }
        }
        ASSERT_EQ(machine.proc(p).outstandingRefs(), 0u);
    }
    for (unsigned m = 0; m < cfg.numModules; ++m)
        ASSERT_EQ(machine.module(m).openTransactions(), 0u);
}

} // namespace

class StressSweep
    : public ::testing::TestWithParam<std::tuple<Model, unsigned, unsigned>>
{};

TEST_P(StressSweep, FalseSharingHammerQuiesces)
{
    const auto [model, line, cache_bytes] = GetParam();
    core::MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.numModules = 8;
    cfg.model = model;
    cfg.lineBytes = line;
    cfg.cacheBytes = cache_bytes;
    cfg.maxCycles = 400'000'000ull;
    // The hammer mixes plain loads/stores on shared words by design;
    // keep coherence/ordering auditing on but mute the race detector.
    cfg.check.races = false;
    core::Machine machine(cfg);

    workloads::SharedLayout layout(cfg.lineBytes);
    // Region much smaller than one cache: pure sharing traffic.
    const unsigned region_words = 32;
    const Addr region = layout.allocWords(region_words);
    const cpu::LockVar lock = layout.allocLock();
    const Addr counter = layout.allocWords(1);
    machine.memory().ensure(layout.top());

    std::vector<std::uint64_t> incs(cfg.numProcs, 0);
    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        machine.startWorkload(
            p, hammer(machine.proc(p), region, region_words, lock,
                      counter, 400, p, &incs[p]));
    }
    machine.run();
    checkQuiesced(machine, cfg);

    std::uint64_t expected = 0;
    for (const auto v : incs)
        expected += v;
    EXPECT_EQ(machine.memory().readU64(counter), expected);
    EXPECT_EQ(machine.memory().readU64(lock.addr), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Models, StressSweep,
    ::testing::Combine(::testing::ValuesIn(core::allModels),
                       ::testing::Values(16u, 64u),
                       ::testing::Values(512u, 4096u)),
    [](const auto &info) {
        return std::string(core::modelName(std::get<0>(info.param))) +
               "_l" + std::to_string(std::get<1>(info.param)) + "_c" +
               std::to_string(std::get<2>(info.param));
    });

TEST(Stress, SetThrashingWithTinyCache)
{
    // One-set cache: every distinct line fights for two ways, maximizing
    // eviction/writeback/refetch churn.
    core::MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.numModules = 4;
    cfg.model = Model::WO1;
    cfg.lineBytes = 16;
    cfg.cacheBytes = 32;  // 1 set x 2 ways
    cfg.check.races = false;  // deliberately unsynchronized churn
    core::Machine machine(cfg);
    machine.memory().ensure(1 << 16);

    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        machine.startWorkload(p, [](cpu::Processor &proc,
                                    unsigned pid) -> SimTask {
            Rng rng(pid + 1);
            for (unsigned i = 0; i < 600; ++i) {
                const Addr a = rng.below(64) * 16;
                if (rng.chance(0.5))
                    co_await proc.store(a, i);
                else
                    (void)co_await proc.loadUse(a);
            }
        }(machine.proc(p), p));
    }
    machine.run();
    checkQuiesced(machine, cfg);
    EXPECT_GT(machine.cache(0).stats().writebacks, 0u);
}

TEST(Stress, SingleLineTotalContention)
{
    // Everyone reads and writes ONE line: continuous recall/invalidate
    // ping-pong, the protocol's worst case.
    core::MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.numModules = 16;
    cfg.model = Model::RC;
    cfg.lineBytes = 64;
    cfg.cacheBytes = 2048;
    cfg.check.races = false;  // deliberately unsynchronized ping-pong
    core::Machine machine(cfg);
    machine.memory().ensure(4096);

    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        machine.startWorkload(p, [](cpu::Processor &proc,
                                    unsigned pid) -> SimTask {
            for (unsigned i = 0; i < 200; ++i) {
                if ((i + pid) % 3 == 0)
                    co_await proc.store(0x40 + (pid % 8) * 8, i);
                else
                    (void)co_await proc.loadUse(0x40);
                co_await proc.exec(1);
            }
        }(machine.proc(p), p));
    }
    machine.run();
    checkQuiesced(machine, cfg);
    std::uint64_t recalls = 0;
    for (unsigned m = 0; m < cfg.numModules; ++m)
        recalls += machine.module(m).stats().recallsSent;
    EXPECT_GT(recalls, 100u);
}

TEST(Stress, BuffersAtDepthOne)
{
    // Minimum-depth interface buffers force constant backpressure
    // through the ports' overflow queues.
    core::MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.numModules = 8;
    cfg.model = Model::WO1;
    cfg.bufferEntries = 1;
    cfg.lineBytes = 64;
    cfg.cacheBytes = 1024;
    cfg.check.races = false;  // deliberately unsynchronized traffic
    core::Machine machine(cfg);
    machine.memory().ensure(1 << 16);

    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        machine.startWorkload(p, [](cpu::Processor &proc,
                                    unsigned pid) -> SimTask {
            Rng rng(pid * 13 + 1);
            for (unsigned i = 0; i < 400; ++i) {
                const Addr a = rng.below(512) * 64;
                if (rng.chance(0.4))
                    co_await proc.store(a, i);
                else
                    (void)co_await proc.loadUse(a);
            }
        }(machine.proc(p), p));
    }
    machine.run();
    checkQuiesced(machine, cfg);
}
