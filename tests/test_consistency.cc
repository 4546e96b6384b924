/**
 * @file
 * Cross-model property tests -- the heart of the reproduction's
 * correctness story:
 *
 *  1. Data-race-free programs produce identical functional results on
 *     every consistency model (each model appears sequentially
 *     consistent, paper section 2).
 *  2. After quiesce, every cache's line states agree with the directory.
 *  3. Runs are deterministic.
 *  4. Loose performance sanity: the relaxed models never lose badly to
 *     SC1 on overlap-friendly workloads.
 *
 * Parameterized across models x line sizes (TEST_P sweeps).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/machine.hh"
#include "workloads/gauss.hh"
#include "workloads/psim.hh"
#include "workloads/qsort.hh"
#include "workloads/relax.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

using namespace mcsim;
using core::Model;

namespace
{

core::MachineConfig
config(Model m, unsigned line_bytes)
{
    core::MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.numModules = 8;
    cfg.model = m;
    cfg.cacheBytes = 2048;
    cfg.lineBytes = line_bytes;
    cfg.maxCycles = 400'000'000ull;
    return cfg;
}

/**
 * Run the workload on a machine, drain residual protocol traffic, then
 * check cache/directory agreement. Returns (cycles, memory image hash).
 */
std::pair<Tick, std::uint64_t>
runAndCheck(workloads::Workload &w, const core::MachineConfig &cfg,
            Addr hash_limit)
{
    const workloads::RunResult run = workloads::runWorkload(w, cfg);
    core::Machine &machine = *run.machine;
    const Tick end = run.metrics.cycles;

    // Quiesce: let in-flight writebacks and residual events land.
    machine.eventQueue().run();

    // Invariant: a Modified line in a cache must be registered Exclusive
    // with that owner; a Shared line must appear in the presence vector.
    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        for (const auto &[line, state] : machine.cache(p).validLines()) {
            const unsigned mod =
                static_cast<unsigned>((line / cfg.lineBytes) %
                                      cfg.numModules);
            const auto dstate = machine.module(mod).dirState(line);
            if (state == mem::Cache::LineState::Modified) {
                EXPECT_EQ(dstate,
                          mem::MemoryModule::DirState::Exclusive)
                    << "line " << std::hex << line;
                EXPECT_EQ(machine.module(mod).ownerOf(line), p);
            } else {
                EXPECT_EQ(dstate, mem::MemoryModule::DirState::Shared)
                    << "line " << std::hex << line;
                EXPECT_TRUE(machine.module(mod).presenceMask(line) &
                            (std::uint64_t(1) << p));
            }
        }
        // No unfinished transactions anywhere.
        EXPECT_EQ(machine.proc(p).outstandingRefs(), 0u);
        EXPECT_FALSE(machine.proc(p).releaseInFlight());
    }
    for (unsigned mo = 0; mo < cfg.numModules; ++mo)
        EXPECT_EQ(machine.module(mo).openTransactions(), 0u);

    // FNV-style hash of the functional memory image.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (Addr a = 0; a < hash_limit; a += 8) {
        h ^= machine.memory().readU64(a);
        h *= 0x100000001b3ull;
    }
    return {end, h};
}

} // namespace

class ModelsByLine
    : public ::testing::TestWithParam<std::tuple<Model, unsigned>>
{};

TEST_P(ModelsByLine, GaussSameResultEveryModel)
{
    const auto [model, line] = GetParam();
    workloads::GaussParams gp;
    gp.n = 32;
    workloads::GaussWorkload w(gp);
    auto [cycles, hash] = runAndCheck(w, config(model, line), 32 * 32 * 8);
    // Compare against SC1 on the same line size.
    workloads::GaussWorkload w0(gp);
    auto [c0, h0] = runAndCheck(w0, config(Model::SC1, line), 32 * 32 * 8);
    EXPECT_EQ(hash, h0);
    (void)cycles;
    (void)c0;
}

TEST_P(ModelsByLine, QsortSortsAndQuiesces)
{
    const auto [model, line] = GetParam();
    workloads::QsortParams qp;
    qp.n = 3000;
    qp.parallelCutoff = 1024;
    workloads::QsortWorkload w(qp);
    auto [cycles, hash] = runAndCheck(w, config(model, line), 0);
    EXPECT_GT(cycles, 0u);
    (void)hash;
}

TEST_P(ModelsByLine, RelaxSameResultEveryModel)
{
    const auto [model, line] = GetParam();
    workloads::RelaxParams rp;
    rp.interior = 24;
    rp.iterations = 2;
    const Addr limit = 26 * 26 * 8 * 2;
    workloads::RelaxWorkload w(rp);
    auto [cycles, hash] = runAndCheck(w, config(model, line), limit);
    workloads::RelaxWorkload w0(rp);
    auto [c0, h0] = runAndCheck(w0, config(Model::SC1, line), limit);
    EXPECT_EQ(hash, h0);
    (void)cycles;
    (void)c0;
}

TEST_P(ModelsByLine, PsimDeliversAndQuiesces)
{
    const auto [model, line] = GetParam();
    workloads::PsimParams pp;
    pp.simProcs = 8;
    pp.packetsPerProc = 24;
    workloads::PsimWorkload w(pp);
    auto [cycles, hash] = runAndCheck(w, config(model, line), 0);
    EXPECT_GT(cycles, 0u);
    (void)hash;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelsByLine,
    ::testing::Combine(::testing::ValuesIn(core::allModels),
                       ::testing::Values(8u, 16u, 64u)),
    [](const auto &info) {
        return std::string(core::modelName(std::get<0>(info.param))) +
               "_line" + std::to_string(std::get<1>(info.param));
    });

TEST(Determinism, SameConfigSameCycleCount)
{
    auto run = []() {
        workloads::SyntheticParams p;
        p.refsPerProc = 1500;
        p.lockEvery = 40;
        p.barrierEvery = 300;
        workloads::SyntheticWorkload w(p);
        return workloads::runWorkload(w, config(Model::RC, 16))
            .metrics.cycles;
    };
    const Tick a = run();
    const Tick b = run();
    EXPECT_EQ(a, b);
}

TEST(PerformanceSanity, RelaxedModelsWinOnOverlapFriendlyStreams)
{
    workloads::SyntheticParams p;
    p.refsPerProc = 4000;
    p.storeFraction = 0.3;
    p.privateWords = 4096;  // much larger than the cache: miss-heavy
    p.execBetween = 3;
    std::map<Model, Tick> cycles;
    for (Model m : {Model::SC1, Model::WO1, Model::WO2, Model::RC}) {
        workloads::SyntheticWorkload w(p);
        cycles[m] =
            workloads::runWorkload(w, config(m, 16)).metrics.cycles;
    }
    EXPECT_LT(cycles[Model::WO1], cycles[Model::SC1]);
    EXPECT_LT(cycles[Model::RC], cycles[Model::SC1]);
    // WO2 is WO1 plus bypassing; it must stay in the same neighbourhood
    // (the paper found bypassing worth roughly nothing).
    const double wo2_vs_wo1 =
        static_cast<double>(cycles[Model::WO2]) /
        static_cast<double>(cycles[Model::WO1]);
    EXPECT_GT(wo2_vs_wo1, 0.9);
    EXPECT_LT(wo2_vs_wo1, 1.1);
}

TEST(PerformanceSanity, BlockingLoadsNeverBeatNonBlocking)
{
    workloads::SyntheticParams p;
    p.refsPerProc = 4000;
    p.storeFraction = 0.1;
    p.privateWords = 4096;
    p.execBetween = 2;
    auto run = [&](Model m) {
        workloads::SyntheticWorkload w(p);
        return workloads::runWorkload(w, config(m, 16)).metrics.cycles;
    };
    EXPECT_LE(run(Model::WO1), run(Model::BWO1));
}
