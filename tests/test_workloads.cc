/**
 * @file
 * Workload-level tests: functional correctness against independent
 * references, parameter validation, reference-count sanity, and the
 * Relax schedule variants.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
testConfig(Model m = Model::WO1)
{
    core::MachineConfig cfg;
    cfg.numProcs = 8;
    cfg.numModules = 8;
    cfg.model = m;
    cfg.cacheBytes = 2048;
    cfg.lineBytes = 16;
    cfg.maxCycles = 400'000'000ull;
    return cfg;
}

} // namespace

TEST(GaussWorkload, MatchesReferenceElimination)
{
    workloads::GaussParams p;
    p.n = 40;
    workloads::GaussWorkload w(p);
    // runWorkload verifies against the reference internally; a wrong
    // element raises FatalError.
    EXPECT_NO_THROW(workloads::runWorkload(w, testConfig()));
}

TEST(GaussWorkload, ReferenceCountsScaleWithN)
{
    auto count = [](unsigned n) {
        workloads::GaussParams p;
        p.n = n;
        workloads::GaussWorkload w(p);
        auto r = workloads::runWorkload(w, testConfig());
        return r.metrics.totalReads + r.metrics.totalWrites;
    };
    const auto refs24 = count(24);
    const auto refs48 = count(48);
    // Work grows roughly with n^3.
    EXPECT_GT(refs48, 5 * refs24);
    EXPECT_LT(refs48, 12 * refs24);
}

TEST(GaussWorkload, RejectsTinyMatrix)
{
    workloads::GaussParams p;
    p.n = 1;
    EXPECT_THROW(workloads::GaussWorkload w(p), FatalError);
}

TEST(QsortWorkload, SortsAllModels)
{
    for (Model m : {Model::SC1, Model::WO2, Model::RC}) {
        workloads::QsortParams p;
        p.n = 4000;
        p.parallelCutoff = 1024;
        workloads::QsortWorkload w(p);
        EXPECT_NO_THROW(workloads::runWorkload(w, testConfig(m)))
            << core::modelName(m);
    }
}

TEST(QsortWorkload, SortsWithoutCooperativePhase)
{
    workloads::QsortParams p;
    p.n = 4000;
    p.parallelCutoff = 0;
    workloads::QsortWorkload w(p);
    EXPECT_NO_THROW(workloads::runWorkload(w, testConfig()));
}

TEST(QsortWorkload, DynamicSchedulingVariesAcrossModels)
{
    // The paper notes reference counts shift between models because work
    // partitioning is timing-dependent. Just assert both run and sort.
    workloads::QsortParams p;
    p.n = 6000;
    workloads::QsortWorkload a(p), b(p);
    auto ra = workloads::runWorkload(a, testConfig(Model::SC1));
    auto rb = workloads::runWorkload(b, testConfig(Model::RC));
    EXPECT_GT(ra.metrics.totalReads, 0u);
    EXPECT_GT(rb.metrics.totalReads, 0u);
}

TEST(QsortWorkload, RejectsBadParams)
{
    workloads::QsortParams p;
    p.threshold = 1;
    EXPECT_THROW(workloads::QsortWorkload w(p), FatalError);
    workloads::QsortParams q;
    q.parallelCutoff = 10;
    q.threshold = 32;
    EXPECT_THROW(workloads::QsortWorkload w(q), FatalError);
}

TEST(RelaxWorkload, MatchesReferenceStencil)
{
    workloads::RelaxParams p;
    p.interior = 20;
    p.iterations = 3;
    workloads::RelaxWorkload w(p);
    EXPECT_NO_THROW(workloads::runWorkload(w, testConfig()));
}

TEST(RelaxWorkload, AllSchedulesProduceTheSameAnswer)
{
    using workloads::RelaxSchedule;
    for (RelaxSchedule s :
         {RelaxSchedule::Default, RelaxSchedule::OptimalSC,
          RelaxSchedule::OptimalWO, RelaxSchedule::BadSC,
          RelaxSchedule::BadWO}) {
        workloads::RelaxParams p;
        p.interior = 16;
        p.iterations = 2;
        p.schedule = s;
        workloads::RelaxWorkload w(p);
        EXPECT_NO_THROW(workloads::runWorkload(w, testConfig()))
            << workloads::relaxScheduleName(s);
    }
}

TEST(RelaxWorkload, ScheduleNamesAreDistinct)
{
    using workloads::RelaxSchedule;
    std::vector<std::string> names;
    for (RelaxSchedule s :
         {RelaxSchedule::Default, RelaxSchedule::OptimalSC,
          RelaxSchedule::OptimalWO, RelaxSchedule::BadSC,
          RelaxSchedule::BadWO}) {
        names.push_back(workloads::relaxScheduleName(s));
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(PsimWorkload, DeliversEveryPacket)
{
    workloads::PsimParams p;
    p.simProcs = 16;
    p.packetsPerProc = 32;
    workloads::PsimWorkload w(p);
    EXPECT_NO_THROW(workloads::runWorkload(w, testConfig()));
}

TEST(PsimWorkload, HotSpotsSkewModuleUtilization)
{
    workloads::PsimParams p;
    p.simProcs = 16;
    p.packetsPerProc = 48;
    p.hotFraction = 0.5;
    workloads::PsimWorkload w(p);
    auto cfg = testConfig();
    cfg.numProcs = 16;
    cfg.numModules = 16;
    auto r = workloads::runWorkload(w, cfg);
    // The paper reports a factor-of-six spread; require a visible skew.
    EXPECT_GT(r.metrics.moduleSkew, 1.5);
}

TEST(PsimWorkload, MostMissesAreInvalidationMisses)
{
    workloads::PsimParams p;
    p.simProcs = 16;
    p.packetsPerProc = 48;
    workloads::PsimWorkload w(p);
    auto cfg = testConfig();
    cfg.numProcs = 16;
    cfg.numModules = 16;
    cfg.cacheBytes = 8192;
    auto r = workloads::runWorkload(w, cfg);
    EXPECT_GT(static_cast<double>(r.metrics.invalidationMisses),
              0.3 * static_cast<double>(r.metrics.totalMisses));
}

TEST(PsimWorkload, RejectsBadParams)
{
    workloads::PsimParams p;
    p.simProcs = 12;  // not a power of two
    EXPECT_THROW(workloads::PsimWorkload w(p), FatalError);
    workloads::PsimParams q;
    q.hotDests = 99;
    EXPECT_THROW(workloads::PsimWorkload w(q), FatalError);
}

TEST(SyntheticWorkload, LockCounterExact)
{
    workloads::SyntheticParams p;
    p.refsPerProc = 600;
    p.lockEvery = 30;
    workloads::SyntheticWorkload w(p);
    // verify() checks the lock-protected counter total internally.
    EXPECT_NO_THROW(workloads::runWorkload(w, testConfig(Model::RC)));
}

TEST(Workloads, PsimMissLatencyExceedsUncontendedFloor)
{
    // Paper section 3.3: Psim's sharing and hot spots give it "a much
    // higher actual memory latency" than the uncontended 18 cycles.
    workloads::PsimParams p;
    p.packetsPerProc = 48;
    workloads::PsimWorkload w(p);
    auto cfg = testConfig();
    cfg.numProcs = 16;
    cfg.numModules = 16;
    auto r = workloads::runWorkload(w, cfg);
    EXPECT_GT(r.metrics.avgMissLatency, 18.0);
}

TEST(Workloads, StatsArePopulated)
{
    workloads::GaussParams p;
    p.n = 24;
    workloads::GaussWorkload w(p);
    auto r = workloads::runWorkload(w, testConfig());
    const StatSet stats = r.machine->collectStats();
    EXPECT_GT(stats.get("cache.total.loads"), 0.0);
    EXPECT_GT(stats.get("proc.total.instructions"), 0.0);
    EXPECT_GT(stats.get("mem.total.requests"), 0.0);
    EXPECT_GT(stats.get("reqnet.messages"), 0.0);
    EXPECT_GT(stats.get("machine.run_ticks"), 0.0);
    EXPECT_GT(r.metrics.cyclesBetweenReads(), 0.0);
    EXPECT_GT(r.metrics.cyclesBetweenWrites(), 0.0);
}
