/**
 * @file
 * Tests for the axiomatic layer (src/axiom/): the trace recorder's
 * schema bookkeeping, the checker's verdicts on hand-built traces (clean
 * accepted, temporal violations and happens-before cycles rejected with
 * a witness), machine-recorded traces across every model and workload,
 * and the deliberately weakened machine whose broken sync ordering the
 * checker must catch.
 */

#include <gtest/gtest.h>

#include "axiom/axiom_checker.hh"
#include "axiom/trace.hh"
#include "core/consistency.hh"
#include "core/machine.hh"
#include "sim/logging.hh"
#include "sim/task.hh"
#include "workloads/gauss.hh"
#include "workloads/psim.hh"
#include "workloads/qsort.hh"
#include "workloads/relax.hh"
#include "workloads/workload.hh"

using namespace mcsim;
using namespace mcsim::axiom;
using core::Model;

namespace
{

constexpr Addr dataAddr = 0x1000;
constexpr Addr flagAddr = 0x2000;

TraceConfig
recordOn()
{
    TraceConfig cfg;
    cfg.record = true;
    return cfg;
}

core::MachineConfig
tracedConfig(Model model, unsigned procs = 2)
{
    core::MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.numModules = procs;
    cfg.model = model;
    cfg.cacheBytes = 1024;
    cfg.lineBytes = 16;
    cfg.trace.record = true;
    return cfg;
}

SimTask
handoffWriter(cpu::Processor &p)
{
    co_await p.store(dataAddr, 42);
    co_await p.syncStore(flagAddr, 1);
}

SimTask
handoffReader(cpu::Processor &p, std::uint64_t &seen)
{
    for (;;) {
        const std::uint64_t f = co_await p.syncLoad(flagAddr);
        if (f == 1)
            break;
        co_await p.branch();
    }
    seen = co_await p.loadUse(dataAddr);
}

/** A clean message-passing trace: every timestamp obeys every model. */
Trace
cleanHandoffTrace()
{
    TraceRecorder rec(recordOn(), 2);
    rec.recordWrite(0, dataAddr, 8, 42, 10, 20);
    const std::uint32_t wf = rec.recordPendingWrite(0, flagAddr, 1, 30);
    rec.commitWrite(wf, 40);
    const std::uint32_t rf =
        rec.recordPendingRead(1, EventKind::SyncRead, flagAddr, 50);
    rec.bindRead(rf, 1, 60);
    rec.recordRead(1, dataAddr, 8, 42, 70, 70, 70);
    return rec.finish();
}

/**
 * A message-passing trace from a machine that skipped its sync ordering:
 * the data write performs globally at tick 200, long after the flag was
 * released (50) and the reader's data read performed (80) against its
 * stale copy. Every model forbids this shape.
 */
Trace
staleReadTrace()
{
    TraceRecorder rec(recordOn(), 2);
    rec.recordWrite(0, dataAddr, 8, 1, 10, 200);
    const std::uint32_t wf = rec.recordPendingWrite(0, flagAddr, 1, 20);
    rec.commitWrite(wf, 50);
    const std::uint32_t rf =
        rec.recordPendingRead(1, EventKind::SyncRead, flagAddr, 60);
    rec.bindRead(rf, 1, 70);
    rec.recordRead(1, dataAddr, 8, 1, 80, 80, 80);
    return rec.finish();
}

} // namespace

TEST(TraceRecorder, RecordsProgramOrderAndVersionTags)
{
    TraceRecorder rec(recordOn(), 2);
    const std::uint32_t w1 = rec.recordWrite(0, dataAddr, 8, 7, 10, 10);
    const std::uint32_t w2 = rec.recordWrite(1, dataAddr, 8, 9, 20, 20);
    const std::uint32_t r1 = rec.recordRead(0, dataAddr, 8, 9, 30, 30, 30);
    const Trace &t = rec.finish();

    ASSERT_EQ(t.events.size(), 3u);
    // Per-processor program order and sequence numbers.
    ASSERT_EQ(t.byProc.size(), 2u);
    EXPECT_EQ(t.byProc[0], (std::vector<std::uint32_t>{w1, r1}));
    EXPECT_EQ(t.byProc[1], (std::vector<std::uint32_t>{w2}));
    EXPECT_EQ(t.events[w1].poSeq, 0u);
    EXPECT_EQ(t.events[r1].poSeq, 1u);
    // An 8-byte access covers two granules; versions advance per write.
    EXPECT_EQ(t.events[w1].granules(), 2u);
    EXPECT_EQ(t.events[w1].tag[0], 1u);
    EXPECT_EQ(t.events[w2].tag[0], 2u);
    EXPECT_EQ(t.events[r1].tag[0], 2u);  // read sampled after both writes
    EXPECT_FALSE(t.events[r1].pending);
    EXPECT_NE(t.events[r1].describe().find("R 0x1000"), std::string::npos);
}

TEST(TraceRecorder, PendingEventsPatchInPlace)
{
    TraceRecorder rec(recordOn(), 1);
    const std::uint32_t w =
        rec.recordPendingWrite(0, dataAddr, 5, /*issue=*/10);
    const std::uint32_t r =
        rec.recordPendingRead(0, EventKind::SyncRmw, dataAddr, 20);
    rec.commitWrite(w, 30);
    rec.bindRead(r, 5, 40);
    const Trace &t = rec.finish();

    // The sync write keeps its program-order slot but binds late.
    EXPECT_EQ(t.events[w].poSeq, 0u);
    EXPECT_EQ(t.events[w].issue, Tick{10});
    EXPECT_EQ(t.events[w].bind, Tick{30});
    EXPECT_EQ(t.events[w].perform, Tick{30});
    EXPECT_FALSE(t.events[w].pending);
    // The rmw read the sync write's version, then wrote the next one.
    EXPECT_EQ(t.events[r].value, 5u);
    EXPECT_EQ(t.events[r].tag[0], 2u);
    EXPECT_FALSE(t.events[r].pending);
}

TEST(TraceRecorder, SetOrderedPinsOrderTick)
{
    TraceRecorder rec(recordOn(), 1);
    const std::uint32_t w = rec.recordWrite(0, dataAddr, 8, 1, 10, 10);
    rec.setOrdered(w, 15);    // SC store-buffer hand-off
    rec.setPerformed(w, 90);  // global perform must not clobber it
    const Trace &t = rec.finish();
    EXPECT_EQ(t.events[w].orderTick, Tick{15});
    EXPECT_EQ(t.events[w].perform, Tick{90});
}

TEST(AxiomChecker, AcceptsCleanHandoffOnEveryModel)
{
    const Trace trace = cleanHandoffTrace();
    for (Model model : core::allModels) {
        const AxiomResult res =
            checkTrace(trace, core::modelParams(model));
        EXPECT_TRUE(res.ok) << core::modelName(model) << "\n" << res.message;
        EXPECT_TRUE(res.cycle.empty());
        EXPECT_TRUE(res.temporal.empty());
        EXPECT_GT(res.edgeCount, 0u);
        // The data read observed the data write's value at the hardware
        // level, not just functionally.
        EXPECT_EQ(res.hwValues[3], 42u) << core::modelName(model);
        EXPECT_EQ(res.hwReadsFrom[3], 0u);
    }
}

TEST(AxiomChecker, FlagsTemporalViolationUnderSc)
{
    // A second access issues while the first is still outstanding: legal
    // under the weak models, a single-outstanding violation under SC.
    TraceRecorder rec(recordOn(), 1);
    const std::uint32_t a = rec.recordRead(0, dataAddr, 8, 0, 10, 10, 10);
    rec.setPerformed(a, 100);
    rec.recordRead(0, flagAddr, 8, 0, 20, 20, 20);
    const Trace &t = rec.finish();

    const AxiomResult sc = checkTrace(t, core::modelParams(Model::SC1));
    EXPECT_FALSE(sc.ok);
    ASSERT_FALSE(sc.temporal.empty());
    EXPECT_NE(sc.temporal[0].rule.find("single-outstanding"),
              std::string::npos);
    EXPECT_NE(sc.message.find("temporal"), std::string::npos);
    // No cycle: the overlap is one-sided, which is exactly why the
    // generator edges carry timestamp obligations.
    EXPECT_TRUE(sc.cycle.empty());

    const AxiomResult wo = checkTrace(t, core::modelParams(Model::WO1));
    EXPECT_TRUE(wo.ok) << wo.message;
}

TEST(AxiomChecker, StaleReadCycleRejectedOnEveryModel)
{
    const Trace trace = staleReadTrace();
    for (Model model : core::allModels) {
        const AxiomResult res =
            checkTrace(trace, core::modelParams(model));
        EXPECT_FALSE(res.ok) << core::modelName(model);
        // The reader's data read hardware-observed the initial state.
        EXPECT_EQ(res.hwValues[3], 0u);
        EXPECT_EQ(res.hwReadsFrom[3], UINT32_MAX);
        // Minimal witness: W data -> W flag -> R flag -> R data -> W data.
        ASSERT_EQ(res.cycle.size(), 4u) << core::modelName(model);
        EXPECT_EQ(res.cycle[0].from, res.cycle[3].to);
        EXPECT_NE(res.message.find("happens-before cycle"),
                  std::string::npos);
        bool has_rf = false;
        bool has_fr = false;
        for (const HbEdge &e : res.cycle) {
            has_rf = has_rf || e.rel == EdgeRel::Rf;
            has_fr = has_fr || e.rel == EdgeRel::Fr;
        }
        EXPECT_TRUE(has_rf && has_fr) << core::modelName(model);
    }
}

TEST(AxiomChecker, MachineHandoffTraceAcceptedOnEveryModel)
{
    for (Model model : core::allModels) {
        core::MachineConfig cfg = tracedConfig(model);
        core::Machine m(cfg);
        ASSERT_NE(m.traceRecorder(), nullptr);
        std::uint64_t seen = 0;
        m.startWorkload(0, handoffWriter(m.proc(0)));
        m.startWorkload(1, handoffReader(m.proc(1), seen));
        m.run();
        EXPECT_EQ(seen, 42u);

        const Trace &trace = m.traceRecorder()->finish();
        EXPECT_GT(trace.events.size(), 3u);
        const AxiomResult res = checkTrace(trace, cfg.modelParams());
        EXPECT_TRUE(res.ok) << core::modelName(model) << "\n"
                            << res.message;

        // The reader's final data load must have hardware-observed the
        // handed-off value, not just the functional one.
        const auto &po = trace.byProc[1];
        ASSERT_FALSE(po.empty());
        const Event &last = trace.events[po.back()];
        EXPECT_EQ(last.kind, EventKind::Read);
        EXPECT_EQ(res.hwValues[last.id], 42u) << core::modelName(model);

        EXPECT_GT(m.collectStats().get("axiom.events"), 0.0);
    }
}

TEST(AxiomChecker, RecordingOffBuildsNoRecorder)
{
    core::MachineConfig cfg = tracedConfig(Model::SC1);
    cfg.trace.record = false;
    core::Machine m(cfg);
    EXPECT_EQ(m.traceRecorder(), nullptr);
    std::uint64_t seen = 0;
    m.startWorkload(0, handoffWriter(m.proc(0)));
    m.startWorkload(1, handoffReader(m.proc(1), seen));
    m.run();
    EXPECT_EQ(seen, 42u);
    EXPECT_FALSE(m.collectStats().has("axiom.events"));
}

// Acceptance sweep: every model x every paper workload (small sizes),
// recorded and checked. The axiomatic layer must accept every trace a
// correct machine produces.
TEST(AxiomChecker, AcceptanceSweepAllModelsAllWorkloads)
{
    for (Model model : core::allModels) {
        core::MachineConfig cfg;
        cfg.numProcs = 4;
        cfg.numModules = 4;
        cfg.model = model;
        cfg.cacheBytes = 2048;
        cfg.lineBytes = 16;
        cfg.maxCycles = 400'000'000ull;
        cfg.trace.record = true;

        workloads::GaussParams gp;
        gp.n = 24;
        workloads::GaussWorkload gauss(gp);
        workloads::QsortParams qp;
        qp.n = 2048;
        qp.parallelCutoff = 512;
        workloads::QsortWorkload qsort(qp);
        workloads::RelaxParams rp;
        rp.interior = 24;
        rp.iterations = 2;
        workloads::RelaxWorkload relax(rp);
        workloads::PsimParams pp;
        pp.simProcs = 8;
        pp.packetsPerProc = 16;
        workloads::PsimWorkload psim(pp);

        workloads::Workload *all[] = {&gauss, &qsort, &relax, &psim};
        for (workloads::Workload *w : all) {
            const workloads::RunResult run = workloads::runWorkload(*w, cfg);
            ASSERT_GT(run.machine->traceRecorder()->size(), 0u);
            ASSERT_TRUE(run.axiom.has_value());
            EXPECT_TRUE(run.axiom->ok)
                << core::modelName(model) << " / " << w->name() << "\n"
                << run.axiom->message;
        }
    }
}

namespace
{

/**
 * The weakened-machine scenario (fault injection): the writer's sync
 * ordering is disabled, so its flag release issues while the data write
 * is still stuck behind hammer traffic jamming the data line's memory
 * module -- a temporal ppo violation. The reader additionally drops the
 * invalidate for its pre-warmed Shared data line, so its post-flag data
 * read hits the stale copy and performs long before the data write does
 * -- a forbidden message-passing outcome at the hardware level, which
 * closes a happens-before cycle for the checker. The broken machine
 * makes the handoff racy, so the program is not data-race-free and the
 * run path turns the race detector off.
 */
class WeakenedMpWorkload : public workloads::Workload
{
  public:
    // data's line sits in module 0; hammer lines map there as well
    // (module = (addr / lineBytes) % numModules). flag lands in module
    // 2, which stays fast.
    static constexpr Addr data = 0x1000;
    static constexpr Addr flag = 0x1020;

    std::string name() const override { return "WeakenedMp"; }
    bool dataRaceFree() const override { return false; }

    void
    setup(core::Machine &m) override
    {
        m.memory().writeU64(data, 0);
        m.memory().writeU64(flag, 0);

        // Writer: data store jams behind the hammer, flag release does
        // not wait for it (the injected fault).
        m.startWorkload(0, [](cpu::Processor &p) -> SimTask {
            co_await p.exec(600);
            co_await p.store(data, 1);
            co_await p.syncStore(flag, 1);
        }(m.proc(0)));

        // Reader: pre-warm the data line (Shared), then spin on the flag
        // and read the data through the stale local copy.
        m.startWorkload(1, [](cpu::Processor &p,
                              std::uint64_t &out) -> SimTask {
            co_await p.loadUse(data);  // Shared copy of the line
            for (;;) {
                const std::uint64_t f = co_await p.syncLoad(flag);
                if (f == 1)
                    break;
                co_await p.branch();
            }
            out = co_await p.loadUse(data);
        }(m.proc(1), seen));

        // Hammer: keep module 0 busy with non-blocking misses to distinct
        // lines (up to the MSHR limit in flight) so the writer's
        // GetExclusive (and its invalidate) sits in the module queue. The
        // closing fence drains the last loads before the workload exits.
        m.startWorkload(2, [](cpu::Processor &p) -> SimTask {
            co_await p.exec(100);
            for (unsigned i = 0; i < 40; ++i) {
                const Addr stride = 16 * 4;  // every line in module 0
                co_await p.load(0x8000 + i * stride);
            }
            co_await p.fence();
        }(m.proc(2)));
    }

    /** Functional value flow is unaffected by the broken ordering. */
    void
    verify(core::Machine &) const override
    {
        if (seen != 1)
            fatal("weakened handoff read %llu, want 1",
                  static_cast<unsigned long long>(seen));
    }

  private:
    std::uint64_t seen = 0;
};

/**
 * Run the scenario under @p model with both faults injected, through the
 * one run path: the rejection must come back as a verdict -- never a
 * throw -- with the run's metrics filled in, so each caller (sweep,
 * chaos, trace replay) decides what a rejection means.
 */
void
expectRejectedWithCycle(Model model)
{
    core::MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.numModules = 4;
    cfg.model = model;
    cfg.cacheBytes = 1024;
    cfg.lineBytes = 16;
    cfg.memInitCycles = 50;  // widen the window the jam creates
    cfg.trace.record = true;
    // The ordering linter and coherence auditor would (correctly) trip
    // on the injected faults; here the axiomatic layer does the
    // detecting.
    cfg.check.ordering = false;
    cfg.check.coherence = false;
    WeakenedMpWorkload workload;
    workloads::RunResult run;
    ASSERT_NO_THROW(run = workloads::runWorkload(
                        workload, cfg, [](core::Machine &m) {
                            m.proc(0).injectDisableSyncOrderingForTest();
                            m.cache(1).injectIgnoreNextInvalidateForTest();
                        }));
    EXPECT_GT(run.metrics.cycles, 600u);
    EXPECT_GT(run.metrics.totalReads, 40u);
    EXPECT_GT(run.metrics.totalSyncOps, 1u);
    ASSERT_TRUE(run.axiom.has_value());
    const AxiomResult &res = *run.axiom;
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.temporal.empty()) << res.message;
    EXPECT_FALSE(res.cycle.empty()) << res.message;
    EXPECT_NE(res.message.find("happens-before cycle"), std::string::npos)
        << res.message;
}

} // namespace

TEST(WeakenedMachine, DisabledSyncOrderingRejectedUnderWo)
{
    expectRejectedWithCycle(Model::WO1);
}

TEST(WeakenedMachine, DisabledSyncOrderingRejectedUnderRc)
{
    expectRejectedWithCycle(Model::RC);
}
