/**
 * @file
 * Observability subsystem (src/obs/): the exact stall-cause accounting
 * identity across the whole quick grid, the model-level sanity property
 * that SC1 spends at least the sync-stall share RC does on a high-sync
 * workload, the log2 histogram summaries, the bounded ring tracer, and
 * the Perfetto export.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/machine.hh"
#include "core/metrics.hh"
#include "exp/grid.hh"
#include "exp/json.hh"
#include "obs/histogram.hh"
#include "obs/perfetto.hh"
#include "obs/stall.hh"
#include "obs/tracer.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

using namespace mcsim;

namespace
{

/** One sweep point run through workloads::runWorkload; holds the
 *  workload so it outlives the machine the tests inspect. */
struct PointRun
{
    std::unique_ptr<workloads::Workload> workload;
    workloads::RunResult run;

    explicit PointRun(const exp::SweepPoint &point,
                      const obs::ObsConfig &obs = {})
        : workload(point.makeWorkload())
    {
        core::MachineConfig cfg = point.machineConfig();
        cfg.obs = obs;
        run = workloads::runWorkload(*workload, cfg);
    }
};

std::uint64_t
syncStall(const obs::StallBreakdown &b)
{
    return b.cause(obs::StallCause::FenceSync) +
           b.cause(obs::StallCause::Acquire) +
           b.cause(obs::StallCause::Release);
}

} // namespace

// The tentpole invariant: every non-busy cycle of every processor is
// charged to exactly one cause, for every machine type x workload of the
// CI grid. Per processor busy + stalls == finishedAt; machine-wide the
// breakdown plus post-finish idle time tiles cycles * numProcs.
TEST(StallAttribution, QuickGridTilesEveryCycleExactly)
{
    const exp::Grid grid = exp::namedGrid("quick", exp::Scale::Quick);
    ASSERT_FALSE(grid.points.empty());
    for (const exp::SweepPoint &point : grid.points) {
        const PointRun point_run(point);
        const workloads::RunResult &run = point_run.run;
        for (unsigned p = 0; p < run.machine->numProcs(); ++p) {
            const auto &ps = run.machine->proc(p).stats();
            EXPECT_EQ(ps.breakdown.accounted(), ps.finishedAt)
                << point.id() << " proc " << p;
        }
        const core::RunMetrics &m = run.metrics;
        EXPECT_EQ(m.breakdown.accounted() + m.idleCycles,
                  static_cast<std::uint64_t>(m.cycles) *
                      run.machine->numProcs())
            << point.id();
        EXPECT_GT(m.breakdown.busyCycles, 0u) << point.id();
    }
}

// Paper section 4: the strong models pay for synchronization with stall
// time the relaxed models hide. On Psim (the paper's high-sync workload)
// SC1's share of cycles charged to sync causes must be at least RC's.
TEST(StallAttribution, Sc1SyncShareAtLeastRcOnPsim)
{
    auto share = [](core::Model model) {
        exp::SweepPoint point = exp::paperPoint(
            "Psim", model, exp::Scale::Quick, /*big_cache=*/false,
            /*line_bytes=*/16, /*procs=*/8);
        point.seed = point.derivedSeed();
        const core::RunMetrics m = PointRun(point).run.metrics;
        const std::uint64_t accounted = m.breakdown.accounted();
        EXPECT_GT(accounted, 0u);
        return static_cast<double>(syncStall(m.breakdown)) /
               static_cast<double>(accounted);
    };
    const double sc1 = share(core::Model::SC1);
    const double rc = share(core::Model::RC);
    EXPECT_GE(sc1, rc);
}

// The Buffer cause is reachable only with the SC store buffer enabled
// (no canonical model sets it): the single-outstanding wait for a store
// then ends at the interface-buffer hand-off, i.e. backpressure.
TEST(StallAttribution, ScStoreBufferChargesBufferBackpressure)
{
    core::MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.numModules = 4;
    cfg.cacheBytes = 2048;
    cfg.model = core::Model::SC1;
    core::ModelParams params = core::modelParams(core::Model::SC1);
    params.scStoreBufferRelease = true;
    cfg.modelOverride = params;

    workloads::SyntheticParams sp;
    sp.refsPerProc = 400;
    sp.storeFraction = 0.5;
    // Back-to-back references: with compute between them the next access
    // would start after the store's buffer hand-off and never wait on it.
    sp.execBetween = 0;
    workloads::SyntheticWorkload workload(sp);
    const auto result = workloads::runWorkload(workload, cfg);

    EXPECT_GT(result.metrics.breakdown.cause(obs::StallCause::Buffer), 0u);
    // The identity holds with the override too.
    EXPECT_EQ(result.metrics.breakdown.accounted() +
                  result.metrics.idleCycles,
              static_cast<std::uint64_t>(result.metrics.cycles) *
                  cfg.numProcs);
}

TEST(LatencyHistogram, BucketEdgesAndQuantiles)
{
    obs::LatencyHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0u);  // empty

    h.record(0);
    EXPECT_EQ(h.counts[0], 1u);
    EXPECT_EQ(h.p50(), 0u);

    obs::LatencyHistogram g;
    g.record(1);
    g.record(2);
    g.record(3);
    g.record(100);
    // rank ceil(0.5*4)=2 lands in bucket 2 ([2,3]); upper edge 3.
    EXPECT_EQ(g.p50(), 3u);
    // rank 4 lands in bucket 7 ([64,127]); capped at the exact max.
    EXPECT_EQ(g.p99(), 100u);
    EXPECT_EQ(g.maxValue, 100u);
    EXPECT_DOUBLE_EQ(g.mean(), 106.0 / 4.0);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecordingAnyOrder)
{
    obs::LatencyHistogram all, a, b;
    const std::uint64_t values[] = {0, 1, 5, 18, 18, 40, 300, 7};
    unsigned i = 0;
    for (std::uint64_t v : values) {
        all.record(v);
        ((i++ % 2) ? a : b).record(v);
    }
    obs::LatencyHistogram ab = a;
    ab.merge(b);
    obs::LatencyHistogram ba = b;
    ba.merge(a);
    for (unsigned bkt = 0; bkt < obs::LatencyHistogram::numBuckets; ++bkt) {
        EXPECT_EQ(ab.counts[bkt], all.counts[bkt]);
        EXPECT_EQ(ba.counts[bkt], all.counts[bkt]);
    }
    EXPECT_EQ(ab.p90(), all.p90());
    EXPECT_EQ(ba.sum, all.sum);
    EXPECT_EQ(ab.maxValue, all.maxValue);
}

TEST(Tracer, RingKeepsNewestAndCountsDrops)
{
    obs::Tracer tracer(4);
    for (std::uint32_t i = 0; i < 6; ++i)
        tracer.span(obs::Track::Proc, i, obs::SpanKind::Busy, i * 10, 1);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);
    std::uint32_t expect_id = 2;  // oldest two overwritten
    tracer.forEach([&](const obs::TraceEvent &e) {
        EXPECT_EQ(e.id, expect_id);
        EXPECT_EQ(e.begin, Tick(expect_id) * 10);
        ++expect_id;
    });
    EXPECT_EQ(expect_id, 6u);
}

// The ring grows on demand, so a capacity no host could allocate up
// front costs only what is recorded.
TEST(Tracer, HugeCapacityAllocatesOnDemand)
{
    obs::Tracer tracer(SIZE_MAX);
    for (std::uint32_t i = 0; i < 3; ++i)
        tracer.span(obs::Track::Proc, i, obs::SpanKind::Busy, i, 1);
    EXPECT_EQ(tracer.capacity(), SIZE_MAX);
    EXPECT_EQ(tracer.size(), 3u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, DisarmedSpanRecordsNothing)
{
    obs::Tracer tracer(8);
    tracer.arm(false);
    tracer.span(obs::Track::Proc, 0, obs::SpanKind::Busy, 0, 5);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    tracer.arm(true);
    tracer.span(obs::Track::Proc, 0, obs::SpanKind::Busy, 0, 5);
    EXPECT_EQ(tracer.size(), 1u);
}

TEST(Perfetto, ExportsParseableTraceEvents)
{
    obs::Tracer tracer(16);
    tracer.span(obs::Track::Proc, 1, obs::SpanKind::Busy, 0, 3);
    tracer.span(obs::Track::Proc, 1, obs::SpanKind::StallLoadMiss, 3, 15);
    tracer.span(obs::Track::Cache, 1, obs::SpanKind::MissService, 4, 18,
                0x1f80);
    tracer.span(obs::Track::ReqSwitch, (2u << 8) | 3u,
                obs::SpanKind::PortBusy, 5, 2);

    const std::string json = obs::perfettoJson(tracer);
    std::string error;
    const exp::Json doc = exp::Json::parse(json, &error);
    ASSERT_TRUE(error.empty()) << error;
    const exp::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    unsigned complete = 0, metadata = 0, with_addr = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const exp::Json &e = events->at(i);
        const exp::Json *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->asString() == "X") {
            ++complete;
            EXPECT_NE(e.find("ts"), nullptr);
            EXPECT_NE(e.find("dur"), nullptr);
            if (e.find("args"))
                ++with_addr;
        } else {
            EXPECT_EQ(ph->asString(), "M");
            ++metadata;
        }
    }
    EXPECT_EQ(complete, 4u);
    EXPECT_EQ(with_addr, 1u);
    // 5 process_name records plus one thread_name per (track, id) pair.
    EXPECT_EQ(metadata, 5u + 3u);
}

// End to end: a machine with the tracer wired retains spans from every
// component class, and a disarmed tracer retains none while the stall
// accounting still tiles (attribution never depends on the tracer).
TEST(Tracer, MachineWiresAllTracks)
{
    exp::SweepPoint point = exp::paperPoint(
        "Relax", core::Model::WO1, exp::Scale::Quick, /*big_cache=*/false,
        /*line_bytes=*/16, /*procs=*/8);
    point.seed = point.derivedSeed();

    obs::ObsConfig wired;
    wired.tracer = true;
    const PointRun traced(point, wired);
    const obs::Tracer *tracer = traced.run.machine->tracer();
    ASSERT_NE(tracer, nullptr);
    EXPECT_GT(tracer->size(), 0u);
    bool seen[obs::numTracks] = {};
    tracer->forEach([&](const obs::TraceEvent &e) {
        seen[static_cast<unsigned>(e.track)] = true;
    });
    for (unsigned t = 0; t < obs::numTracks; ++t) {
        EXPECT_TRUE(seen[t]) << obs::trackName(static_cast<obs::Track>(t));
    }
    const StatSet stats = traced.run.machine->collectStats();
    EXPECT_TRUE(stats.has("obs.trace_events"));

    const PointRun absent(point);
    wired.tracerArmed = false;
    const PointRun disarmed(point, wired);
    ASSERT_NE(disarmed.run.machine->tracer(), nullptr);
    EXPECT_EQ(disarmed.run.machine->tracer()->size(), 0u);
    const core::RunMetrics &m = disarmed.run.metrics;
    EXPECT_EQ(m.breakdown.accounted() + m.idleCycles,
              static_cast<std::uint64_t>(m.cycles) *
                  disarmed.run.machine->numProcs());
    // Identical timing with the tracer armed, disarmed, or absent.
    EXPECT_EQ(m.cycles, traced.run.metrics.cycles);
    EXPECT_EQ(m.cycles, absent.run.metrics.cycles);
}
