/**
 * @file
 * Explorer: run one benchmark on one machine configuration and dump the
 * full statistics set -- stall breakdowns, network contention, module
 * utilization, hit rates. The tool for poking at the simulator.
 *
 * Usage: explorer [options]
 *   --workload gauss|qsort|relax|psim|synthetic   (default gauss)
 *   --model SC1|SC2|WO1|WO2|RC|bSC1|bWO1          (default SC1)
 *   --procs N       (default 16)
 *   --cache BYTES   (default 4096)
 *   --line BYTES    (default 16)
 *   --delay N       load/branch delay (default 4)
 *   --size N        workload size knob (matrix n / elements / interior)
 *   --full          paper-size workload and caches
 *   --stats         dump every raw statistic
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/machine_config.hh"
#include "core/metrics.hh"
#include "workloads/gauss.hh"
#include "workloads/psim.hh"
#include "workloads/qsort.hh"
#include "workloads/relax.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

using namespace mcsim;

namespace
{

std::unique_ptr<workloads::Workload>
makeWorkload(const std::string &name, unsigned size, bool full)
{
    if (name == "gauss") {
        workloads::GaussParams p;
        p.n = size ? size : (full ? 250 : 150);
        return std::make_unique<workloads::GaussWorkload>(p);
    }
    if (name == "qsort") {
        workloads::QsortParams p;
        p.n = size ? size : (full ? 500000 : 40960);
        return std::make_unique<workloads::QsortWorkload>(p);
    }
    if (name == "relax") {
        workloads::RelaxParams p;
        p.interior = size ? size : (full ? 512 : 192);
        p.iterations = full ? 8 : 3;
        return std::make_unique<workloads::RelaxWorkload>(p);
    }
    if (name == "psim") {
        workloads::PsimParams p;
        if (size)
            p.packetsPerProc = size;
        return std::make_unique<workloads::PsimWorkload>(p);
    }
    if (name == "synthetic") {
        workloads::SyntheticParams p;
        p.refsPerProc = size ? size : 5000;
        return std::make_unique<workloads::SyntheticWorkload>(p);
    }
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "gauss";
    std::string model = "SC1";
    unsigned size = 0;
    bool full = false;
    bool dump_stats = false;

    core::MachineConfig cfg;
    cfg.cacheBytes = 4096;
    cfg.lineBytes = 16;

    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", argv[i]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            workload = next();
        else if (!std::strcmp(argv[i], "--model"))
            model = next();
        else if (!std::strcmp(argv[i], "--procs"))
            cfg.numProcs = cfg.numModules = std::atoi(next());
        else if (!std::strcmp(argv[i], "--cache"))
            cfg.cacheBytes = std::atoi(next());
        else if (!std::strcmp(argv[i], "--line"))
            cfg.lineBytes = std::atoi(next());
        else if (!std::strcmp(argv[i], "--delay"))
            cfg.loadDelay = cfg.branchDelay = std::atoi(next());
        else if (!std::strcmp(argv[i], "--size"))
            size = std::atoi(next());
        else if (!std::strcmp(argv[i], "--full"))
            full = true;
        else if (!std::strcmp(argv[i], "--stats"))
            dump_stats = true;
        else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return 1;
        }
    }
    if (full && cfg.cacheBytes == 4096)
        cfg.cacheBytes = 16 * 1024;
    cfg.model = core::modelFromName(model);

    auto w = makeWorkload(workload, size, full);
    auto result = workloads::runWorkload(*w, cfg);
    const auto &m = result.metrics;

    std::printf("%s on %s: %s\n", w->name().c_str(), model.c_str(),
                m.summary().c_str());
    std::printf("  invalidation misses: %llu of %llu misses (%.0f%%)\n",
                (unsigned long long)m.invalidationMisses,
                (unsigned long long)m.totalMisses,
                m.totalMisses ? 100.0 * m.invalidationMisses / m.totalMisses
                              : 0.0);
    std::printf("  module skew: %.2f   avg resp latency: %.1f   "
                "avg miss latency: %.1f\n",
                m.moduleSkew, m.avgRespLatency, m.avgMissLatency);
    std::printf("  bypasses: %llu  prefetches: %llu (useful %llu)  "
                "deferred releases: %llu\n",
                (unsigned long long)m.bufferBypasses,
                (unsigned long long)m.prefetchesIssued,
                (unsigned long long)m.prefetchesUseful,
                (unsigned long long)m.releasesDeferred);
    const StatSet s = result.machine->collectStats();
    std::printf("  stalls/proc: issue=%.0f drain=%.0f use=%.0f sync=%.0f "
                "blocked=%.0f (cycles=%llu)\n",
                s.get("proc.total.issue_stall_cycles") / cfg.numProcs,
                s.get("proc.total.drain_stall_cycles") / cfg.numProcs,
                s.get("proc.total.use_stall_cycles") / cfg.numProcs,
                s.get("proc.total.sync_stall_cycles") / cfg.numProcs,
                s.get("proc.total.blocked_stall_cycles") / cfg.numProcs,
                (unsigned long long)m.cycles);

    if (dump_stats) {
        std::string text;
        for (const auto &[k, v] : s)
            std::printf("%s = %.1f\n", k.c_str(), v);
    }
    return 0;
}
