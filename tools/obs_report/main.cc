/**
 * @file
 * obs_report: run one configuration point and report where its cycles
 * went -- the exact stall-cause breakdown (src/obs/ attribution), the
 * latency-histogram summaries, and optionally a Perfetto timeline.
 *
 * Usage:
 *   obs_report [--benchmark NAME] [--model NAME] [--procs N]
 *              [--cache BYTES] [--line BYTES] [--delay N]
 *              [--scale quick|scaled|full] [--seed N]
 *              [--trace FILE] [--trace-capacity N]
 *              [--assert-identity] [--json]
 *
 * Defaults: Relax / WO1 / quick-grid geometry (8 procs, 4K cache,
 * 16-byte lines, delay 4), derived seed. --trace FILE writes a Chrome
 * trace-event JSON loadable in ui.perfetto.dev / chrome://tracing.
 *
 * Exit status: 0 ok, 1 when --assert-identity finds a processor whose
 * busy + stall cycles do not equal its run time (or the machine-level
 * identity fails), 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/machine.hh"
#include "core/metrics.hh"
#include "exp/grid.hh"
#include "exp/json.hh"
#include "obs/perfetto.hh"
#include "obs/stall.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

#include "../common/cli.hh"

using namespace mcsim;

namespace
{

struct Options
{
    exp::SweepPoint point;
    std::string tracePath;
    std::size_t traceCapacity = std::size_t(1) << 20;
    bool assertIdentity = false;
    bool json = false;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--benchmark NAME] [--model NAME] [--procs N]\n"
        "          [--cache BYTES] [--line BYTES] [--delay N]\n"
        "          [--scale quick|scaled|full] [--seed N]\n"
        "          [--trace FILE] [--trace-capacity N]\n"
        "          [--assert-identity] [--json]\n"
        "  --benchmark       Gauss|Qsort|Relax|Psim|Synthetic "
        "(default Relax)\n"
        "  --model           SC1|bSC1|SC2|WO1|bWO1|WO2|RC (default WO1)\n"
        "  --procs/--cache/--line/--delay  machine geometry\n"
        "                    (default 8 / 4096 / 16 / 4)\n"
        "  --scale           problem scale (default quick)\n"
        "  --seed            workload seed (default: derived from the "
        "point)\n"
        "  --trace FILE      write a Perfetto (Chrome trace-event) JSON\n"
        "  --trace-capacity  tracer ring size in events (default 1M)\n"
        "  --assert-identity exit 1 unless busy + stalls == cycles "
        "exactly\n"
        "  --json            machine-readable report instead of tables\n",
        argv0);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.point.benchmark = "Relax";
    opt.point.model = core::Model::WO1;
    opt.point.scale = exp::Scale::Quick;
    opt.point.numProcs = 8;
    opt.point.cacheBytes = 4096;
    opt.point.lineBytes = 16;
    opt.point.delay = 4;
    bool seed_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        auto argError = [&](const std::string &message) {
            std::fprintf(stderr, "obs_report: %s\n", message.c_str());
            usage(argv[0]);
            std::exit(2);
        };
        auto nextUnsigned = [&]() -> unsigned {
            unsigned value = 0;
            if (!tools::parseUnsigned(next(), value))
                argError(arg + " expects a non-negative integer, got '" +
                         argv[i] + "'");
            return value;
        };
        if (arg == "--benchmark") {
            opt.point.benchmark = next();
        } else if (arg == "--model") {
            // modelFromName throws on an unknown name; keep the usage
            // contract (one line + exit 2) instead of std::terminate.
            try {
                opt.point.model = core::modelFromName(next());
            } catch (const FatalError &err) {
                argError(err.what());
            }
        } else if (arg == "--procs") {
            opt.point.numProcs = nextUnsigned();
        } else if (arg == "--cache") {
            opt.point.cacheBytes = nextUnsigned();
        } else if (arg == "--line") {
            opt.point.lineBytes = nextUnsigned();
        } else if (arg == "--delay") {
            opt.point.delay = nextUnsigned();
        } else if (arg == "--scale") {
            try {
                opt.point.scale = exp::scaleFromName(next());
            } catch (const FatalError &err) {
                argError(err.what());
            }
        } else if (arg == "--seed") {
            if (!tools::parseU64(next(), opt.point.seed))
                argError("--seed expects an integer");
            seed_given = true;
        } else if (arg == "--trace") {
            opt.tracePath = next();
        } else if (arg == "--trace-capacity") {
            std::uint64_t capacity = 0;
            if (!tools::parseU64(next(), capacity) || capacity == 0)
                argError("--trace-capacity expects a positive integer");
            opt.traceCapacity = static_cast<std::size_t>(capacity);
        } else if (arg == "--assert-identity") {
            opt.assertIdentity = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            std::exit(2);
        }
    }
    if (!seed_given)
        opt.point.seed = opt.point.derivedSeed();
    return opt;
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

void
printHistRow(const char *name, const obs::LatencyHistogram &h)
{
    std::printf("  %-12s %10llu %10.2f %8llu %8llu %8llu %8llu\n", name,
                static_cast<unsigned long long>(h.samples), h.mean(),
                static_cast<unsigned long long>(h.p50()),
                static_cast<unsigned long long>(h.p90()),
                static_cast<unsigned long long>(h.p99()),
                static_cast<unsigned long long>(h.maxValue));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    std::unique_ptr<workloads::Workload> workload;
    workloads::RunResult run;
    try {
        workload = opt.point.makeWorkload();
        core::MachineConfig cfg = opt.point.machineConfig();
        if (!opt.tracePath.empty()) {
            cfg.obs.tracer = true;
            cfg.obs.tracerEvents = opt.traceCapacity;
        }
        run = workloads::runWorkload(*workload, cfg);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }
    const core::Machine *machine = run.machine.get();
    const core::RunMetrics &m = run.metrics;
    const Tick last = m.cycles;

    // The attribution identity, per processor and machine-wide.
    bool identity_ok = true;
    for (unsigned p = 0; p < machine->numProcs(); ++p) {
        const auto &ps = machine->proc(p).stats();
        if (ps.breakdown.accounted() != ps.finishedAt) {
            identity_ok = false;
            std::fprintf(stderr,
                         "identity FAILED: proc %u accounts %llu of %llu "
                         "cycles\n",
                         p,
                         static_cast<unsigned long long>(
                             ps.breakdown.accounted()),
                         static_cast<unsigned long long>(ps.finishedAt));
        }
    }
    const std::uint64_t total =
        static_cast<std::uint64_t>(last) * machine->numProcs();
    if (m.breakdown.accounted() + m.idleCycles != total) {
        identity_ok = false;
        std::fprintf(stderr,
                     "identity FAILED: machine accounts %llu of %llu "
                     "proc-cycles\n",
                     static_cast<unsigned long long>(
                         m.breakdown.accounted() + m.idleCycles),
                     static_cast<unsigned long long>(total));
    }

    if (!opt.tracePath.empty()) {
        const obs::Tracer *tracer = machine->tracer();
        std::ofstream out(opt.tracePath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.tracePath.c_str());
            return 2;
        }
        out << obs::perfettoJson(*tracer);
        std::fprintf(stderr,
                     "trace: %zu event(s) (%llu overwritten) -> %s\n",
                     tracer->size(),
                     static_cast<unsigned long long>(tracer->dropped()),
                     opt.tracePath.c_str());
    }

    if (opt.json) {
        exp::Json doc = exp::Json::object();
        doc["point"] = exp::Json(opt.point.id());
        doc["identity_ok"] = exp::Json(identity_ok);
        exp::Json metrics = exp::Json::object();
        for (const auto &[name, value] : m.toStatSet())
            metrics[name] = exp::Json(value);
        doc["metrics"] = std::move(metrics);
        std::printf("%s\n", doc.dump().c_str());
        return identity_ok || !opt.assertIdentity ? 0 : 1;
    }

    std::printf("%s: %llu cycles, %u procs\n", opt.point.id().c_str(),
                static_cast<unsigned long long>(last),
                machine->numProcs());

    std::printf("\ncycle breakdown (%% of %llu proc-cycles)\n",
                static_cast<unsigned long long>(total));
    auto row = [&](const char *name, std::uint64_t cycles) {
        std::printf("  %-20s %14llu  %6.2f%%\n", name,
                    static_cast<unsigned long long>(cycles),
                    pct(cycles, total));
    };
    row("busy", m.breakdown.busyCycles);
    for (unsigned c = 0; c < obs::numStallCauses; ++c) {
        const auto cause = static_cast<obs::StallCause>(c);
        row(obs::stallCauseName(cause), m.breakdown.cause(cause));
    }
    row("idle (finished)", m.idleCycles);
    std::printf("  %-20s %14llu  %6.2f%%  [%s]\n", "total",
                static_cast<unsigned long long>(m.breakdown.accounted() +
                                                m.idleCycles),
                pct(m.breakdown.accounted() + m.idleCycles, total),
                identity_ok ? "exact" : "MISMATCH");

    std::printf("\nlatency histograms (cycles)\n");
    std::printf("  %-12s %10s %10s %8s %8s %8s %8s\n", "", "samples",
                "mean", "p50", "p90", "p99", "max");
    printHistRow("miss", m.missLatencyHist);
    printHistRow("net transit", m.netTransitHist);
    printHistRow("mem queue", m.memQueueHist);

    return identity_ok || !opt.assertIdentity ? 0 : 1;
}
