/**
 * @file
 * trace_runner: the command-line face of src/trace/ -- record workload
 * runs as trace files, replay traces through any consistency model,
 * import text traces, and inspect/validate files.
 *
 * Usage:
 *   trace_runner record   --benchmark NAME --model MODEL --out FILE
 *                         [--scale S] [--procs N] [--cache-bytes N]
 *                         [--line-bytes N] [--delay N] [--seed N]
 *   trace_runner replay   --trace FILE [--model MODEL|all]
 *                         [--cache-bytes N] [--line-bytes N] [--delay N]
 *                         [--check] [--json FILE]
 *   trace_runner import   --text FILE --out FILE [--procs N] [--seed N]
 *   trace_runner inspect  --trace FILE
 *
 * record defaults to the quick-grid geometry (8 procs, 4 KiB caches,
 * 16-byte lines, delay 4) with the point's derived seed, so a recorded
 * trace replays cycle-identically against the golden quick numbers.
 * replay runs the trace on the recorded processor count; --model all
 * sweeps the seven models. import converts the classic text trace
 * syntax (one `<proc> <r|w> <hex-addr>` transaction per line, e.g.
 * "5 w 0xabcd") into a validated .mct; malformed lines are rejected
 * with their line number, never skipped.
 *
 * Exit status: 0 success, 1 on malformed traces or failed runs
 * (structured one-line error, no partial results), 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "exp/grid.hh"
#include "exp/json.hh"
#include "sim/logging.hh"
#include "trace/capture.hh"
#include "trace/import.hh"
#include "trace/replay.hh"
#include "workloads/workload.hh"

#include "../common/cli.hh"

using namespace mcsim;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s record   --benchmark NAME --model MODEL --out FILE\n"
        "                   [--scale quick|scaled|full] [--procs N]\n"
        "                   [--cache-bytes N] [--line-bytes N]\n"
        "                   [--delay N] [--seed N]\n"
        "       %s replay   --trace FILE [--model MODEL|all]\n"
        "                   [--cache-bytes N] [--line-bytes N]\n"
        "                   [--delay N] [--check] [--json FILE]\n"
        "       %s import   --text FILE --out FILE [--procs N] "
        "[--seed N]\n"
        "       %s inspect  --trace FILE\n",
        argv0, argv0, argv0, argv0);
}

[[noreturn]] void
configError(const char *argv0, const std::string &message)
{
    std::fprintf(stderr, "trace_runner: %s\n", message.c_str());
    usage(argv0);
    std::exit(2);
}

/** Everything any subcommand accepts; each validates its own subset. */
struct Options
{
    std::string subcommand;
    std::string benchmark;
    std::string model;
    std::string tracePath;
    std::string textPath;
    std::string out;
    std::string json;
    exp::Scale scale = exp::Scale::Quick;
    unsigned procs = 0;
    unsigned cacheBytes = 0;
    unsigned lineBytes = 0;
    unsigned delay = 0;
    std::uint64_t seed = 0;
    bool check = false;
};

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        configError(argv[0], "missing subcommand");
    Options opt;
    opt.subcommand = argv[1];
    if (opt.subcommand != "record" && opt.subcommand != "replay" &&
        opt.subcommand != "import" && opt.subcommand != "inspect") {
        if (opt.subcommand == "--help" || opt.subcommand == "-h") {
            usage(argv[0]);
            std::exit(0);
        }
        configError(argv[0],
                    "unknown subcommand '" + opt.subcommand +
                        "' (record/replay/import/inspect)");
    }

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                configError(argv[0], arg + " expects a value");
            return argv[++i];
        };
        auto nextUnsigned = [&]() -> unsigned {
            unsigned value = 0;
            if (!tools::parseUnsigned(next(), value))
                configError(argv[0],
                            arg + " expects a non-negative integer, "
                                  "got '" + argv[i] + "'");
            return value;
        };
        // Geometry: 0 would read as "not set" and use the default.
        auto nextPositive = [&]() -> unsigned {
            const unsigned value = nextUnsigned();
            if (value == 0)
                configError(argv[0],
                            arg + " expects a positive integer, got '0'");
            return value;
        };
        auto nextU64 = [&]() -> std::uint64_t {
            std::uint64_t value = 0;
            if (!tools::parseU64(next(), value))
                configError(argv[0],
                            arg + " expects a non-negative integer, "
                                  "got '" + argv[i] + "'");
            return value;
        };
        if (arg == "--benchmark") {
            opt.benchmark = next();
        } else if (arg == "--model") {
            opt.model = next();
        } else if (arg == "--trace") {
            opt.tracePath = next();
        } else if (arg == "--text") {
            opt.textPath = next();
        } else if (arg == "--out") {
            opt.out = next();
        } else if (arg == "--json") {
            opt.json = next();
        } else if (arg == "--scale") {
            try {
                opt.scale = exp::scaleFromName(next());
            } catch (const FatalError &err) {
                configError(argv[0], err.what());
            }
        } else if (arg == "--procs") {
            opt.procs = nextPositive();
        } else if (arg == "--cache-bytes") {
            opt.cacheBytes = nextPositive();
        } else if (arg == "--line-bytes") {
            opt.lineBytes = nextPositive();
        } else if (arg == "--delay") {
            opt.delay = nextPositive();
        } else if (arg == "--seed") {
            opt.seed = nextU64();
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else {
            configError(argv[0], "unknown argument: " + arg);
        }
    }
    return opt;
}

/** Parse --model against the model catalog before any work starts. */
core::Model
parseModel(const char *argv0, const std::string &name)
{
    try {
        return core::modelFromName(name);
    } catch (const FatalError &err) {
        configError(argv0, err.what());
    }
}

/**
 * The models a replay covers: one named model, or all seven under
 * "all" (the trace front-end's whole point).
 */
std::vector<core::Model>
replayModels(const char *argv0, const std::string &name)
{
    if (name.empty() || name == "all") {
        return {std::begin(core::allModels), std::end(core::allModels)};
    }
    return {parseModel(argv0, name)};
}

/** The sweep point a record run executes (quick-grid defaults). */
exp::SweepPoint
recordPoint(const Options &opt)
{
    exp::SweepPoint p;
    p.benchmark = opt.benchmark;
    p.model = parseModel("trace_runner", opt.model);
    p.scale = opt.scale;
    p.numProcs = opt.procs ? opt.procs : 8;
    p.cacheBytes =
        opt.cacheBytes ? opt.cacheBytes : exp::smallCache(opt.scale);
    p.lineBytes = opt.lineBytes ? opt.lineBytes : 16;
    p.delay = opt.delay ? opt.delay : 4;
    p.seed = opt.seed ? opt.seed : p.derivedSeed();
    return p;
}

int
runRecord(const Options &opt)
{
    if (opt.benchmark.empty())
        configError("trace_runner", "record requires --benchmark");
    if (opt.model.empty())
        configError("trace_runner", "record requires --model");
    if (opt.out.empty())
        configError("trace_runner", "record requires --out");
    const exp::SweepPoint point = recordPoint(opt);
    const auto workload = point.makeWorkload();

    trace::TraceHeader header;
    header.procCount = point.numProcs;
    header.seed = point.seed;
    header.source = point.benchmark;

    trace::FileSink sink(opt.out);
    trace::TraceCapture capture(header, sink);
    const workloads::RunResult result = workloads::runWorkload(
        *workload, point.machineConfig(),
        [&](core::Machine &machine) { capture.attach(machine); });
    capture.finish();
    sink.close();

    std::printf("recorded %s: %llu records, %llu cycles -> %s\n",
                point.id().c_str(),
                static_cast<unsigned long long>(capture.recordCount()),
                static_cast<unsigned long long>(result.metrics.cycles),
                opt.out.c_str());
    return 0;
}

/** One replay run through workloads::runWorkload. */
workloads::RunResult
replayOnce(trace::TraceWorkload &workload, core::Model model,
           const Options &opt)
{
    core::MachineConfig cfg;
    cfg.numProcs = workload.header().procCount;
    cfg.numModules = cfg.numProcs;
    cfg.model = model;
    cfg.cacheBytes = opt.cacheBytes ? opt.cacheBytes : 4 * 1024;
    cfg.lineBytes = opt.lineBytes ? opt.lineBytes : 16;
    cfg.loadDelay = opt.delay ? opt.delay : 4;
    cfg.branchDelay = cfg.loadDelay;
    // Coherence/ordering auditors stay on (repo default); --check adds
    // the axiomatic trace recorder + post-run check on top. Traces are
    // traffic, not DRF programs, so runWorkload turns the race detector
    // off.
    cfg.trace.record = opt.check;
    workloads::RunResult result = workloads::runWorkload(workload, cfg);
    if (result.axiom && !result.axiom->ok)
        fatal("axiomatic trace rejected: %s", result.axiom->message.c_str());
    return result;
}

int
runReplay(const Options &opt)
{
    if (opt.tracePath.empty())
        configError("trace_runner", "replay requires --trace");
    const std::vector<core::Model> models =
        replayModels("trace_runner", opt.model);

    auto workload = trace::TraceWorkload::fromFile(opt.tracePath);
    const trace::TraceHeader &header = workload->header();
    std::printf("%s: %s trace, %u procs, %llu records, seed %llu\n",
                opt.tracePath.c_str(), header.source.c_str(),
                header.procCount,
                static_cast<unsigned long long>(header.totalRecords),
                static_cast<unsigned long long>(header.seed));

    exp::Json runs = exp::Json::array();
    for (core::Model model : models) {
        const workloads::RunResult result =
            replayOnce(*workload, model, opt);
        std::printf("  %-5s %10llu cycles, read hit rate %.4f%s\n",
                    core::modelName(model),
                    static_cast<unsigned long long>(
                        result.metrics.cycles),
                    result.metrics.readHitRate,
                    opt.check ? ", checks ok" : "");
        exp::Json entry = exp::Json::object();
        entry["model"] = exp::Json(core::modelName(model));
        exp::Json metrics = exp::Json::object();
        for (const auto &[name, value] : result.metrics.toStatSet())
            metrics[name] = exp::Json(value);
        entry["metrics"] = std::move(metrics);
        runs.push(std::move(entry));
    }

    if (!opt.json.empty()) {
        exp::Json doc = exp::Json::object();
        doc["schema"] = exp::Json("mcsim-trace-replay-v2");
        doc["trace"] = exp::Json(opt.tracePath);
        doc["source"] = exp::Json(header.source);
        doc["procs"] = exp::Json(header.procCount);
        doc["records"] = exp::Json(
            static_cast<double>(header.totalRecords));
        doc["runs"] = std::move(runs);
        std::ofstream out(opt.json, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
            return 1;
        }
        out << doc.dump() << "\n";
    }
    return 0;
}

int
runImport(const Options &opt)
{
    if (opt.textPath.empty())
        configError("trace_runner", "import requires --text");
    if (opt.out.empty())
        configError("trace_runner", "import requires --out");
    trace::ImportParams params;
    params.procs = opt.procs;
    params.seed = opt.seed;
    const trace::ImportSummary summary =
        trace::importTextTraceFile(opt.textPath, opt.out, params);
    std::printf("imported %s: %llu transaction(s) (%llu read(s), %llu "
                "write(s)), %u procs -> %s\n",
                opt.textPath.c_str(),
                static_cast<unsigned long long>(summary.records),
                static_cast<unsigned long long>(summary.reads),
                static_cast<unsigned long long>(summary.writes),
                summary.procs, opt.out.c_str());
    return 0;
}

int
runInspect(const Options &opt)
{
    if (opt.tracePath.empty())
        configError("trace_runner", "inspect requires --trace");
    trace::TraceReader reader(
        std::make_shared<trace::FileSource>(opt.tracePath));
    const trace::TraceSummary summary = reader.validate();
    const trace::TraceHeader &header = reader.header();

    std::printf("trace:      %s\n", opt.tracePath.c_str());
    std::printf("source:     %s\n", header.source.c_str());
    std::printf("version:    %u\n",
                static_cast<unsigned>(trace::traceVersion));
    std::printf("procs:      %u\n", header.procCount);
    std::printf("seed:       %llu\n",
                static_cast<unsigned long long>(header.seed));
    std::printf("records:    %llu\n",
                static_cast<unsigned long long>(summary.records));
    std::printf("addr limit: 0x%llx\n",
                static_cast<unsigned long long>(summary.addrLimit));
    std::printf("content:    %016llx\n",
                static_cast<unsigned long long>(summary.contentHash));
    static const char *const kindNames[] = {
        "exec", "load", "use", "loaduse", "store",
        "syncload", "syncrmw", "syncstore", "fence"};
    for (std::size_t k = 0; k < summary.perKind.size(); ++k) {
        if (summary.perKind[k]) {
            std::printf("  %-9s %llu\n", kindNames[k],
                        static_cast<unsigned long long>(
                            summary.perKind[k]));
        }
    }
    for (unsigned p = 0; p < header.procCount; ++p) {
        std::printf("  proc %-4u %llu record(s)\n", p,
                    static_cast<unsigned long long>(
                        reader.procRecords(p)));
    }
    std::printf("validation: ok\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        if (opt.subcommand == "record")
            return runRecord(opt);
        if (opt.subcommand == "replay")
            return runReplay(opt);
        if (opt.subcommand == "import")
            return runImport(opt);
        return runInspect(opt);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "trace_runner: %s\n", err.what());
        return 1;
    }
}
