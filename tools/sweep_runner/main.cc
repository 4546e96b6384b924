/**
 * @file
 * sweep_runner: run named configuration grids through the parallel
 * sweep engine (src/exp/) and emit canonical JSON/CSV results, or check
 * them against committed golden baselines.
 *
 * Usage:
 *   sweep_runner [--grid NAME[,NAME...]]... [--scale quick|scaled|full]
 *                [--threads N] [--out FILE] [--csv FILE]
 *                [--check DIR] [--golden-out DIR]
 *                [--procs N] [--cache-bytes N] [--line-bytes N]
 *                [--faults PRESET] [--chaos]
 *                [--journal DIR [--resume]]
 *                [--list] [--no-progress]
 *
 * Defaults: --grid quick, --threads hardware, --out
 * results/BENCH_sweep.json when any grid ran and --out was not given
 * explicitly pass --out "" to suppress writing.
 *
 * The JSON document is byte-identical for a given grid list regardless
 * of --threads (results are serialized in grid order; nothing
 * wall-clock-derived is recorded). --check DIR compares each grid
 * against DIR/<grid>.json under the per-metric tolerance policy
 * (src/exp/golden.hh) and prints the first divergent metric by name.
 *
 * --faults PRESET applies a fault-injection preset (src/fault/) to every
 * point; --chaos instead runs the chaos harness (src/exp/chaos.hh),
 * which pairs every point with a fault-free baseline and asserts fault
 * transparency. All configuration -- grid names, preset names, geometry
 * overrides -- is validated before any job runs, so a typo fails in
 * milliseconds with one actionable line instead of mid-sweep.
 *
 * --journal DIR checkpoints every completed point to DIR/<grid>.mcsj
 * (src/exp/journal.hh) and assembles the results from the journal, so
 * the document and CSV are byte-identical to a run without it. After a
 * crash or kill, the same command plus --resume runs only the points
 * the journal lacks and converges to the same bytes. An existing
 * journal without --resume is refused: its fingerprint covers the
 * flags, not the binary, so continuing one must be asked for.
 *
 * Exit status: 0 all jobs ok (and all checks clean), 1 on any failed
 * job, golden divergence, chaos failure, or journal/I/O error, 2 on
 * usage/config errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exp/chaos.hh"
#include "exp/golden.hh"
#include "exp/grid.hh"
#include "exp/journal.hh"
#include "exp/sweep.hh"
#include "fault/fault_config.hh"
#include "mem/cache.hh"
#include "sim/logging.hh"

#include "../common/cli.hh"

using namespace mcsim;

namespace
{

struct Options
{
    std::vector<std::string> grids;
    exp::Scale scale = exp::Scale::Scaled;
    unsigned threads = 0;
    std::string out = "results/BENCH_sweep.json";
    bool outExplicit = false;
    std::string csv;
    std::string checkDir;
    std::string goldenOut;
    std::string faults;
    bool chaos = false;
    std::string journalDir;
    bool resume = false;
    unsigned procs = 0;
    unsigned cacheBytes = 0;
    unsigned lineBytes = 0;
    bool list = false;
    bool progress = true;
};

void
usage(const char *argv0)
{
    std::string names;
    for (const std::string &name : exp::gridNames())
        names += (names.empty() ? "" : "|") + name;
    std::string presets;
    for (const std::string &name : fault::faultPresetNames())
        presets += (presets.empty() ? "" : "|") + name;
    std::fprintf(
        stderr,
        "usage: %s [--grid NAME[,NAME...]]... [--scale quick|scaled|full]\n"
        "          [--threads N] [--out FILE] [--csv FILE]\n"
        "          [--check DIR] [--golden-out DIR]\n"
        "          [--procs N] [--cache-bytes N] [--line-bytes N]\n"
        "          [--faults PRESET] [--chaos]\n"
        "          [--journal DIR [--resume]] [--list] [--no-progress]\n"
        "  --grid        grid(s) to run: %s, or all (default: quick)\n"
        "  --scale       problem/cache scale for the paper grids\n"
        "                (default scaled; the quick grid is always quick)\n"
        "  --threads     worker threads (default: hardware concurrency)\n"
        "  --out         results JSON path (default "
        "results/BENCH_sweep.json,\n"
        "                or results/BENCH_chaos.json under --chaos;\n"
        "                \"\" suppresses writing)\n"
        "  --csv         also write a flat CSV of every job\n"
        "  --check       diff each grid against DIR/<grid>.json golden\n"
        "                baselines; non-zero exit on divergence\n"
        "  --golden-out  write one per-grid golden document into DIR\n"
        "  --procs       override processor/module count per point\n"
        "  --cache-bytes override per-processor cache size per point\n"
        "  --line-bytes  override cache line size per point\n"
        "  --faults      fault-injection preset: %s\n"
        "  --chaos       run the fault-transparency chaos harness instead\n"
        "                of a plain sweep (preset from --faults, default\n"
        "                standard)\n"
        "  --journal     checkpoint each point to DIR/<grid>.mcsj; output\n"
        "                is byte-identical to a run without it\n"
        "  --resume      continue existing journals, running only the\n"
        "                points they lack\n"
        "  --list        print the known grid names and exit\n",
        argv0, names.c_str(), presets.c_str());
}

void
splitGrids(const std::string &arg, std::vector<std::string> &out)
{
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::string name =
            arg.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (name == "all") {
            for (const std::string &g : exp::gridNames())
                out.push_back(g);
        } else if (!name.empty()) {
            out.push_back(name);
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
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
            std::fprintf(stderr, "sweep_runner: %s\n", message.c_str());
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
        if (arg == "--grid") {
            splitGrids(next(), opt.grids);
        } else if (arg == "--scale") {
            try {
                opt.scale = exp::scaleFromName(next());
            } catch (const FatalError &err) {
                argError(err.what());
            }
        } else if (arg == "--threads") {
            opt.threads = nextUnsigned();
        } else if (arg == "--out") {
            opt.out = next();
            opt.outExplicit = true;
        } else if (arg == "--csv") {
            opt.csv = next();
        } else if (arg == "--check") {
            opt.checkDir = next();
        } else if (arg == "--golden-out") {
            opt.goldenOut = next();
        } else if (arg == "--procs") {
            opt.procs = nextUnsigned();
        } else if (arg == "--cache-bytes") {
            opt.cacheBytes = nextUnsigned();
        } else if (arg == "--line-bytes") {
            opt.lineBytes = nextUnsigned();
        } else if (arg == "--faults") {
            opt.faults = next();
        } else if (arg == "--chaos") {
            opt.chaos = true;
        } else if (arg == "--journal") {
            opt.journalDir = next();
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--no-progress") {
            opt.progress = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            std::exit(2);
        }
    }
    if (opt.grids.empty())
        opt.grids.push_back("quick");
    if (opt.chaos && !opt.outExplicit)
        opt.out = "results/BENCH_chaos.json";
    return opt;
}

/** One-line config error + exit 2 (the up-front validation contract). */
[[noreturn]] void
configError(const std::string &message)
{
    std::fprintf(stderr, "sweep_runner: %s\n", message.c_str());
    std::exit(2);
}

/** Where --journal keeps @p grid's checkpoint journal. */
std::string
journalPath(const Options &opt, const std::string &grid)
{
    return opt.journalDir + "/" + grid + ".mcsj";
}

/**
 * Name and geometry validation: every grid name, the fault preset, the
 * geometry overrides, and the journal flags. Runs before the --list
 * early exit too, so `--list --faults bogus` fails the same way a real
 * run would.
 */
void
validateConfig(const Options &opt)
{
    for (const std::string &name : opt.grids) {
        bool known = false;
        for (const std::string &g : exp::gridNames())
            known = known || g == name;
        if (!known)
            configError(strprintf(
                "unknown grid '%s' (run --list for the catalog)",
                name.c_str()));
    }
    if (!opt.faults.empty() || opt.chaos) {
        const std::string preset =
            opt.faults.empty() ? "standard" : opt.faults;
        bool known = false;
        for (const std::string &p : fault::faultPresetNames())
            known = known || p == preset;
        if (!known) {
            std::string presets;
            for (const std::string &p : fault::faultPresetNames())
                presets += (presets.empty() ? "" : "/") + p;
            configError(strprintf("unknown fault preset '%s' (try %s)",
                                  preset.c_str(), presets.c_str()));
        }
    }
    if (opt.resume && opt.journalDir.empty())
        configError("--resume requires --journal DIR (the directory of "
                    "the journals to continue)");
    if (!opt.journalDir.empty() && opt.chaos)
        configError("--journal does not apply to --chaos (the chaos "
                    "harness runs unjournaled; drop one of the two)");
    if (!opt.journalDir.empty() && !opt.resume) {
        for (const std::string &name : opt.grids) {
            const std::string path = journalPath(opt, name);
            if (exp::fileExists(path))
                configError(strprintf(
                    "journal '%s' exists; pass --resume to continue it "
                    "or remove it to start over",
                    path.c_str()));
        }
    }
    if (opt.procs && !isPowerOf2(opt.procs))
        configError(strprintf(
            "--procs %u: processor count must be a power of two "
            "(the Omega networks route by bit slices)",
            opt.procs));
    if (opt.lineBytes && (!isPowerOf2(opt.lineBytes) || opt.lineBytes < 8))
        configError(strprintf(
            "--line-bytes %u: line size must be a power of two >= 8",
            opt.lineBytes));
    const unsigned line = opt.lineBytes ? opt.lineBytes : 8;
    if (opt.cacheBytes && opt.cacheBytes < line)
        configError(strprintf(
            "--cache-bytes %u: cache would hold zero lines of %u bytes",
            opt.cacheBytes, line));
}

/**
 * Fail fast on bad configuration: after validateConfig, each resulting
 * per-point MachineConfig is dry-built and checked before a single job
 * is launched.
 */
std::vector<exp::Grid>
buildGrids(const Options &opt)
{
    std::vector<exp::Grid> grids;
    for (const std::string &name : opt.grids)
        grids.push_back(exp::namedGrid(name, opt.scale));
    for (exp::Grid &grid : grids) {
        for (exp::SweepPoint &point : grid.points) {
            if (opt.procs)
                point.numProcs = opt.procs;
            if (opt.cacheBytes)
                point.cacheBytes = opt.cacheBytes;
            if (opt.lineBytes)
                point.lineBytes = opt.lineBytes;
            if (!opt.faults.empty() && !opt.chaos)
                point.faultPreset = opt.faults;
            // Dry-build the full machine configuration so geometry that
            // only a component constructor would reject (set counts,
            // associativity divisibility, fault rates) fails here, named
            // after the point, and not mid-sweep in a worker thread.
            try {
                const core::MachineConfig cfg = point.machineConfig();
                cfg.validate();
                mem::CacheParams cache;
                cache.cacheBytes = cfg.cacheBytes;
                cache.lineBytes = cfg.lineBytes;
                cache.assoc = cfg.assoc;
                cache.validate();
            } catch (const FatalError &err) {
                configError(strprintf("point %s: %s",
                                      point.id().c_str(), err.what()));
            }
        }
    }
    return grids;
}

/**
 * Atomic results write (exp::writeFileAtomic: temp + rename), so an
 * interrupted run never leaves a truncated document where a complete
 * one is expected.
 */
bool
writeFile(const std::string &path, const std::string &content)
{
    try {
        exp::writeFileAtomic(path, content);
        return true;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "sweep_runner: %s\n", err.what());
        return false;
    }
}

int
runChaosMode(const Options &opt, const std::vector<exp::Grid> &grids)
{
    exp::ChaosOptions chaos_opts;
    chaos_opts.preset = opt.faults.empty() ? "standard" : opt.faults;
    chaos_opts.threads = opt.threads;
    chaos_opts.progress = opt.progress;

    bool all_ok = true;
    exp::Json docs = exp::Json::array();
    for (const exp::Grid &grid : grids) {
        std::fprintf(stderr,
                     "chaos grid %s: %zu point pair(s), preset %s\n",
                     grid.name.c_str(), grid.points.size(),
                     chaos_opts.preset.c_str());
        const exp::ChaosReport report = exp::runChaos(grid, chaos_opts);
        std::fputs(report.summary().c_str(), stdout);
        all_ok = all_ok && report.ok();
        docs.push(report.toJson());
    }
    if (!opt.out.empty()) {
        exp::Json doc = exp::Json::object();
        doc["schema"] = exp::Json("mcsim-chaos-v1");
        doc["reports"] = std::move(docs);
        if (!writeFile(opt.out, doc.dump() + "\n"))
            return 1;
    }
    return all_ok ? 0 : 1;
}

/** A finished sweep in canonical form, however it was run. */
struct SweepDoc
{
    exp::Json doc;
    /** Empty unless --csv was given. */
    std::string csv;
};

/** The per-grid banner on stderr. */
void
announce(const Options &opt, const exp::Grid &grid)
{
    std::fprintf(stderr, "grid %s: %zu jobs on %u thread(s)\n",
                 grid.name.c_str(), grid.points.size(),
                 opt.threads ? opt.threads
                             : std::thread::hardware_concurrency());
}

SweepDoc
runSweep(const Options &opt, const std::vector<exp::Grid> &grids)
{
    exp::SweepOutcomes outcomes;
    for (const exp::Grid &grid : grids) {
        announce(opt, grid);
        outcomes.add(grid, exp::SweepRunner({opt.threads, opt.progress})
                               .run(grid));
    }
    return {outcomes.toJson(), opt.csv.empty() ? "" : outcomes.toCsv()};
}

/**
 * The --journal path: each grid runs through exp::runJournaled, and the
 * document and CSV are assembled from the journal payloads in grid
 * order -- the same bytes SweepOutcomes would serialize.
 */
SweepDoc
runJournaledSweep(const Options &opt, const std::vector<exp::Grid> &grids)
{
    exp::ensureDirectory(opt.journalDir);
    exp::Json by_grid = exp::Json::object();
    std::string csv = exp::csvHeader();
    for (const exp::Grid &grid : grids) {
        announce(opt, grid);
        exp::JournaledRun run =
            exp::runJournaled(grid, journalPath(opt, grid.name),
                              {opt.threads, opt.progress});
        if (opt.resume)
            std::printf("journal %s: %zu/%zu point(s) resumed\n",
                        grid.name.c_str(), run.resumed,
                        grid.points.size());
        exp::Json jobs = exp::Json::array();
        for (exp::Json &job : run.jobs) {
            csv += exp::csvRowFromJson(grid.name, job);
            jobs.push(std::move(job));
        }
        by_grid[grid.name] = std::move(jobs);
    }
    exp::Json doc = exp::Json::object();
    doc["schema"] = exp::Json("mcsim-sweep-v1");
    doc["grids"] = std::move(by_grid);
    return {std::move(doc), opt.csv.empty() ? "" : std::move(csv)};
}

/** The string field @p name of @p job, or "" when absent. */
std::string
jobField(const exp::Json &job, const char *name)
{
    const exp::Json *value = job.find(name);
    return value != nullptr && value->isString() ? value->asString() : "";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    validateConfig(opt);
    if (opt.list) {
        for (const std::string &name : exp::gridNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    const std::vector<exp::Grid> grids = buildGrids(opt);
    if (opt.chaos)
        return runChaosMode(opt, grids);

    SweepDoc result;
    try {
        result = opt.journalDir.empty() ? runSweep(opt, grids)
                                        : runJournaledSweep(opt, grids);
    } catch (const FatalError &err) {
        // Journal and I/O failures: the message names the file.
        std::fprintf(stderr, "sweep_runner: %s\n", err.what());
        return 1;
    }
    const exp::Json &doc = result.doc;
    if (!opt.out.empty() && !writeFile(opt.out, doc.dump() + "\n"))
        return 1;
    if (!opt.csv.empty() && !writeFile(opt.csv, result.csv))
        return 1;
    if (!opt.goldenOut.empty()) {
        // One self-contained document per grid, the format --check
        // consumes.
        const exp::Json *grid_docs = doc.find("grids");
        for (const std::string &name : opt.grids) {
            exp::Json gdoc = exp::Json::object();
            gdoc["schema"] = exp::Json("mcsim-sweep-v1");
            exp::Json one = exp::Json::object();
            if (const exp::Json *g =
                    grid_docs ? grid_docs->find(name) : nullptr)
                one[name] = *g;
            else
                one[name] = exp::Json::array();
            gdoc["grids"] = std::move(one);
            if (!writeFile(opt.goldenOut + "/" + name + ".json",
                           gdoc.dump() + "\n"))
                return 1;
        }
    }

    bool check_ok = true;
    if (!opt.checkDir.empty()) {
        for (const std::string &name : opt.grids) {
            const exp::GoldenDiff diff =
                exp::checkAgainstGoldenDir(doc, opt.checkDir, name);
            std::fputs(diff.report.c_str(), stdout);
            check_ok = check_ok && diff.ok;
        }
    }

    std::size_t total = 0;
    std::vector<std::string> failures;
    for (const std::string &name : opt.grids) {
        for (const exp::Json &job :
             doc.find("grids")->find(name)->elements()) {
            ++total;
            if (jobField(job, "status") != "ok")
                failures.push_back(jobField(job, "id") + ": " +
                                   jobField(job, "error"));
        }
    }
    const std::size_t failed = failures.size();
    std::printf("sweep_runner: %zu/%zu job(s) ok%s\n", total - failed,
                total, check_ok ? "" : ", golden check FAILED");
    for (const std::string &failure : failures)
        std::printf("  FAILED %s\n", failure.c_str());
    return failed == 0 && check_ok ? 0 : 1;
}
