/**
 * @file
 * hostbench: the host-speed benchmark of mcsim.
 *
 * One process, one worker thread, one workload per invocation:
 *
 *   paper-quick   the golden-pinned `quick` grid through exp::runGrid
 *   checked-fuzz  exp::fuzzGrid points with the Fatal checkers on and
 *                 every trace checked by axiom::checkTrace
 *   litmus-mc     mc::explore over the 7-model x 10-litmus matrix
 *
 * Every number is taken from outside the simulator, at its public entry
 * points. An untraced run (--trace 0) times whole verified passes and
 * reports the end-to-end metrics; a traced run (--trace 1) alternates
 * untraced passes with passes that record a span around every public
 * call, and reports per-layer counts, per-layer self times and the
 * tracing overhead. Every pass checks its outputs; any failure makes
 * the result incorrect and the exit status 1.
 *
 * Usage:
 *   hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--golden FILE] [--spans-out FILE]
 *             [--commit TEXT] [--source TEXT]
 *   hostbench --self-test [--golden FILE]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. README.md in this directory
 * documents the workloads, the metric map and the baseline.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "axiom/axiom_checker.hh"
#include "axiom/litmus.hh"
#include "core/consistency.hh"
#include "core/machine.hh"
#include "core/metrics.hh"
#include "exp/golden.hh"
#include "exp/grid.hh"
#include "exp/json.hh"
#include "exp/sweep.hh"
#include "mc/explorer.hh"
#include "workloads/workload.hh"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOSTBENCH_CXX_FLAGS
#define HOSTBENCH_CXX_FLAGS "unknown"
#endif
#if defined(__clang__)
#define HOSTBENCH_COMPILER __VERSION__
#else
#define HOSTBENCH_COMPILER "GCC " __VERSION__
#endif

using namespace mcsim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** The seed that keeps every pinned input: the quick grid's golden
 *  seeds, fuzz base seed 1 and McOptions::seed 1. */
constexpr std::uint64_t kDefaultSeed = 1;

/** checked-fuzz points per pass. */
constexpr unsigned kFuzzPoints = 200;

/** Set-up repetitions: at least kSetupMinReps, and more until
 *  kSetupMinSeconds of set-up have been timed. */
constexpr unsigned kSetupMinReps = 7;
constexpr unsigned kSetupMaxReps = 4000;
constexpr double kSetupMinSeconds = 0.5;

/** Rounds of the Machine build-and-destroy loop behind core.build_us. */
constexpr unsigned kBuildRounds = 9;

/** Allowed gap between a traced pass's wall time and the sum of its
 *  spans' self times, as a share of the wall time. */
constexpr double kSelfTimeTolerance = 0.01;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** A pinned seed as seen under benchmark seed @p seed: unchanged at the
 *  default, re-derived (never 0, the "canonical" marker) otherwise. */
std::uint64_t
reseed(std::uint64_t pinned, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return pinned;
    const std::uint64_t s = mix64(pinned ^ mix64(seed));
    return s ? s : 1;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Peak resident memory of this process image (VmHWM). Unlike
 *  getrusage's ru_maxrss it restarts at exec, so a launcher's own
 *  footprint does not leak in. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --------------------------------------------------------------- spans

/** One timed call. Spans of one point or pair share its group id. */
struct Span
{
    const char *name;
    const char *layer;
    std::uint64_t group;  ///< point/pair number; 0 = the workload itself
    int parent;           ///< index of the enclosing span; -1 at the root
    double start;         ///< seconds since the tracer's epoch
    double end;
};

/** In-memory span log of one traced pass. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    void
    open(const char *name, const char *layer, std::uint64_t group)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, layer, group, parent, now(), 0});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    void
    close()
    {
        spans_[stack_.back()].end = now();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double now() const { return secondsBetween(epoch_, Clock::now()); }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; records nothing when @p tracer is null (untraced pass). */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, const char *layer,
          std::uint64_t group)
        : tracer_(tracer)
    {
        if (tracer_)
            tracer_->open(name, layer, group);
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

/** Self time (duration minus the time its children cover) per layer. */
std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::vector<double> childTime(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[spans[i].layer] += spans[i].end - spans[i].start - childTime[i];
    return self;
}

/** Total duration of the spans called @p name. */
double
spanTime(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0;
    for (const Span &s : spans)
        if (name == s.name)
            total += s.end - s.start;
    return total;
}

// -------------------------------------------------------------- passes

/** Simulated work of one pass, summed over its points or pairs. Exact
 *  and seed-determined: a speed-only change leaves every field alone
 *  (sim.events aside, which a kernel change may legitimately move). */
struct Counts
{
    double cycles = 0;
    double events = 0;
    double retired = 0;
    double cacheAccesses = 0;
    double cacheMisses = 0;
    double dirRequests = 0;
    double netMessages = 0;
    double netQueueCycles = 0;
    double accessesChecked = 0;
    double lineAudits = 0;
    double orderingChecks = 0;
    double traceEvents = 0;
    double edges = 0;
    double schedules = 0;
    double choicePoints = 0;
    double sleepBlocked = 0;
};

/** One verified pass over the workload. */
struct Pass
{
    double wall = 0;
    /** Fingerprint of the simulated results (canonical sweep document or
     *  per-pair search verdicts); equal on every pass of one seed. */
    std::string digest;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    Counts counts;
    std::vector<Span> spans;  ///< traced passes only
};

/** Timed differences of Machine::run with an observer switched off. */
struct Ablation
{
    double checkOverhead = 0;
    double recordOverhead = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

class Bench
{
  public:
    virtual ~Bench() = default;
    /** Seconds spent before the first simulated event, once. */
    virtual double setupOnce() = 0;
    /** One verified pass; spans are recorded when @p tracer is set. */
    virtual Pass pass(Tracer *tracer) = 0;
    /** Microseconds to build and destroy one of the workload's
     *  Machines, averaged over one round of all of them. */
    virtual double buildRoundUs() = 0;
    /** checked-fuzz's observer re-runs; empty elsewhere. */
    virtual Ablation ablate() { return {}; }
};

void
addStats(Counts &c, const StatSet &stats)
{
    c.cacheAccesses += stats.get("cache.total.loads") +
                       stats.get("cache.total.stores") +
                       stats.get("cache.total.sync_accesses");
    c.cacheMisses += stats.get("cache.total.loads") +
                     stats.get("cache.total.stores") +
                     stats.get("cache.total.sync_accesses") -
                     stats.get("cache.total.load_hits") -
                     stats.get("cache.total.store_hits") -
                     stats.get("cache.total.sync_hits");
    c.dirRequests += stats.get("mem.total.requests");
    c.netMessages +=
        stats.get("reqnet.messages") + stats.get("respnet.messages");
    c.netQueueCycles +=
        stats.get("reqnet.queue_cycles") + stats.get("respnet.queue_cycles");
    c.accessesChecked += stats.get("check.accesses_checked");
    c.lineAudits += stats.get("check.line_audits");
    c.orderingChecks += stats.get("check.ordering_checks");
}

/** paper-quick and checked-fuzz: a grid of sweep points. */
class SweepBench : public Bench
{
  public:
    /** @p golden, when set, is the committed reference document;
     *  otherwise the first pass's document becomes the reference, so
     *  every later pass is checked for determinism. */
    SweepBench(std::function<exp::Grid()> make_grid,
               std::optional<exp::Json> golden)
        : makeGrid_(std::move(make_grid)), reference_(std::move(golden))
    {}

    double
    setupOnce() override
    {
        auto t0 = Clock::now();
        const exp::Grid grid = makeGrid_();
        double total = secondsBetween(t0, Clock::now());
        for (const exp::SweepPoint &point : grid.points) {
            t0 = Clock::now();
            core::MachineConfig cfg = point.machineConfig();
            auto workload = point.makeWorkload();
            if (!workload->dataRaceFree())
                cfg.check.races = false;
            auto machine = std::make_unique<core::Machine>(cfg);
            workload->setup(*machine);
            total += secondsBetween(t0, Clock::now());
        }
        return total;
    }

    Pass
    pass(Tracer *tracer) override
    {
        const auto t0 = Clock::now();
        Pass out;
        {
            Scope root(tracer, "workload", "bench", 0);
            exp::Grid grid;
            {
                Scope s(tracer, "grid", "exp", 0);
                grid = makeGrid_();
            }
            exp::SweepOutcomes outcomes;
            if (tracer) {
                std::vector<exp::JobResult> results;
                results.reserve(grid.points.size());
                for (std::size_t i = 0; i < grid.points.size(); ++i) {
                    Scope s(tracer, "point", "bench", i + 1);
                    results.push_back(
                        tracedPoint(grid.points[i], tracer, i + 1, out));
                }
                outcomes.add(grid, std::move(results));
            } else {
                // What a user runs: the sweep engine on one thread.
                outcomes = exp::runGrid(grid, {1, false});
            }
            std::string text;
            exp::Json doc;
            {
                Scope s(tracer, "json", "exp", 0);
                doc = outcomes.toJson();
                text = doc.dump();
            }
            if (!reference_)
                reference_ = doc;
            exp::GoldenDiff diff;
            {
                Scope s(tracer, "golden", "exp", 0);
                diff = exp::compareToGolden(doc, *reference_, grid.name);
            }
            out.digest = hex64(fnv1a64(text));
            tally(grid, outcomes, diff, out);
        }
        out.wall = secondsBetween(t0, Clock::now());
        if (tracer)
            out.spans = tracer->spans();
        return out;
    }

    double
    buildRoundUs() override
    {
        const exp::Grid grid = makeGrid_();
        const auto t0 = Clock::now();
        for (const exp::SweepPoint &point : grid.points)
            core::Machine machine(point.machineConfig());
        return secondsBetween(t0, Clock::now()) * 1e6 /
               static_cast<double>(grid.points.size());
    }

    Ablation
    ablate() override
    {
        Ablation out;
        const exp::Grid grid = makeGrid_();
        for (const exp::SweepPoint &point : grid.points) {
            if (!point.runChecks || !point.recordTrace)
                continue;
            exp::SweepPoint noCheck = point;
            noCheck.runChecks = false;
            exp::SweepPoint noRecord = point;
            noRecord.recordTrace = false;
            try {
                const auto full = timedRun(point);
                const auto without_check = timedRun(noCheck);
                const auto without_record = timedRun(noRecord);
                out.checkOverhead += full.first - without_check.first;
                out.recordOverhead += full.first - without_record.first;
                ++out.attempted;
                if (without_check.second != full.second ||
                    without_record.second != full.second) {
                    ++out.failed;
                    out.errors.push_back(point.id() +
                                         ": an observer changed the "
                                         "simulated cycle count");
                }
            } catch (const std::exception &err) {
                ++out.attempted;
                ++out.failed;
                out.errors.push_back(point.id() + ": " + err.what());
            }
        }
        return out;
    }

  private:
    /** SweepRunner::runPoint's steps, one span per public call. */
    static exp::JobResult
    tracedPoint(const exp::SweepPoint &point, Tracer *tracer,
                std::uint64_t group, Pass &out)
    {
        exp::JobResult result;
        result.point = point;
        try {
            core::MachineConfig cfg = point.machineConfig();
            std::unique_ptr<workloads::Workload> workload;
            {
                Scope s(tracer, "make", "workloads", group);
                workload = point.makeWorkload();
            }
            if (!workload->dataRaceFree())
                cfg.check.races = false;
            std::unique_ptr<core::Machine> machine;
            {
                Scope s(tracer, "build", "core", group);
                machine = std::make_unique<core::Machine>(cfg);
            }
            {
                Scope s(tracer, "setup", "workloads", group);
                workload->setup(*machine);
            }
            Tick last = 0;
            {
                Scope s(tracer, "run", "core", group);
                last = machine->run();
            }
            {
                Scope s(tracer, "verify", "workloads", group);
                workload->verify(*machine);
            }
            StatSet stats;
            {
                Scope s(tracer, "metrics", "core", group);
                result.metrics = core::RunMetrics::fromMachine(*machine, last);
                stats = machine->collectStats();
            }
            Counts &c = out.counts;
            c.events += static_cast<double>(machine->eventQueue().executed());
            c.retired += static_cast<double>(machine->totalRetired());
            addStats(c, stats);
            if (axiom::TraceRecorder *rec = machine->traceRecorder()) {
                Scope s(tracer, "axiom", "axiom", group);
                const axiom::Trace &trace = rec->finish();
                const axiom::AxiomResult verdict =
                    axiom::checkTrace(trace, cfg.modelParams());
                result.traceChecked = true;
                result.traceAccepted = verdict.ok;
                result.traceEvents = trace.events.size();
                result.traceEdges = verdict.edgeCount;
                c.traceEvents += static_cast<double>(result.traceEvents);
                c.edges += static_cast<double>(result.traceEdges);
                if (!verdict.ok) {
                    result.error =
                        "axiomatic trace rejected: " + verdict.message;
                }
            }
            {
                Scope s(tracer, "teardown", "core", group);
                machine.reset();
                workload.reset();
            }
            result.ok = result.error.empty();
        } catch (const std::exception &err) {
            result.error = err.what();
        }
        return result;
    }

    /** Host seconds of Machine::run and the simulated cycle count. */
    static std::pair<double, Tick>
    timedRun(const exp::SweepPoint &point)
    {
        core::MachineConfig cfg = point.machineConfig();
        auto workload = point.makeWorkload();
        if (!workload->dataRaceFree())
            cfg.check.races = false;
        core::Machine machine(cfg);
        workload->setup(machine);
        const auto t0 = Clock::now();
        const Tick last = machine.run();
        const double run_s = secondsBetween(t0, Clock::now());
        workload->verify(machine);
        if (axiom::TraceRecorder *rec = machine.traceRecorder()) {
            const axiom::AxiomResult verdict =
                axiom::checkTrace(rec->finish(), cfg.modelParams());
            if (!verdict.ok)
                throw std::runtime_error("axiomatic trace rejected: " +
                                         verdict.message);
        }
        return {run_s, last};
    }

    static void
    tally(const exp::Grid &grid, const exp::SweepOutcomes &outcomes,
          const exp::GoldenDiff &diff, Pass &out)
    {
        const std::vector<exp::JobResult> &jobs =
            outcomes.gridResults(grid.name);
        out.attempted += jobs.size();
        std::uint64_t failed = 0;
        for (const exp::JobResult &job : jobs) {
            out.counts.cycles += static_cast<double>(job.metrics.cycles);
            if (!job.ok) {
                ++failed;
                out.errors.push_back(job.point.id() + ": " + job.error);
            } else if (job.metrics.faultsInjected != 0) {
                ++failed;
                out.errors.push_back(job.point.id() +
                                     ": faults injected on a fault-free "
                                     "point");
            }
        }
        if (!diff.ok) {
            // A divergence is not attributed to a point: the whole pass
            // counts as failed.
            failed = jobs.size();
            out.errors.push_back(diff.report);
        }
        out.failed += failed;
    }

    std::function<exp::Grid()> makeGrid_;
    std::optional<exp::Json> reference_;
};

/** One (model, litmus) verification job. */
struct McJob
{
    mc::McOptions options;
    core::MachineConfig config;
};

/** litmus-mc: the model checker over the model x litmus matrix. */
class McBench : public Bench
{
  public:
    McBench(std::uint64_t mc_seed, std::size_t limit)
        : seed_(mc_seed), limit_(limit)
    {}

    double
    setupOnce() override
    {
        const auto t0 = Clock::now();
        const std::vector<McJob> jobs = makeJobs();
        const double s = secondsBetween(t0, Clock::now());
        if (jobs.empty())
            throw std::runtime_error("no model-checking jobs");
        return s;
    }

    Pass
    pass(Tracer *tracer) override
    {
        const auto t0 = Clock::now();
        Pass out;
        {
            Scope root(tracer, "workload", "bench", 0);
            std::vector<McJob> jobs;
            {
                Scope s(tracer, "jobs", "mc", 0);
                jobs = makeJobs();
            }
            std::string verdicts;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                Scope pair(tracer, "pair", "bench", i + 1);
                const mc::McOptions &opt = jobs[i].options;
                mc::McResult result;
                {
                    Scope s(tracer, "explore", "mc", i + 1);
                    result = mc::explore(opt);
                }
                const mc::McStats &st = result.stats;
                out.counts.schedules += static_cast<double>(st.schedulesRun);
                out.counts.choicePoints +=
                    static_cast<double>(st.choicePoints);
                out.counts.sleepBlocked +=
                    static_cast<double>(st.sleepBlockedRuns);
                const std::string name = std::string(core::modelName(
                                             opt.model)) +
                                         "/" + opt.litmus;
                verdicts += name + " " + std::to_string(st.schedulesRun) +
                            " " + std::to_string(st.choicePoints) + " " +
                            std::to_string(st.sleepBlockedRuns) + " " +
                            (result.complete ? "complete" : "incomplete") +
                            " " +
                            (result.violation ? result.violation->kind
                                              : "verified") +
                            "\n";
                ++out.attempted;
                if (result.violation || !result.complete) {
                    ++out.failed;
                    out.errors.push_back(
                        name + ": " +
                        (result.violation ? result.violation->message
                                          : "search incomplete"));
                }
            }
            out.digest = hex64(fnv1a64(verdicts));
        }
        out.wall = secondsBetween(t0, Clock::now());
        if (tracer)
            out.spans = tracer->spans();
        return out;
    }

    double
    buildRoundUs() override
    {
        const std::vector<McJob> jobs = makeJobs();
        const auto t0 = Clock::now();
        for (const McJob &job : jobs)
            core::Machine machine(job.config);
        return secondsBetween(t0, Clock::now()) * 1e6 /
               static_cast<double>(jobs.size());
    }

  private:
    std::vector<McJob>
    makeJobs() const
    {
        std::vector<McJob> jobs;
        for (core::Model model : core::allModels) {
            for (const axiom::LitmusTest &test : axiom::litmusSuite()) {
                if (limit_ && jobs.size() == limit_)
                    return jobs;
                mc::McOptions opt;
                opt.model = model;
                opt.litmus = test.name;
                opt.seed = seed_;
                const axiom::LitmusTest *found = mc::findLitmus(test.name);
                if (!found)
                    throw std::runtime_error("unknown litmus " + test.name);
                jobs.push_back({opt, mc::mcConfig(opt, *found)});
            }
        }
        return jobs;
    }

    std::uint64_t seed_;
    std::size_t limit_;
};

// ---------------------------------------------------------------- runs

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool selfTest = false;
    std::string golden = "tests/golden/quick.json";
    std::string spansOut;
    std::string commit = "unknown";
    std::string source = "unknown";
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload paper-quick|checked-fuzz|"
                 "litmus-mc [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--golden FILE] [--spans-out FILE] "
                 "[--commit TEXT] [--source TEXT]\n"
                 "       hostbench --self-test [--golden FILE]\n",
                 message.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            opt.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError(arg + " expects a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || value[0] == '-')
                usageError("--seed expects a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(opt.seconds > 0) ||
                opt.seconds > 120)
                usageError("--seconds expects a number in (0, 120]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usageError("--trace expects 0 or 1");
            opt.trace = value == "1";
        } else if (arg == "--golden") {
            opt.golden = value;
        } else if (arg == "--spans-out") {
            opt.spansOut = value;
        } else if (arg == "--commit") {
            opt.commit = value;
        } else if (arg == "--source") {
            opt.source = value;
        } else {
            usageError("unknown argument: " + arg);
        }
    }
    if (!opt.selfTest && opt.workload != "paper-quick" &&
        opt.workload != "checked-fuzz" && opt.workload != "litmus-mc")
        usageError("--workload expects paper-quick, checked-fuzz or "
                   "litmus-mc");
    return opt;
}

exp::Json
loadJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    exp::Json doc = exp::Json::parse(text.str(), &error);
    if (doc.isNull())
        throw std::runtime_error(path + ": " + error);
    return doc;
}

/** @p golden cut down to the points of @p grid (self-test instances). */
exp::Json
restrictGolden(const exp::Json &golden, const exp::Grid &grid)
{
    exp::Json jobs = exp::Json::array();
    const exp::Json *grids = golden.find("grids");
    const exp::Json *all = grids ? grids->find(grid.name) : nullptr;
    for (const exp::SweepPoint &point : grid.points) {
        for (std::size_t i = 0; all && i < all->size(); ++i) {
            const exp::Json *id = all->at(i).find("id");
            if (id && id->isString() && id->asString() == point.id())
                jobs.push(all->at(i));
        }
    }
    exp::Json out = exp::Json::object();
    out["grids"] = exp::Json::object();
    out["grids"][grid.name] = jobs;
    return out;
}

/**
 * The workload's bench at @p seed. @p limit > 0 cuts it to that many
 * points or pairs (the self-test's one-point instances).
 */
std::unique_ptr<Bench>
makeBench(const std::string &workload, std::uint64_t seed,
          const std::string &golden_path, std::size_t limit)
{
    if (workload == "paper-quick") {
        auto grid = [seed, limit]() {
            exp::Grid g = exp::namedGrid("quick", exp::Scale::Quick);
            if (limit && g.points.size() > limit)
                g.points.resize(limit);
            for (exp::SweepPoint &p : g.points)
                p.seed = reseed(p.seed, seed);
            return g;
        };
        std::optional<exp::Json> golden;
        if (seed == kDefaultSeed) {
            golden = loadJson(golden_path);
            if (limit)
                golden = restrictGolden(*golden, grid());
        }
        return std::make_unique<SweepBench>(grid, golden);
    }
    if (workload == "checked-fuzz") {
        const unsigned count = limit ? static_cast<unsigned>(limit)
                                     : kFuzzPoints;
        const std::uint64_t base = reseed(1, seed);
        return std::make_unique<SweepBench>(
            [count, base]() { return exp::fuzzGrid(count, base); },
            std::nullopt);
    }
    return std::make_unique<McBench>(reseed(1, seed), limit);
}

/** Outcome of one invocation's measurements. */
struct Run
{
    std::vector<double> setups;
    std::vector<Pass> untraced;
    std::vector<Pass> traced;
    std::vector<double> buildUs;
    Ablation ablation;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

void
account(Run &run, std::uint64_t attempted, std::uint64_t failed,
        const std::vector<std::string> &errors)
{
    run.attempted += attempted;
    run.failed += failed;
    run.errors.insert(run.errors.end(), errors.begin(), errors.end());
}

Run
measure(Bench &bench, double seconds, bool trace, bool setups)
{
    Run run;
    if (setups) {
        double spent = 0;
        while (run.setups.size() < kSetupMaxReps &&
               (run.setups.size() < kSetupMinReps ||
                spent < kSetupMinSeconds)) {
            run.setups.push_back(bench.setupOnce());
            spent += run.setups.back();
        }
    }

    const auto start = Clock::now();
    const auto epoch = Clock::now();
    double round = 0;
    do {
        const auto r0 = Clock::now();
        run.untraced.push_back(bench.pass(nullptr));
        if (trace) {
            Tracer tracer(epoch);
            run.traced.push_back(bench.pass(&tracer));
        }
        round = secondsBetween(r0, Clock::now());
        // Stop where the next round would end closest to `seconds`, so
        // a run lasts about `seconds` however long one pass is.
    } while (secondsBetween(start, Clock::now()) + round / 2 <= seconds);

    for (const std::vector<Pass> *passes : {&run.untraced, &run.traced}) {
        for (const Pass &p : *passes) {
            account(run, p.attempted, p.failed, p.errors);
            if (p.digest != run.untraced.front().digest) {
                ++run.failed;
                run.errors.push_back("simulated results differ between "
                                     "passes (digest " +
                                     p.digest + " vs " +
                                     run.untraced.front().digest + ")");
            }
        }
    }
    if (trace) {
        for (unsigned r = 0; r < kBuildRounds; ++r)
            run.buildUs.push_back(bench.buildRoundUs());
        run.ablation = bench.ablate();
        account(run, run.ablation.attempted, run.ablation.failed,
                run.ablation.errors);
    }
    return run;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::vector<Metric>
endToEnd(const Run &run)
{
    std::vector<double> walls;
    for (const Pass &p : run.untraced)
        walls.push_back(p.wall);
    return {
        {"wall_s", median(walls), "s"},
        {"setup_s", median(run.setups), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced pass. */
std::map<std::string, double>
layerValues(const Pass &p)
{
    const Counts &c = p.counts;
    const std::vector<Span> &s = p.spans;
    const double run_s = spanTime(s, "run");
    std::map<std::string, double> m = {
        {"sim.events", c.events},
        {"sim.cycles", c.cycles},
        {"sim.events_per_cycle", ratio(c.events, c.cycles)},
        {"sim.ns_per_event", ratio(run_s * 1e9, c.events)},
        {"core.run_s", run_s},
        {"core.metrics_s", spanTime(s, "metrics")},
        {"workloads.make_s", spanTime(s, "make")},
        {"workloads.setup_s", spanTime(s, "setup")},
        {"workloads.verify_s", spanTime(s, "verify")},
        {"cpu.retired", c.retired},
        {"cpu.ns_per_instr", ratio(run_s * 1e9, c.retired)},
        {"mem.cache_accesses", c.cacheAccesses},
        {"mem.cache_misses", c.cacheMisses},
        {"mem.dir_requests", c.dirRequests},
        {"net.messages", c.netMessages},
        {"net.queue_cycles", c.netQueueCycles},
        {"check.accesses_checked", c.accessesChecked},
        {"check.line_audits", c.lineAudits},
        {"check.ordering_checks", c.orderingChecks},
        {"axiom.trace_events", c.traceEvents},
        {"axiom.edges", c.edges},
        {"axiom.check_s", spanTime(s, "axiom")},
        {"mc.schedules", c.schedules},
        {"mc.choice_points", c.choicePoints},
        {"mc.redundant_ratio", ratio(c.sleepBlocked, c.schedules)},
        {"mc.us_per_schedule",
         ratio(spanTime(s, "explore") * 1e6, c.schedules)},
        {"exp.json_s", spanTime(s, "json")},
        {"exp.golden_s", spanTime(s, "golden")},
        {"trace.spans", static_cast<double>(s.size())},
        {"trace.wall_s", p.wall},
    };
    double self_sum = 0;
    const std::map<std::string, double> self = selfTimeByLayer(s);
    for (const char *layer : {"bench", "exp", "workloads", "core", "axiom",
                              "mc"}) {
        const auto it = self.find(layer);
        const double v = it == self.end() ? 0.0 : it->second;
        m[std::string("self.") + layer + "_s"] = v;
        self_sum += v;
    }
    m["trace.unaccounted"] = ratio(p.wall - self_sum, p.wall);
    return m;
}

/** Unit of each per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> &
layerUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"sim.events", "count"},
        {"sim.cycles", "count"},
        {"sim.events_per_cycle", "ratio"},
        {"sim.ns_per_event", "ns"},
        {"sim.cycles_per_s", "1/s"},
        {"core.run_s", "s"},
        {"core.metrics_s", "s"},
        {"core.build_us", "us"},
        {"workloads.make_s", "s"},
        {"workloads.setup_s", "s"},
        {"workloads.verify_s", "s"},
        {"cpu.retired", "count"},
        {"cpu.ns_per_instr", "ns"},
        {"mem.cache_accesses", "count"},
        {"mem.cache_misses", "count"},
        {"mem.dir_requests", "count"},
        {"net.messages", "count"},
        {"net.queue_cycles", "count"},
        {"check.accesses_checked", "count"},
        {"check.line_audits", "count"},
        {"check.ordering_checks", "count"},
        {"check.overhead_s", "s"},
        {"axiom.trace_events", "count"},
        {"axiom.edges", "count"},
        {"axiom.check_s", "s"},
        {"axiom.record_overhead_s", "s"},
        {"mc.schedules", "count"},
        {"mc.choice_points", "count"},
        {"mc.redundant_ratio", "ratio"},
        {"mc.us_per_schedule", "us"},
        {"exp.json_s", "s"},
        {"exp.golden_s", "s"},
        {"self.bench_s", "s"},
        {"self.exp_s", "s"},
        {"self.workloads_s", "s"},
        {"self.core_s", "s"},
        {"self.axiom_s", "s"},
        {"self.mc_s", "s"},
        {"trace.wall_s", "s"},
        {"trace.overhead_s", "s"},
        {"trace.unaccounted", "ratio"},
        {"trace.spans", "count"},
    };
    return units;
}

std::vector<Metric>
perLayer(const Run &run)
{
    std::map<std::string, std::vector<double>> series;
    for (const Pass &p : run.traced)
        for (const auto &[name, value] : layerValues(p))
            series[name].push_back(value);
    std::map<std::string, double> value;
    for (const auto &[name, values] : series)
        value[name] = median(values);

    std::vector<double> walls;
    std::vector<double> overheads;  // paired: each round's traced pass
    for (std::size_t i = 0; i < run.untraced.size(); ++i) {
        walls.push_back(run.untraced[i].wall);
        if (i < run.traced.size())
            overheads.push_back(run.traced[i].wall - run.untraced[i].wall);
    }
    value["sim.cycles_per_s"] = ratio(value["sim.cycles"], median(walls));
    value["trace.overhead_s"] = median(overheads);
    value["core.build_us"] = median(run.buildUs);
    value["check.overhead_s"] = run.ablation.checkOverhead;
    value["axiom.record_overhead_s"] = run.ablation.recordOverhead;

    std::vector<Metric> out;
    for (const auto &[name, unit] : layerUnits())
        out.push_back({name, value[name], unit});
    return out;
}

/** Traced passes whose self times miss their wall time. */
void
checkSelfTimes(Run &run)
{
    for (const Pass &p : run.traced) {
        const double gap = std::fabs(layerValues(p)["trace.unaccounted"]);
        if (gap > kSelfTimeTolerance) {
            ++run.failed;
            run.errors.push_back("per-layer self times miss the traced "
                                 "wall time by " +
                                 jsonNumber(gap * 100) + "%");
        }
    }
}

exp::Json
provenance(const Options &opt)
{
    exp::Json p = exp::Json::object();
    p["commit"] = opt.commit;
    p["source"] = opt.source;
    p["build"] = HOSTBENCH_BUILD_TYPE;
    p["flags"] = HOSTBENCH_CXX_FLAGS;
    p["compiler"] = HOSTBENCH_COMPILER;
    p["nproc"] = std::thread::hardware_concurrency();
    return p;
}

void
printProvenance(const Options &opt)
{
    const exp::Json p = provenance(opt);
    std::string line;
    for (const auto &[key, value] : p.pairs())
        line += " " + key + "=" +
                (value.isString() ? "\"" + value.asString() + "\""
                                  : jsonNumber(value.asNumber()));
    std::printf("provenance:%s\n", line.c_str());
}

/** The traced passes' spans, written once the run has ended. */
void
writeSpans(const std::string &path, const Options &opt, const Run &run)
{
    exp::Json doc = exp::Json::object();
    doc["workload"] = opt.workload;
    doc["seed"] = opt.seed;
    doc["provenance"] = provenance(opt);
    exp::Json spans = exp::Json::array();
    for (std::size_t k = 0; k < run.traced.size(); ++k) {
        const std::vector<Span> &passSpans = run.traced[k].spans;
        for (std::size_t i = 0; i < passSpans.size(); ++i) {
            const Span &s = passSpans[i];
            exp::Json span = exp::Json::object();
            span["pass"] = static_cast<unsigned>(k);
            span["id"] = static_cast<unsigned>(i);
            span["name"] = s.name;
            span["layer"] = s.layer;
            span["group"] = s.group;
            span["parent"] = s.parent;
            span["start_s"] = s.start;
            span["end_s"] = s.end;
            spans.push(std::move(span));
        }
    }
    doc["spans"] = std::move(spans);
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

void
printRunSummary(const std::string &workload, std::uint64_t seed,
                const Run &run)
{
    const Pass &first = run.untraced.front();
    std::printf("workload=%s seed=%llu passes=%zu traced_passes=%zu "
                "setup_reps=%zu\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                run.untraced.size(), run.traced.size(), run.setups.size());
    for (const Pass &p : run.untraced)
        std::printf("  pass wall %.6f s\n", p.wall);
    for (const Pass &p : run.traced)
        std::printf("  traced pass wall %.6f s (%zu spans)\n", p.wall,
                    p.spans.size());
    std::printf("digest %s seed=%llu: %s\n", workload.c_str(),
                static_cast<unsigned long long>(seed), first.digest.c_str());
    if (first.counts.cycles > 0) {
        std::vector<double> walls;
        for (const Pass &p : run.untraced)
            walls.push_back(p.wall);
        std::printf("sim_cycles=%.0f sim_cycles_per_s=%.6g\n",
                    first.counts.cycles,
                    first.counts.cycles / median(walls));
    }
    std::printf("fail_ratio=%llu/%llu\n",
                static_cast<unsigned long long>(run.failed),
                static_cast<unsigned long long>(run.attempted));
    for (std::size_t i = 0; i < run.errors.size() && i < 10; ++i)
        std::printf("error: %s\n", run.errors[i].c_str());
}

void
printResult(const Run &run, const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (run.failed == 0 ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(run.attempted) +
                      ", \"failed\": " + std::to_string(run.failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               jsonNumber(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

/** One-point/one-pair instance of every workload through the same
 *  code as a real run, untraced and traced. */
int
selfTest(const Options &opt)
{
    int failures = 0;
    for (const char *workload : {"paper-quick", "checked-fuzz",
                                 "litmus-mc"}) {
        auto bench = makeBench(workload, kDefaultSeed, opt.golden, 1);
        Run run = measure(*bench, 1e-9, /*trace=*/true, /*setups=*/true);
        checkSelfTimes(run);
        const bool ok = run.failed == 0 && run.attempted > 0 &&
                        run.traced.size() == 1 && !run.setups.empty();
        std::printf("self-test %-12s %s (attempted %llu, failed %llu, "
                    "digest %s)\n",
                    workload, ok ? "ok" : "FAILED",
                    static_cast<unsigned long long>(run.attempted),
                    static_cast<unsigned long long>(run.failed),
                    run.untraced.front().digest.c_str());
        for (const std::string &e : run.errors)
            std::printf("  error: %s\n", e.c_str());
        failures += ok ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        printProvenance(opt);
        if (opt.selfTest)
            return selfTest(opt);

        auto bench = makeBench(opt.workload, opt.seed, opt.golden, 0);
        Run run = measure(*bench, opt.seconds, opt.trace, !opt.trace);
        if (opt.trace) {
            checkSelfTimes(run);
            if (!opt.spansOut.empty())
                writeSpans(opt.spansOut, opt, run);
        }
        printRunSummary(opt.workload, opt.seed, run);
        printResult(run, opt.trace ? perLayer(run) : endToEnd(run));
        return run.failed == 0 ? 0 : 1;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "hostbench: %s\n", err.what());
        return 1;
    }
}
