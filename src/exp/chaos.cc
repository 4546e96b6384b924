#include "exp/chaos.hh"

#include <cstdio>

#include "exp/sweep.hh"
#include "fault/fault_config.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace mcsim::exp
{

namespace
{

/** One pair outcome: an element of ChaosReport::toJson()'s "points". */
Json
chaosPointToJson(const ChaosPointResult &result)
{
    Json job = Json::object();
    job["id"] = Json(result.id);
    job["status"] = Json(result.ok ? "ok" : "failed");
    if (!result.ok)
        job["error"] = Json(result.error);
    job["faultsInjected"] = Json(result.faultsInjected);
    job["retries"] = Json(result.retries);
    job["nacks"] = Json(result.nacks);
    job["staleMessages"] = Json(result.staleMessages);
    job["baselineCycles"] = Json(result.baselineCycles);
    job["faultedCycles"] = Json(result.faultedCycles);
    return job;
}

} // namespace

ChaosPointResult
runChaosPoint(const SweepPoint &point, const std::string &preset)
{
    SweepPoint faulted = point;
    faulted.faultPreset = preset;
    // Transparency is only worth asserting under full scrutiny: the
    // invariant suite runs in Fatal mode (a violation aborts the run into
    // the error string) and the axiomatic checker replays the trace.
    faulted.runChecks = true;
    faulted.recordTrace = true;

    ChaosPointResult result;
    result.id = faulted.id();
    try {
        // Fault-free baseline: the ground truth the faulted twin must
        // reproduce byte for byte. Its machine is gone before the
        // faulted twin is built.
        std::uint64_t want = 0;
        {
            SweepPoint baseline = point;
            baseline.faultPreset.clear();
            const auto workload = baseline.makeWorkload();
            const workloads::RunResult run =
                workloads::runWorkload(*workload, baseline.machineConfig());
            result.baselineCycles = run.metrics.cycles;
            if (run.axiom && !run.axiom->ok) {
                result.error =
                    "axiomatic trace rejected: " + run.axiom->message;
                return result;
            }
            want = workload->resultFingerprint(*run.machine);
        }

        const auto workload = faulted.makeWorkload();
        const workloads::RunResult run =
            workloads::runWorkload(*workload, faulted.machineConfig());
        const core::RunMetrics &m = run.metrics;
        result.faultedCycles = m.cycles;
        result.faultsInjected = m.faultsInjected;
        result.retries = m.protocolRetries;
        result.nacks = m.protocolNacks;
        result.staleMessages = m.staleProtocolMsgs;
        if (!run.axiom->ok) {
            result.error = "axiomatic trace rejected under faults: " +
                           run.axiom->message;
            return result;
        }

        const std::uint64_t got = workload->resultFingerprint(*run.machine);
        if (got != want) {
            result.error = strprintf(
                "final memory diverged: baseline fingerprint %016llx, "
                "faulted %016llx (%llu faults injected, %llu retries)",
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(result.faultsInjected),
                static_cast<unsigned long long>(result.retries));
            return result;
        }
        result.ok = true;
    } catch (const std::exception &err) {
        result.error = err.what();
    }
    return result;
}

ChaosReport
runChaos(const Grid &grid, const ChaosOptions &options)
{
    // Reject unknown presets before spending any simulation time.
    (void)fault::faultPreset(options.preset);

    ChaosReport report;
    report.grid = grid.name;
    report.preset = options.preset;
    const std::size_t total = grid.points.size();
    report.points.resize(total);
    runPool(
        total, options.threads,
        [&](std::size_t i) {
            report.points[i] =
                runChaosPoint(grid.points[i], options.preset);
        },
        [&](std::size_t i, std::size_t done) {
            if (!options.progress)
                return;
            const ChaosPointResult &r = report.points[i];
            std::fprintf(
                stderr,
                "[%zu/%zu] %-52s %-6s %llu faults, %llu retries\n", done,
                total, r.id.c_str(), r.ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(r.faultsInjected),
                static_cast<unsigned long long>(r.retries));
        });
    return report;
}

bool
ChaosReport::ok() const
{
    for (const ChaosPointResult &r : points)
        if (!r.ok)
            return false;
    // A chaos sweep that never perturbed anything proves nothing; demand
    // evidence unless the operator explicitly asked for the off preset.
    if (preset != "off" && !points.empty() &&
        (totalInjected() == 0 || totalRetries() == 0))
        return false;
    return true;
}

std::size_t
ChaosReport::failures() const
{
    std::size_t n = 0;
    for (const ChaosPointResult &r : points)
        n += r.ok ? 0 : 1;
    return n;
}

std::uint64_t
ChaosReport::totalInjected() const
{
    std::uint64_t n = 0;
    for (const ChaosPointResult &r : points)
        n += r.faultsInjected;
    return n;
}

std::uint64_t
ChaosReport::totalRetries() const
{
    std::uint64_t n = 0;
    for (const ChaosPointResult &r : points)
        n += r.retries;
    return n;
}

std::string
ChaosReport::summary() const
{
    std::uint64_t nacks = 0;
    std::uint64_t stale = 0;
    for (const ChaosPointResult &r : points) {
        nacks += r.nacks;
        stale += r.staleMessages;
    }
    std::string out = strprintf(
        "chaos sweep: grid '%s', preset '%s': %zu point(s), %zu "
        "failure(s), %llu fault(s) injected, %llu retries, %llu NACKs, "
        "%llu stale messages\n",
        grid.c_str(), preset.c_str(), points.size(), failures(),
        static_cast<unsigned long long>(totalInjected()),
        static_cast<unsigned long long>(totalRetries()),
        static_cast<unsigned long long>(nacks),
        static_cast<unsigned long long>(stale));
    for (const ChaosPointResult &r : points)
        if (!r.ok)
            out += strprintf("  FAILED %s: %s\n", r.id.c_str(),
                             r.error.c_str());
    if (failures() == 0 && preset != "off" && !points.empty() &&
        (totalInjected() == 0 || totalRetries() == 0)) {
        out += "  FAILED: no faults landed (or no retries fired); the "
               "sweep exercised nothing\n";
    }
    return out;
}

Json
ChaosReport::toJson() const
{
    Json doc = Json::object();
    doc["schema"] = Json("mcsim-chaos-v1");
    doc["grid"] = Json(grid);
    doc["preset"] = Json(preset);
    doc["ok"] = Json(ok() ? 1.0 : 0.0);
    Json jobs = Json::array();
    for (const ChaosPointResult &r : points)
        jobs.push(chaosPointToJson(r));
    doc["points"] = std::move(jobs);
    return doc;
}

} // namespace mcsim::exp
