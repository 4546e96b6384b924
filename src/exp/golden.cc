#include "exp/golden.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace mcsim::exp
{

double
metricTolerance(const std::string &metric)
{
    // Integral event counters: exact. Everything the simulator counts
    // one event at a time is bit-deterministic for a fixed seed.
    static const char *exact[] = {
        "cycles",          "totalReads",        "totalWrites",
        "totalSyncOps",    "invalidationMisses", "totalMisses",
        "bufferBypasses",  "prefetchesIssued",  "prefetchesUseful",
        "releasesDeferred", "checkViolations",  "checkLineAudits",
        "checkAccessesChecked", "checkOrderingChecked",
        "faultsInjected",  "protocolRetries",   "protocolNacks",
        "staleProtocolMsgs",
        "mshrBusyCycles",  "axiomAccepted",     "axiomEvents",
        "axiomEdges",      "busyCycles",        "idleCycles",
        "stallLoadMissCycles", "stallStoreMshrCycles",
        "stallBufferCycles", "stallFenceSyncCycles",
        "stallAcquireCycles", "stallReleaseCycles",
        "missLatencyP50",  "missLatencyP90",    "missLatencyP99",
        "missLatencyMax",  "netTransitP50",     "netTransitP90",
        "netTransitP99",   "netTransitMax",     "memQueueP50",
        "memQueueP90",     "memQueueP99",       "memQueueMax"};
    for (const char *name : exact)
        if (metric == name)
            return 0.0;
    // Derived doubles (rates, latencies, per-proc averages, skew,
    // occupancy): tiny relative slack for cross-platform float
    // accumulation order.
    return 1e-9;
}

namespace
{

bool
withinTolerance(double expected, double actual, double rel_tol)
{
    if (expected == actual)
        return true;
    if (rel_tol == 0.0)
        return false;
    const double mag = std::max(std::fabs(expected), std::fabs(actual));
    return std::fabs(expected - actual) <= rel_tol * mag;
}

const Json *
findJob(const Json &jobs, const std::string &id)
{
    for (const Json &job : jobs.elements()) {
        const Json *jid = job.find("id");
        if (jid && jid->isString() && jid->asString() == id)
            return &job;
    }
    return nullptr;
}

void
firstDivergence(GoldenDiff &diff, const std::string &grid,
                const std::string &job, const std::string &what)
{
    diff.ok = false;
    diff.divergences += 1;
    if (diff.divergences == 1) {
        diff.report = strprintf("golden divergence in grid '%s'\n"
                                "  job:    %s\n"
                                "  %s\n",
                                grid.c_str(), job.c_str(), what.c_str());
    }
}

} // namespace

GoldenDiff
compareToGolden(const Json &actual, const Json &golden,
                const std::string &grid_name)
{
    GoldenDiff diff;

    const Json *golden_grids = golden.find("grids");
    const Json *actual_grids = actual.find("grids");
    const Json *want = golden_grids ? golden_grids->find(grid_name)
                                    : nullptr;
    const Json *have = actual_grids ? actual_grids->find(grid_name)
                                    : nullptr;
    if (!want || !want->isArray()) {
        diff.ok = false;
        diff.divergences = 1;
        diff.report = strprintf(
            "golden document has no grid '%s'\n", grid_name.c_str());
        return diff;
    }
    if (!have || !have->isArray()) {
        diff.ok = false;
        diff.divergences = 1;
        diff.report = strprintf(
            "results document has no grid '%s'\n", grid_name.c_str());
        return diff;
    }

    // An absent metrics object compares as an empty one, so a metric on
    // either side alone is a divergence.
    const Json none = Json::object();
    for (const Json &golden_job : want->elements()) {
        const Json *jid = golden_job.find("id");
        const std::string id =
            jid && jid->isString() ? jid->asString() : "<missing id>";
        const Json *actual_job = findJob(*have, id);
        if (!actual_job) {
            firstDivergence(diff, grid_name, id,
                            "missing from the new results");
            continue;
        }

        const Json *want_status = golden_job.find("status");
        const Json *have_status = actual_job->find("status");
        const std::string ws = want_status && want_status->isString()
                                   ? want_status->asString()
                                   : "ok";
        const std::string hs = have_status && have_status->isString()
                                   ? have_status->asString()
                                   : "ok";
        if (ws != hs) {
            firstDivergence(
                diff, grid_name, id,
                strprintf("status: expected %s, got %s", ws.c_str(),
                          hs.c_str()));
            continue;
        }

        const Json *want_metrics = golden_job.find("metrics");
        const Json *have_metrics = actual_job->find("metrics");
        if (!want_metrics)
            want_metrics = &none;
        if (!have_metrics)
            have_metrics = &none;
        for (const auto &[metric, expected] : want_metrics->pairs()) {
            const Json *got = have_metrics->find(metric);
            if (!got || !got->isNumber()) {
                firstDivergence(diff, grid_name, id,
                                strprintf("metric %s: missing from the "
                                          "new results",
                                          metric.c_str()));
                continue;
            }
            const double tol = metricTolerance(metric);
            if (!withinTolerance(expected.asNumber(), got->asNumber(),
                                 tol)) {
                firstDivergence(
                    diff, grid_name, id,
                    strprintf("metric %s: expected %.17g, got %.17g "
                              "(rel tol %g)",
                              metric.c_str(), expected.asNumber(),
                              got->asNumber(), tol));
            }
        }
        // Strict in both directions: a metric the golden does not pin
        // is a schema change that needs a deliberate re-pin.
        for (const auto &[metric, value] : have_metrics->pairs()) {
            (void)value;
            if (!want_metrics->find(metric)) {
                firstDivergence(diff, grid_name, id,
                                strprintf("metric %s: in the new results "
                                          "but missing from the golden",
                                          metric.c_str()));
            }
        }
    }
    for (const Json &actual_job : have->elements()) {
        const Json *jid = actual_job.find("id");
        const std::string id =
            jid && jid->isString() ? jid->asString() : "<missing id>";
        if (!findJob(*want, id))
            firstDivergence(diff, grid_name, id,
                            "in the new results but missing from the "
                            "golden");
    }

    if (diff.divergences > 1) {
        diff.report += strprintf("  ... and %u further divergence(s)\n",
                                 diff.divergences - 1);
    }
    if (diff.ok) {
        diff.report = strprintf("grid '%s': %zu job(s) match golden\n",
                                grid_name.c_str(), want->size());
    }
    return diff;
}

GoldenDiff
checkAgainstGoldenDir(const Json &actual, const std::string &golden_dir,
                      const std::string &grid_name)
{
    const std::string path = golden_dir + "/" + grid_name + ".json";
    std::ifstream in(path);
    if (!in) {
        GoldenDiff diff;
        diff.ok = false;
        diff.divergences = 1;
        diff.report =
            strprintf("cannot open golden file %s\n", path.c_str());
        return diff;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string parse_error;
    const Json golden = Json::parse(text.str(), &parse_error);
    if (!parse_error.empty()) {
        GoldenDiff diff;
        diff.ok = false;
        diff.divergences = 1;
        diff.report = strprintf("golden file %s: %s\n", path.c_str(),
                                parse_error.c_str());
        return diff;
    }
    return compareToGolden(actual, golden, grid_name);
}

} // namespace mcsim::exp
