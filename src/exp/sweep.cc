#include "exp/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace mcsim::exp
{

void
runPool(std::size_t total, unsigned threads,
        const std::function<void(std::size_t)> &job,
        const std::function<void(std::size_t, std::size_t)> &finished)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex finishedMutex;
    std::size_t completed = 0;  // guarded by finishedMutex
    // finished() may throw (a journal append hitting a full or failing
    // disk): capture the first exception, stop the pool, and rethrow
    // from the calling thread -- an exception crossing a thread
    // boundary uncaught would terminate the whole process.
    std::exception_ptr finishedError;

    auto worker = [&]() {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1);
            if (i >= total)
                return;
            job(i);
            std::lock_guard<std::mutex> lock(finishedMutex);
            try {
                finished(i, ++completed);
            } catch (...) {
                if (!finishedError)
                    finishedError = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(threads, total));
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (finishedError)
        std::rethrow_exception(finishedError);
}

JobResult
SweepRunner::runPoint(const SweepPoint &point)
{
    JobResult result;
    result.point = point;
    try {
        const auto workload = point.makeWorkload();
        const workloads::RunResult run =
            workloads::runWorkload(*workload, point.machineConfig());
        result.metrics = run.metrics;
        if (run.axiom) {
            result.traceChecked = true;
            result.traceAccepted = run.axiom->ok;
            result.traceEvents = run.machine->traceRecorder()->size();
            result.traceEdges = run.axiom->edgeCount;
            if (!run.axiom->ok)
                result.error =
                    "axiomatic trace rejected: " + run.axiom->message;
        }
        result.ok = result.error.empty();
    } catch (const std::exception &err) {
        result.error = err.what();
    }
    return result;
}

std::vector<JobResult>
SweepRunner::run(const Grid &grid) const
{
    std::vector<std::size_t> all(grid.points.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    return runIndices(grid, all);
}

std::vector<JobResult>
SweepRunner::runIndices(const Grid &grid,
                        const std::vector<std::size_t> &indices,
                        const JobSink &on_complete) const
{
    const std::size_t gridTotal = grid.points.size();
    const std::size_t total = indices.size();
    std::vector<JobResult> results(total);
    for (std::size_t index : indices) {
        if (index >= gridTotal) {
            fatal("sweep: index %zu out of range for grid '%s' (%zu "
                  "points)", index, grid.name.c_str(), gridTotal);
        }
    }

    // Wall-clock is display-only: it feeds the stderr progress line and
    // never any result. Canonical output stays a pure function of the
    // grid (test_determinism pins this).
    // mcsim-lint: no-entropy(stderr progress/ETA display only)
    const auto t0 = std::chrono::steady_clock::now();

    auto job = [&](std::size_t i) {
        const std::size_t index = indices[i];
        results[i] = runPoint(grid.points[index]);
        if (!results[i].ok) {
            // Locate the failure for whoever reads the results document:
            // a timeout/watchdog message alone does not say which job
            // died (the machine knows nothing of the grid). The
            // annotation uses the grid index and total, so a resumed run
            // reports identically to a whole-grid run.
            results[i].error = strprintf(
                "grid '%s' point %zu of %zu (%s, seed %llu): %s",
                grid.name.c_str(), index, gridTotal,
                grid.points[index].id().c_str(),
                static_cast<unsigned long long>(grid.points[index].seed),
                results[i].error.c_str());
        }
    };
    auto finished = [&](std::size_t i, std::size_t done) {
        const std::size_t index = indices[i];
        if (on_complete)
            on_complete(index, results[i]);
        if (!opts.progress)
            return;
        const double elapsed =
            std::chrono::duration<double>(
                // mcsim-lint: no-entropy(stderr progress display only)
                std::chrono::steady_clock::now() - t0)
                .count();
        const double eta = elapsed / static_cast<double>(done) *
                           static_cast<double>(total - done);
        std::fprintf(stderr,
                     "[%zu/%zu] %-44s %-6s %6.1fs elapsed, ETA %.1fs\n",
                     done, total, grid.points[index].id().c_str(),
                     results[i].ok ? "ok" : "FAILED", elapsed, eta);
    };
    runPool(total, opts.threads, job, finished);
    return results;
}

void
SweepOutcomes::add(const Grid &grid, std::vector<JobResult> results)
{
    order.push_back(grid.name);
    perGrid.push_back(std::move(results));
}

const std::vector<JobResult> &
SweepOutcomes::gridResults(const std::string &g) const
{
    for (std::size_t i = 0; i < order.size(); ++i)
        if (order[i] == g)
            return perGrid[i];
    fatal("no results recorded for grid '%s'", g.c_str());
}

const core::RunMetrics &
SweepOutcomes::metrics(const SweepPoint &point) const
{
    const std::string key = point.id();
    for (const auto &results : perGrid) {
        for (const JobResult &job : results) {
            if (job.point.id() != key)
                continue;
            if (!job.ok) {
                fatal("sweep job %s failed: %s", key.c_str(),
                      job.error.c_str());
            }
            return job.metrics;
        }
    }
    fatal("no sweep result for point %s", key.c_str());
}

std::size_t
SweepOutcomes::totalJobs() const
{
    std::size_t n = 0;
    for (const auto &results : perGrid)
        n += results.size();
    return n;
}

std::size_t
SweepOutcomes::failedJobs() const
{
    std::size_t n = 0;
    for (const auto &results : perGrid)
        for (const JobResult &job : results)
            n += job.ok ? 0 : 1;
    return n;
}

Json
jobToJson(const JobResult &job)
{
    const SweepPoint &p = job.point;
    Json out = Json::object();
    out["id"] = Json(p.id());
    out["benchmark"] = Json(p.benchmark);
    out["model"] = Json(core::modelName(p.model));
    out["scale"] = Json(scaleName(p.scale));
    out["procs"] = Json(p.numProcs);
    out["cacheBytes"] = Json(p.cacheBytes);
    out["lineBytes"] = Json(p.lineBytes);
    out["delay"] = Json(p.delay);
    out["schedule"] = Json(workloads::relaxScheduleName(p.schedule));
    // As a string: 64-bit seeds are not exactly representable in a JSON
    // number (IEEE double mantissa is 53 bits).
    out["seed"] = Json(
        strprintf("%llu", static_cast<unsigned long long>(p.seed)));
    out["status"] = Json(job.ok ? "ok" : "failed");
    if (!job.ok)
        out["error"] = Json(job.error);
    Json metrics = Json::object();
    for (const auto &[name, value] : job.metrics.toStatSet())
        metrics[name] = Json(value);
    if (job.traceChecked) {
        metrics["axiomAccepted"] = Json(job.traceAccepted ? 1.0 : 0.0);
        metrics["axiomEvents"] = Json(job.traceEvents);
        metrics["axiomEdges"] = Json(job.traceEdges);
    }
    out["metrics"] = std::move(metrics);
    return out;
}

Json
SweepOutcomes::toJson() const
{
    Json doc = Json::object();
    doc["schema"] = Json("mcsim-sweep-v1");
    Json grids = Json::object();
    for (std::size_t i = 0; i < order.size(); ++i) {
        Json jobs = Json::array();
        for (const JobResult &job : perGrid[i])
            jobs.push(jobToJson(job));
        grids[order[i]] = std::move(jobs);
    }
    doc["grids"] = std::move(grids);
    return doc;
}

std::string
csvHeader()
{
    // Fixed column set: point identity, status, then the RunMetrics
    // export in its canonical (alphabetical) order, taken from a default
    // instance so failed jobs produce the same columns.
    const StatSet reference = core::RunMetrics().toStatSet();
    std::string out =
        "grid,id,benchmark,model,scale,procs,cacheBytes,lineBytes,delay,"
        "schedule,seed,status";
    for (const auto &[name, value] : reference) {
        (void)value;
        out += ',';
        out += name;
    }
    out += "\n";
    return out;
}

std::string
csvRowFromJson(const std::string &grid_name, const Json &job)
{
    auto field = [&](const char *name) -> const Json & {
        const Json *value = job.find(name);
        if (value == nullptr)
            fatal("csv: job record lacks field '%s'", name);
        return *value;
    };
    auto text = [&](const char *name) {
        const Json &value = field(name);
        // Numbers reuse the canonical writer, so a row rebuilt from a
        // journaled payload matches one serialized from live results.
        return value.isString() ? value.asString() : value.dump();
    };
    std::string out;
    out += grid_name;
    for (const char *name :
         {"id", "benchmark", "model", "scale", "procs", "cacheBytes",
          "lineBytes", "delay", "schedule", "seed", "status"}) {
        out += ',';
        out += text(name);
    }
    const Json &metrics = field("metrics");
    const StatSet reference = core::RunMetrics().toStatSet();
    for (const auto &[name, value] : reference) {
        (void)value;
        const Json *metric = metrics.find(name);
        if (metric == nullptr)
            fatal("csv: job '%s' lacks metric '%s'",
                  text("id").c_str(), name.c_str());
        out += ',';
        out += metric->dump();
    }
    out += "\n";
    return out;
}

std::string
SweepOutcomes::toCsv() const
{
    std::string out = csvHeader();
    for (std::size_t i = 0; i < order.size(); ++i)
        for (const JobResult &job : perGrid[i])
            out += csvRowFromJson(order[i], jobToJson(job));
    return out;
}

SweepOutcomes
runGrid(const Grid &grid, SweepOptions options)
{
    SweepOutcomes outcomes;
    outcomes.add(grid, SweepRunner(options).run(grid));
    return outcomes;
}

} // namespace mcsim::exp
