/**
 * @file
 * Parallel sweep engine: fans a Grid of SweepPoints across std::thread
 * workers, one fully isolated Machine per job.
 *
 * Isolation and determinism contract:
 *  - every job builds its own Machine, FunctionalMemory, and workload
 *    from its SweepPoint alone -- no state is shared between jobs, so
 *    results are independent of worker count and scheduling;
 *  - seeds are a pure function of the point (SweepPoint::seed, assigned
 *    by the grid builder, possibly via derivedSeed()) -- never wall
 *    clock;
 *  - a job that throws (FatalError: deadlock, maxCycles timeout budget,
 *    failed verify, rejected axiomatic trace) marks itself failed with
 *    the message and the sweep continues;
 *  - results are reported in grid order, so serializing them yields a
 *    byte-identical document no matter how many threads ran the sweep.
 *
 * Progress (completed count, elapsed, ETA) goes to stderr only; nothing
 * wall-clock-derived enters the results.
 */

#ifndef MCSIM_EXP_SWEEP_HH
#define MCSIM_EXP_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "exp/grid.hh"
#include "exp/json.hh"

namespace mcsim::exp
{

/** Outcome of one sweep job. */
struct JobResult
{
    SweepPoint point;
    bool ok = false;
    /** Failure description (fatal message, verify failure, axiom cycle
     *  witness); empty when ok. */
    std::string error;
    core::RunMetrics metrics;

    /** Axiomatic post-run check (only when point.recordTrace). @{ */
    bool traceChecked = false;
    bool traceAccepted = false;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceEdges = 0;
    /** @} */
};

/** Sweep engine options. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    /** Print per-job progress and ETA to stderr. */
    bool progress = true;
};

/**
 * Per-job completion sink: called once per finished job with the job's
 * grid index. Calls are serialized (one at a time, under a lock), so a
 * sink may append to a checkpoint journal without its own
 * synchronization; completion ORDER is scheduling-dependent, so a sink
 * must never bake it into canonical output (exp::runJournaled orders by
 * index). A sink that throws stops the sweep: jobs in flight complete,
 * no new ones start, and runIndices rethrows the first exception.
 */
using JobSink = std::function<void(std::size_t, const JobResult &)>;

/**
 * The one worker pool every sweep runs on (SweepRunner, runChaos): runs
 * @p job(i) for each i in [0, @p total) on min(@p threads, @p total)
 * std::threads (0 threads = hardware concurrency). After each job,
 * @p finished(i, done) runs serialized under one lock, in
 * scheduling-dependent order. If it throws, jobs in flight complete, no
 * new ones start, and runPool rethrows the first exception.
 */
void runPool(std::size_t total, unsigned threads,
             const std::function<void(std::size_t)> &job,
             const std::function<void(std::size_t, std::size_t)> &finished);

/** Thread-pool sweep runner. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {}) : opts(options) {}

    /** Run every point of @p grid; results in grid order. */
    std::vector<JobResult> run(const Grid &grid) const;

    /**
     * Run only the points of @p grid named by @p indices (the resume
     * entry point: the points a journal does not yet hold). Results
     * come back in @p indices order; failure annotations name the
     * grid index out of the full grid size, so a resumed run's error
     * strings are byte-identical to a whole-grid run's.
     */
    std::vector<JobResult>
    runIndices(const Grid &grid, const std::vector<std::size_t> &indices,
               const JobSink &on_complete = {}) const;

    /** Run one point in isolation through workloads::runWorkload (what
     *  each worker executes); the machine is gone when it returns. */
    static JobResult runPoint(const SweepPoint &point);

  private:
    SweepOptions opts;
};

/** Results of one or more grids keyed for lookup by point id. */
class SweepOutcomes
{
  public:
    void add(const Grid &grid, std::vector<JobResult> results);

    /** Grids in insertion order. @{ */
    const std::vector<std::string> &gridsRun() const { return order; }
    const std::vector<JobResult> &gridResults(const std::string &g) const;
    /** @} */

    /** Lookup by point identity; fatal() when missing or failed. */
    const core::RunMetrics &metrics(const SweepPoint &point) const;

    /** Total and failed job counts across all grids. @{ */
    std::size_t totalJobs() const;
    std::size_t failedJobs() const;
    /** @} */

    /** The canonical results document ("mcsim-sweep-v1"). */
    Json toJson() const;

    /** Flat CSV (one row per job, fixed column set). */
    std::string toCsv() const;

  private:
    std::vector<std::string> order;
    std::vector<std::vector<JobResult>> perGrid;
};

/**
 * Convenience: run @p grid and wrap the results for lookup. The figure
 * benches use this to replace their serial config loops.
 */
SweepOutcomes runGrid(const Grid &grid, SweepOptions options = {});

/**
 * Canonical serialization of one job, exactly the element the
 * "mcsim-sweep-v1" document's grid arrays hold. Public so the
 * checkpoint journal (exp/journal.hh) can store byte-identical
 * payloads and assemble documents from them. @{
 */
Json jobToJson(const JobResult &job);

/** The fixed CSV header row (trailing newline included). */
std::string csvHeader();

/**
 * One CSV row (trailing newline included) rebuilt from a job's canonical
 * JSON, so rows serialized from live results and rows merged from
 * journaled payloads are byte-identical by construction. fatal() if
 * @p job lacks a point field or a reference metric.
 */
std::string csvRowFromJson(const std::string &grid_name, const Json &job);
/** @} */

} // namespace mcsim::exp

#endif // MCSIM_EXP_SWEEP_HH
