/**
 * @file
 * Per-cache statistics, including the read/write hit-rate breakdown the
 * paper reports in Tables 2, 7 and 8.
 */

#ifndef MCSIM_MEM_CACHE_STATS_HH
#define MCSIM_MEM_CACHE_STATS_HH

#include <cstdint>
#include <string>

#include "obs/histogram.hh"
#include "sim/stats.hh"

namespace mcsim::mem
{

/** Counters for one processor's cache. */
struct CacheStats
{
    std::uint64_t loads = 0;
    std::uint64_t loadHits = 0;
    std::uint64_t stores = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t syncAccesses = 0;
    std::uint64_t syncHits = 0;

    /** Misses to lines previously removed by a coherence invalidation. */
    std::uint64_t invalidationMisses = 0;
    /** Demand misses that found the line already being fetched. */
    std::uint64_t mergedAccesses = 0;
    /** Accesses rejected (MSHR full / conflict); retried by the CPU. */
    std::uint64_t blockedAccesses = 0;

    std::uint64_t writebacks = 0;
    std::uint64_t invalidationsReceived = 0;
    std::uint64_t recallsServed = 0;

    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0;  ///< later demand access merged/hit

    /** Fault recovery (src/fault/); all zero on perfect hardware, which
     *  Machine::run enforces for staleReplies. @{ */
    std::uint64_t retries = 0;        ///< timeout/NACK-driven re-sends
    std::uint64_t nacksReceived = 0;
    std::uint64_t staleReplies = 0;   ///< duplicate/superseded, dropped
    /** @} */

    /** Observed miss service times (request issue to consumer completion),
     *  capturing contention and coherence round trips on top of the
     *  18-cycle uncontended base. @{ */
    std::uint64_t missLatencySum = 0;
    std::uint64_t missLatencyCount = 0;
    std::uint64_t missLatencyMax = 0;
    /** @} */

    /** Log2-bucketed distribution of the same miss service times; the
     *  machine merges these per-cache histograms for the run-level
     *  p50/p90/p99 quantiles. */
    obs::LatencyHistogram missLatencyHist;

    /** Integral over time of the number of busy MSHRs (cycle-weighted):
     *  divide by run cycles for mean occupancy. The relaxed models' whole
     *  point is keeping more than one of these busy (paper section 3.2),
     *  so the sweep harness exports it per run. */
    std::uint64_t mshrBusyCycles = 0;

    double
    avgMissLatency() const
    {
        return missLatencyCount ? static_cast<double>(missLatencySum) /
                                      static_cast<double>(missLatencyCount)
                                : 0.0;
    }

    double
    readHitRate() const
    {
        return loads ? static_cast<double>(loadHits) /
                           static_cast<double>(loads)
                     : 1.0;
    }

    double
    writeHitRate() const
    {
        return stores ? static_cast<double>(storeHits) /
                            static_cast<double>(stores)
                      : 1.0;
    }

    double
    overallHitRate() const
    {
        const std::uint64_t refs = loads + stores;
        return refs ? static_cast<double>(loadHits + storeHits) /
                          static_cast<double>(refs)
                    : 1.0;
    }

    void
    addTo(StatSet &out, const std::string &prefix) const
    {
        out.add(prefix + "loads", static_cast<double>(loads));
        out.add(prefix + "load_hits", static_cast<double>(loadHits));
        out.add(prefix + "stores", static_cast<double>(stores));
        out.add(prefix + "store_hits", static_cast<double>(storeHits));
        out.add(prefix + "sync_accesses",
                static_cast<double>(syncAccesses));
        out.add(prefix + "sync_hits", static_cast<double>(syncHits));
        out.add(prefix + "invalidation_misses",
                static_cast<double>(invalidationMisses));
        out.add(prefix + "merged_accesses",
                static_cast<double>(mergedAccesses));
        out.add(prefix + "blocked_accesses",
                static_cast<double>(blockedAccesses));
        out.add(prefix + "writebacks", static_cast<double>(writebacks));
        out.add(prefix + "invalidations_received",
                static_cast<double>(invalidationsReceived));
        out.add(prefix + "recalls_served",
                static_cast<double>(recallsServed));
        out.add(prefix + "prefetches_issued",
                static_cast<double>(prefetchesIssued));
        out.add(prefix + "prefetches_useful",
                static_cast<double>(prefetchesUseful));
        out.add(prefix + "retries", static_cast<double>(retries));
        out.add(prefix + "nacks_received",
                static_cast<double>(nacksReceived));
        out.add(prefix + "stale_replies",
                static_cast<double>(staleReplies));
        out.add(prefix + "miss_latency_sum",
                static_cast<double>(missLatencySum));
        out.add(prefix + "miss_latency_count",
                static_cast<double>(missLatencyCount));
        if (missLatencyMax > 0) {
            out.set(prefix + "miss_latency_max",
                    static_cast<double>(missLatencyMax));
        }
        out.add(prefix + "mshr_busy_cycles",
                static_cast<double>(mshrBusyCycles));
    }
};

} // namespace mcsim::mem

#endif // MCSIM_MEM_CACHE_STATS_HH
