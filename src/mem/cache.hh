/**
 * @file
 * Per-processor two-way set-associative, write-back, write-allocate,
 * lockup-free cache for shared data (paper section 3.1/3.2).
 *
 * The cache tracks timing state only (tags, MESI-less I/S/M states, MSHRs);
 * data values live in FunctionalMemory. Misses allocate an MSHR and a
 * pending way, emit a GetShared/GetExclusive request through the
 * outbound port, and complete when the matching DataReply returns. Per
 * the paper's protocol, a store that hits a Shared line invalidates the
 * local copy and refetches the line with write permission -- i.e. it
 * counts as a write miss, which is the cause of the "curiously low" write
 * hit ratios the paper analyses for Qsort.
 */

#ifndef MCSIM_MEM_CACHE_HH
#define MCSIM_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <unordered_map>
#include <vector>

#include "fault/fault.hh"
#include "mem/cache_stats.hh"
#include "obs/tracer.hh"
#include "mem/protocol.hh"
#include "sim/choice.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mcsim::check
{
class Checker;
} // namespace mcsim::check

namespace mcsim::mem
{

/** Classification of a shared-memory access as seen by the cache. */
enum class AccessType : std::uint8_t
{
    Load,       ///< ordinary data read
    LoadOwn,    ///< read with ownership (fetch exclusive; paper sec. 3.3)
    Store,      ///< ordinary data write
    SyncLoad,   ///< strongly-ordered read (spin test, flag read)
    SyncRmw,    ///< test-and-set
    SyncStore,  ///< lock release / flag write
};

/** True for access types that require write permission (M state). */
constexpr bool
needsExclusive(AccessType t)
{
    return t == AccessType::LoadOwn || t == AccessType::Store ||
           t == AccessType::SyncRmw || t == AccessType::SyncStore;
}

/** True for synchronization accesses (counted separately from data). */
constexpr bool
isSync(AccessType t)
{
    return t == AccessType::SyncLoad || t == AccessType::SyncRmw ||
           t == AccessType::SyncStore;
}

/** What the cache did with an access. */
enum class AccessOutcome : std::uint8_t
{
    Hit,      ///< satisfied locally; the CPU applies its own hit latency
    Miss,     ///< MSHR allocated, request sent; completion will fire
    Merged,   ///< attached to an in-flight MSHR; completion will fire
    Blocked,  ///< no resources / conflicting transaction; retry later
};

/** Static cache geometry and latencies. */
struct CacheParams
{
    std::uint32_t cacheBytes = 16 * 1024;
    std::uint32_t lineBytes = 16;
    std::uint32_t assoc = 2;
    std::uint32_t numMshrs = 5;
    /** Cycles from miss detection to the request entering the port. */
    std::uint32_t missHandleCycles = 2;
    /** Cycles from reply-head arrival to consumer completion. */
    std::uint32_t fillCycles = 3;
    /** Sequential hardware prefetch: a demand miss also fetches the next
     *  line (shared mode) when an MSHR and a way are free. An extension
     *  in the spirit of the paper's conclusion that relaxed consistency
     *  should be combined "with other memory latency reducing techniques
     *  such as more sophisticated prefetching". */
    bool nextLinePrefetch = false;

    /** Validate; fatal() on inconsistent geometry. */
    void validate() const;

    std::uint32_t numSets() const { return cacheBytes / (lineBytes * assoc); }
    std::uint32_t lineWords() const { return std::max(lineBytes / 8u, 1u); }
};

/**
 * One processor's shared-data cache with its miss-handling machinery.
 */
class Cache
{
  public:
    /** Observable line states (Pending = fill in flight). */
    enum class LineState : std::uint8_t { Invalid, Shared, Modified, Pending };

    /** Invoked at completion time of each miss/merge, with its cookie. */
    using CompletionFn = std::function<void(std::uint64_t cookie)>;
    /** Invoked whenever a Blocked condition may have cleared. */
    using RetryFn = std::function<void()>;

    /**
     * @param eq shared event queue
     * @param proc owning processor id (network source port)
     * @param params geometry and latencies
     * @param port request-network outbound port
     * @param num_modules memory module count (address interleaving)
     */
    Cache(EventQueue &eq, ProcId proc, const CacheParams &params,
          Port &port, unsigned num_modules);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Attempt a shared-memory access at the current tick.
     *
     * Hit: the caller applies its hit latency. Miss/Merged: the completion
     * handler will later be invoked with @p cookie. Blocked: the caller
     * must retry when the retry handler fires.
     */
    AccessOutcome access(Addr addr, AccessType type, std::uint64_t cookie);

    /**
     * SC2 non-binding prefetch of the line containing @p addr; best
     * effort. @return true when a prefetch transaction was launched.
     */
    bool prefetch(Addr addr, bool exclusive);

    /** Response-network delivery entry point (wired by the Machine). */
    void handleResponse(NetMsg &&msg);

    void setCompletionHandler(CompletionFn fn) { completionFn = std::move(fn); }
    void setRetryHandler(RetryFn fn) { retryFn = std::move(fn); }

    /** Wire the invariant checker (Machine; nullptr = no checking). */
    void setChecker(check::Checker *c) { checker = c; }

    /** Wire the event tracer (Machine; nullptr = no tracing). */
    void setTracer(obs::Tracer *t) { tracer = t; }

    /**
     * Wire the fault plan (Machine; nullptr = perfect hardware). The
     * protocol is the same either way; a wired plan only arms recovery
     * timing: MSHR timeout retry with bounded exponential backoff, and
     * the backoff a directory NACK asks for.
     */
    void setFaultPlan(fault::FaultPlan *p) { plan = p; }

    /** Wire the model checker's choice scheduler (Machine; nullptr =
     *  seeded-jitter backoff). With a scheduler installed, the stretch
     *  of each timeout-retry backoff becomes an explicit
     *  choice point (ChoiceKind::RetryDelay). */
    void setChoiceScheduler(ChoiceScheduler *s) { chooser = s; }

    /**
     * Fault injection (tests only): silently drop the next Invalidate that
     * targets a resident line -- the InvAck is still sent, but the stale
     * Shared copy survives, which the coherence auditor must catch when
     * another processor gains ownership.
     */
    void injectIgnoreNextInvalidateForTest() { ignoreNextInvalidate = true; }

    /** Free MSHR count (CPU issue gating). */
    unsigned freeMshrs() const;

    /** Statistics. */
    const CacheStats &stats() const { return cacheStats; }

    /** State of the line containing @p addr (tests/diagnostics). */
    LineState lineState(Addr addr) const;

    /** Number of lines currently valid (S or M); tests. */
    unsigned validLineCount() const;

    /** Snapshot of all valid lines (tests/invariant checks). */
    std::vector<std::pair<Addr, LineState>> validLines() const;

    /** One in-flight miss, for the watchdog's diagnostic snapshot. */
    struct MshrView
    {
        Addr lineAddr = invalidAddr;
        bool exclusive = false;
        bool replyReceived = false;
        Tick issueTick = 0;
        unsigned attempts = 0;
    };
    /** Snapshot of all busy MSHRs (diagnostics). */
    std::vector<MshrView> pendingMshrs() const;

    const CacheParams &params() const { return cfg; }

  private:
    struct Line
    {
        Addr lineAddr = invalidAddr;
        LineState state = LineState::Invalid;
        Tick lru = 0;
        /** Directory grant seq this copy was installed under (stamps
         *  Writeback/FlushData surrenders). */
        std::uint32_t seq = 0;
    };

    struct Mshr
    {
        bool valid = false;
        Addr lineAddr = invalidAddr;
        bool exclusive = false;
        bool prefetch = false;
        std::uint32_t set = 0;
        std::uint32_t way = 0;
        std::vector<std::uint64_t> cookies;
        Tick issueTick = 0;
        bool replyReceived = false;
        bool completed = false;
        Tick completionTick = 0;
        Tick freeTick = 0;
        /** Coherence request deferred until the fill settles. */
        bool deferredInvalidate = false;
        bool deferredRecallExclusive = false;
        bool deferredRecallShared = false;
        /** Stamp of the deferred recall (echoed in the RecallStale a
         *  clean surrender answers with). */
        std::uint32_t deferredRecallSeq = 0;
        std::uint32_t replySeq = 0;     ///< seq of the accepted reply
        std::uint32_t minAcceptSeq = 0; ///< replies below this are stale
        /** Fault recovery (fault plan wired). @{ */
        unsigned attempts = 0;          ///< re-sends so far
        std::uint64_t retryGen = 0;     ///< cancels superseded timers
        /** @} */
    };

    Addr lineOf(Addr addr) const { return alignDown(addr, cfg.lineBytes); }
    std::uint32_t setOf(Addr line_addr) const;
    ModuleId moduleOf(Addr line_addr) const;

    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr();

    /** Pick an evictable way in @p set; nullptr when all ways pending. */
    Line *pickVictim(std::uint32_t set);

    /** Start a miss transaction; assumes resources were checked. */
    void launchMiss(Line &way_line, std::uint32_t set, Addr line_addr,
                    bool exclusive, bool is_prefetch, std::uint64_t cookie,
                    bool bypass_eligible, bool count_inval = true);

    /** Evict @p line (writeback if Modified). */
    void evict(Line &line);

    void sendRequest(MsgKind kind, Addr line_addr, bool bypass_eligible,
                     Tick delay, std::uint32_t seq = 0);

    /** Fault recovery: timeout-driven re-issue. @{ */
    void armRetry(Mshr &mshr, Tick delay);
    void retryFire(Addr line_addr, std::uint64_t gen);
    Tick retryDelay(Addr line_addr, unsigned attempt);
    /** @} */

    /** Fill settle: install line, free MSHR, run deferred coherence. */
    void settleFill(Addr line_addr);

    void applyInvalidate(Addr line_addr);
    void applyRecall(Addr line_addr, bool exclusive_recall);
    /** Answer a recall of a non-Modified copy: invalidate it and send
     *  RecallStale stamped with @p recall_seq. */
    void surrenderClean(Line &line, std::uint32_t recall_seq);

    /** Record that grants below @p seq for @p line_addr are dead to
     *  this cache. @{ */
    void bumpGrantFloor(Addr line_addr, std::uint32_t seq);
    std::uint32_t grantFloorOf(Addr line_addr) const;
    /** @} */
    /** Flag @p line_addr as removed by coherence: its next demand miss
     *  counts as an invalidation miss. */
    void markInvalidated(Addr line_addr);

    void fireCompletion(std::uint64_t cookie, Tick when);
    void notifyRetry();

    EventQueue &queue;
    ProcId procId;
    CacheParams cfg;
    Port &out;
    unsigned numModules;

    std::vector<Line> lines;  ///< sets * assoc, way-major within set
    std::vector<Mshr> mshrs;
    /** Per-line minimum acceptable grant seq. An MSHR's minAcceptSeq dies
     *  with the MSHR, but a stale grant (from a retry or a network
     *  duplicate) can outlive it and arrive at a LATER miss on the same
     *  line; without this floor that miss would install a copy the
     *  directory already revoked. Bumped by every Invalidate/Recall stamp
     *  and by evictions/upgrades surrendering a grant; seeds minAcceptSeq
     *  in launchMiss and stamps every Get*. Every line a cache has touched
     *  gets one, so floors are kept in pages of consecutive lines: the
     *  dense ranges workloads touch cost ~4 bytes a line instead of a hash
     *  node each. The page also carries each line's invalidation-miss
     *  flag; coherence bumps a line's floor before removing it, so the
     *  flag never needs a page of its own. */
    static constexpr unsigned floorPageLines = 16;
    struct FloorPage
    {
        std::array<std::uint32_t, floorPageLines> floor{};
        /** Bit i: line i was removed by coherence since its last miss. */
        std::uint16_t invalidated = 0;
    };
    std::unordered_map<Addr, FloorPage> grantFloor;

    /** Close the current MSHR-occupancy interval and apply @p delta busy
     *  MSHRs from now on. */
    void accountMshrs(int delta);

    CompletionFn completionFn;
    RetryFn retryFn;
    CacheStats cacheStats;
    /** MSHR-occupancy accounting (mshrBusyCycles integral). @{ */
    Tick mshrStamp = 0;
    unsigned mshrBusy = 0;
    /** @} */

    check::Checker *checker = nullptr;
    obs::Tracer *tracer = nullptr;
    fault::FaultPlan *plan = nullptr;  ///< nullptr = no fault recovery
    ChoiceScheduler *chooser = nullptr;  ///< nullptr = seeded backoff
    std::uint64_t retrySeq = 0;        ///< retry-timer generation counter
    bool ignoreNextInvalidate = false;  ///< fault injection, tests only
};

} // namespace mcsim::mem

#endif // MCSIM_MEM_CACHE_HH
