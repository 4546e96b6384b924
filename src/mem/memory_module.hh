/**
 * @file
 * Global memory module with a full-map directory (Censier & Feautrier).
 *
 * Each module owns an interleaved slice of the shared address space and
 * keeps, per line, a presence bit vector and an exclusive-owner record.
 * The directory is blocking per line: while a transaction (recall or
 * invalidation collection) is in flight for a line, later requests for
 * that line queue at the module in arrival order.
 *
 * Timing (paper section 3.1): a memory access takes 7 cycles to initiate,
 * after which the first word goes onto the response network; the module
 * stays busy one further cycle per 8-byte word of the line. Latency of the
 * first word is thus independent of line size while module occupancy --
 * which produces Psim's hot-spot behaviour -- is proportional to it.
 */

#ifndef MCSIM_MEM_MEMORY_MODULE_HH
#define MCSIM_MEM_MEMORY_MODULE_HH

#include <cstdint>
#include <utility>
#include <vector>
#include <string>
#include <unordered_map>

#include "fault/fault.hh"
#include "sim/choice.hh"
#include "mem/protocol.hh"
#include "obs/histogram.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcsim::check
{
class Checker;
} // namespace mcsim::check

namespace mcsim::mem
{

/** Static memory-module parameters. */
struct MemoryParams
{
    std::uint32_t lineBytes = 16;
    /** Cycles to initiate an access before the first word is available. */
    std::uint32_t initCycles = 7;
    /** Number of processors (presence-vector width, <= 64). */
    std::uint32_t numProcs = 16;

    void validate() const;

    std::uint32_t lineWords() const { return std::max(lineBytes / 8u, 1u); }
};

/** Per-module statistics. */
struct ModuleStats
{
    std::uint64_t requests = 0;        ///< GetShared + GetExclusive served
    std::uint64_t writebacks = 0;
    std::uint64_t recallsSent = 0;
    std::uint64_t invalidatesSent = 0;
    std::uint64_t queuedRequests = 0;  ///< arrived while line blocked
    std::uint64_t busyCycles = 0;      ///< DRAM occupancy

    /** Fault recovery (src/fault/); all zero on perfect hardware, which
     *  Machine::run enforces for staleMessages. @{ */
    std::uint64_t nacksSent = 0;       ///< Get* refused, deep waiter queue
    std::uint64_t staleMessages = 0;   ///< superseded/duplicate, discarded
    /** @} */

    /** Distribution of module queueing delays: the DRAM-busy wait of each
     *  reservation (zero waits included) plus, per directory-blocked
     *  request, each blocked segment spent in a line's waiter queue. */
    obs::LatencyHistogram queueHist;

    void
    addTo(StatSet &out, const std::string &prefix) const
    {
        out.add(prefix + "requests", static_cast<double>(requests));
        out.add(prefix + "writebacks", static_cast<double>(writebacks));
        out.add(prefix + "recalls_sent", static_cast<double>(recallsSent));
        out.add(prefix + "invalidates_sent",
                static_cast<double>(invalidatesSent));
        out.add(prefix + "queued_requests",
                static_cast<double>(queuedRequests));
        out.add(prefix + "busy_cycles", static_cast<double>(busyCycles));
        out.add(prefix + "nacks_sent", static_cast<double>(nacksSent));
        out.add(prefix + "stale_messages",
                static_cast<double>(staleMessages));
    }
};

/** One memory module plus its slice of the directory. */
class MemoryModule
{
  public:
    /**
     * @param eq shared event queue
     * @param id this module's response-network source port
     * @param params timing parameters
     * @param port response-network outbound port
     */
    MemoryModule(EventQueue &eq, ModuleId id, const MemoryParams &params,
                 Port &port);

    MemoryModule(const MemoryModule &) = delete;
    MemoryModule &operator=(const MemoryModule &) = delete;

    /** Request-network delivery entry point (wired by the Machine). */
    void handleRequest(NetMsg &&msg);

    /** Statistics. */
    const ModuleStats &stats() const { return modStats; }

    /** Directory state of a line (tests/diagnostics). */
    enum class DirState : std::uint8_t { Uncached, Shared, Exclusive };
    DirState dirState(Addr line_addr) const;
    std::uint64_t presenceMask(Addr line_addr) const;

    /** Open transactions (should be zero at quiesce; tests). */
    std::size_t openTransactions() const { return txns.size(); }

    /** Snapshot of all known directory lines (tests/invariant checks). */
    std::vector<std::pair<Addr, DirState>> knownLines() const;
    /** Registered exclusive owner of @p line_addr (valid when Exclusive). */
    ProcId ownerOf(Addr line_addr) const;

    /** Wire the invariant checker (Machine; nullptr = no checking). */
    void setChecker(check::Checker *c) { checker = c; }

    /** Wire the event tracer (Machine; nullptr = no tracing). */
    void setTracer(obs::Tracer *t) { tracer = t; }

    /**
     * Wire the fault plan (Machine; nullptr = perfect hardware). The
     * protocol is the same either way; a wired plan only arms this
     * module's injection sites (blackout deferral, transient DRAM stalls,
     * lost replies) and its recovery timing (NACKs once a line's waiter
     * queue runs deep).
     */
    void setFaultPlan(fault::FaultPlan *p) { plan = p; }

    /** Wire the model checker's choice scheduler (Machine; nullptr =
     *  deterministic arrival-order waiter service). With a scheduler
     *  installed, the scheduler picks which parked waiter a reopened
     *  line services first (ChoiceKind::DirService). */
    void setChoiceScheduler(ChoiceScheduler *s) { chooser = s; }

    /**
     * Fault injection (tests only): overwrite a directory entry so it no
     * longer reflects the caches, which the coherence auditor must catch.
     */
    void corruptDirEntryForTest(Addr line_addr, DirState state, ProcId owner,
                                std::uint64_t presence);

  private:
    struct DirEntry
    {
        DirState state = DirState::Uncached;
        std::uint64_t presence = 0;  ///< sharer bit per processor
        ProcId owner = 0;            ///< valid when Exclusive
        /** Grant sequence number: bumped before every grant for the line;
         *  stamps replies, revocations (seq+1 at send time) and expected
         *  surrenders (see CoherenceMsg::seq). */
        std::uint32_t seq = 0;
    };

    /** A request parked behind a blocked line, with its arrival tick. */
    struct Waiter
    {
        NetMsg msg;
        Tick arrival = 0;
    };

    struct Txn
    {
        MsgKind reqKind{MsgKind::GetShared};
        ProcId requester = 0;
        ProcId owner = 0;            ///< recall target, when waitingData
        bool waitingData = false;    ///< FlushData/Writeback expected
        bool keepOwnerShared = false;///< GetShared recall downgrades owner
        unsigned acksLeft = 0;
        bool memReadDone = false;
        Tick dataReadyTick = 0;
        std::vector<Waiter> waiters;  ///< blocked requests for this line
    };

    /** Reserve the DRAM for a read; returns the first-word tick. */
    Tick reserveRead();
    /** Reserve the DRAM for a (writeback) write. */
    void reserveWrite();

    /** handleRequest proper, after any fault-injection deferral. */
    void dispatchRequest(NetMsg &&msg);
    void startTransaction(NetMsg &&msg);
    void handleDataArrival(Addr line_addr, bool via_flush);
    void handleInvAck(Addr line_addr);
    void finish(Addr line_addr, Tick reply_tick, bool owner_shares);
    void sendToProc(MsgKind kind, Addr line_addr, ProcId proc, Tick when,
                    std::uint32_t seq = 0);

    EventQueue &queue;
    ModuleId moduleId;
    MemoryParams cfg;
    Port &out;

    std::unordered_map<Addr, DirEntry> dir;
    std::unordered_map<Addr, Txn> txns;
    Tick busyUntil = 0;
    ModuleStats modStats;
    check::Checker *checker = nullptr;
    obs::Tracer *tracer = nullptr;
    fault::FaultPlan *plan = nullptr;  ///< nullptr = no fault injection
    ChoiceScheduler *chooser = nullptr;  ///< nullptr = arrival order
};

} // namespace mcsim::mem

#endif // MCSIM_MEM_MEMORY_MODULE_HH
