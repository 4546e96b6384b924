/**
 * @file
 * Facade over the three invariant auditors (coherence, ordering, races)
 * plus the protocol message lint. One Checker is owned by the Machine
 * when checking is enabled; caches, memory modules and processors hold a
 * nullable pointer to it and report events through the hooks below.
 *
 * Violations either throw FatalError immediately (CheckMode::Fatal, the
 * default -- tests catch the throw) or are counted in CheckStats and
 * surfaced through Machine::collectStats() / core::RunMetrics
 * (CheckMode::Count).
 */

#ifndef MCSIM_CHECK_CHECKER_HH
#define MCSIM_CHECK_CHECKER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/check_config.hh"
#include "check/coherence_auditor.hh"
#include "check/ordering_linter.hh"
#include "check/race_detector.hh"
#include "core/consistency.hh"
#include "mem/protocol.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcsim::check
{

/** Violation counters exported through the machine's StatSet. */
struct CheckStats
{
    std::uint64_t coherenceViolations = 0;
    std::uint64_t orderingViolations = 0;
    std::uint64_t raceViolations = 0;
    std::uint64_t protocolViolations = 0;

    std::uint64_t lineAudits = 0;
    std::uint64_t accessesChecked = 0;
    std::uint64_t orderingChecked = 0;
    std::uint64_t messagesChecked = 0;

    std::uint64_t
    totalViolations() const
    {
        return coherenceViolations + orderingViolations + raceViolations +
               protocolViolations;
    }

    void addTo(StatSet &out, const std::string &prefix) const;
};

/** The config-gated invariant-checking layer. */
class Checker
{
  public:
    /**
     * @param config reporting mode and auditor selection
     * @param model the consistency-model feature set under check
     * @param num_procs processor count
     * @param num_modules memory-module count
     * @param line_bytes cache line size (module interleaving)
     */
    Checker(const CheckConfig &config, const core::ModelParams &model,
            unsigned num_procs, unsigned num_modules, unsigned line_bytes);

    Checker(const Checker &) = delete;
    Checker &operator=(const Checker &) = delete;

    /** Wire the snapshot targets (owned by the Machine). */
    void attach(std::vector<const mem::Cache *> caches,
                std::vector<const mem::MemoryModule *> modules);

    /** Coherence hooks (mem layer). @{ */
    void onCacheLineEvent(ProcId p, Addr line_addr);
    void onDirectoryEvent(unsigned module, Addr line_addr);
    void onProtocolMessage(const mem::CoherenceMsg &msg, bool to_memory);
    /** @} */

    /** Race-detection hooks (cpu layer, functional access points). @{ */
    void onDataRead(ProcId p, Addr addr, unsigned width);
    void onDataWrite(ProcId p, Addr addr, unsigned width);
    void onAcquire(ProcId p, Addr sync_addr);
    void onRelease(ProcId p, Addr sync_addr);
    /** @} */

    /** Ordering hooks (cpu layer, issue/completion trace). @{ */
    void onIssueCheck(ProcId p, bool is_sync, bool is_release);
    void onRefIssued(ProcId p, std::uint64_t cookie);
    void onRefEarlyReleased(ProcId p, std::uint64_t cookie);
    void onRefCompleted(ProcId p, std::uint64_t cookie);
    void onReleaseDeferred(ProcId p);
    void onReleaseDone(ProcId p);
    void onFenceComplete(ProcId p);
    /** @} */

    /** Full-state sweep; call once the machine has quiesced. */
    void finalAudit();

    const CheckStats &stats() const { return checkStats; }
    const CheckConfig &config() const { return cfg; }

  private:
    /** Count a violation; throw under CheckMode::Fatal. */
    void report(std::uint64_t CheckStats::*counter, const char *kind,
                const std::string &what);

    CheckConfig cfg;
    std::unique_ptr<CoherenceAuditor> coherence;
    std::unique_ptr<OrderingLinter> ordering;
    std::unique_ptr<RaceDetector> races;
    unsigned numProcs;
    unsigned lineBytes;
    CheckStats checkStats;
    unsigned warningsEmitted = 0;
    /** Per-line highest grant sequence number seen on a mem->proc data
     *  reply; grants must never go backwards (equal is legal: the
     *  directory re-grants idempotently to the registered owner without
     *  bumping the sequence). */
    std::unordered_map<Addr, std::uint32_t> grantSeqHigh;
};

} // namespace mcsim::check

#endif // MCSIM_CHECK_CHECKER_HH
