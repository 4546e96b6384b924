/**
 * @file
 * Deterministic fault plan: the per-machine oracle every injection site
 * consults (DESIGN.md section 11).
 *
 * Three choke points ask it for decisions:
 *  - the Omega networks, per injected message (drop / duplicate / extra
 *    delay);
 *  - the memory modules, per DRAM reservation (transient stall), per
 *    arriving request (blackout deferral) and per outgoing data reply
 *    (reply loss);
 *  - the caches, per retry attempt (bounded exponential backoff with
 *    seed-derived jitter).
 *
 * Every answer is a pure function of (seed, site, decision counter), so
 * a run's fault schedule depends only on its configuration and its own
 * deterministic event order -- never on wall clock or sweep threading.
 */

#ifndef MCSIM_FAULT_FAULT_HH
#define MCSIM_FAULT_FAULT_HH

#include <cstdint>
#include <string>

#include "fault/fault_config.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcsim::fault
{

/**
 * The seed-derived per-site decision chain every fault plan is built
 * on: each call advances a global nonce and folds (seed, site, nonce)
 * through splitmix64, so a plan's answers are a pure function of its
 * seed and its own query order -- never of wall clock or scheduling.
 * The FaultPlan below draws every decision from one.
 */
class DecisionChain
{
  public:
    explicit DecisionChain(std::uint64_t seed) : seed_(seed) {}

    /** Next raw hash for decision site @p site. */
    std::uint64_t
    hash(std::uint64_t site)
    {
        return splitmix64(
            seed_ ^ splitmix64(site + 0x9e3779b97f4a7c15ull * ++nonce));
    }

    /** Next uniform double in [0,1) for decision site @p site. */
    double
    draw(std::uint64_t site)
    {
        return static_cast<double>(hash(site) >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t seed_;
    std::uint64_t nonce = 0; ///< global decision counter
};

/** Injection counters, exported under "fault." by Machine stats. */
struct FaultStats
{
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t delays = 0;
    std::uint64_t replyLosses = 0;
    std::uint64_t moduleStalls = 0;
    std::uint64_t blackoutDeferrals = 0;

    std::uint64_t
    total() const
    {
        return drops + duplicates + delays + replyLosses + moduleStalls +
               blackoutDeferrals;
    }

    void
    addTo(StatSet &out, const std::string &prefix) const
    {
        out.add(prefix + "drops", static_cast<double>(drops));
        out.add(prefix + "duplicates", static_cast<double>(duplicates));
        out.add(prefix + "delays", static_cast<double>(delays));
        out.add(prefix + "reply_losses", static_cast<double>(replyLosses));
        out.add(prefix + "module_stalls",
                static_cast<double>(moduleStalls));
        out.add(prefix + "blackout_deferrals",
                static_cast<double>(blackoutDeferrals));
        out.add(prefix + "injected", static_cast<double>(total()));
    }
};

/** What to do with one network message about to be injected. */
struct FaultAction
{
    bool drop = false;
    bool duplicate = false;
    Tick extraDelay = 0;      ///< 0 = deliver on time
    Tick duplicateDelay = 0;  ///< extra delay of the duplicate copy
};

/**
 * The per-machine fault oracle. Owned by Machine; caches, modules and
 * the network filter lambdas hold a plain pointer (nullptr = perfect
 * hardware, legacy protocol paths).
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultConfig &config);

    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    const FaultConfig &config() const { return cfg; }
    const FaultStats &stats() const { return st; }

    /**
     * Switch-port decision for one message entering a network.
     *
     * @param request_net true for the request (proc->mem) direction
     * @param droppable the kind has a retry path (the Get, DataReply and
     *        Nack kinds); only such messages may be dropped or duplicated
     */
    FaultAction onNetMessage(bool request_net, bool droppable);

    /** Directory-side reply loss for one DataReply leaving @p module. */
    bool loseReply(ModuleId module);

    /** Extra DRAM busy cycles for one reservation at @p module (0 = no
     *  stall injected). */
    Tick stallCycles(ModuleId module);

    /**
     * Blackout check for a request arriving at @p module at @p now.
     * @return the tick the outage ends (defer the request there), or 0
     *         when the module is up.
     */
    Tick blackoutUntil(ModuleId module, Tick now);

    /**
     * Backoff before retry attempt @p attempt (1-based) by @p proc:
     * min(base << (attempt-1), max) + seed-derived jitter in
     * [0, jitter]. Deterministic but attempt-varied, so colliding
     * retries decohere.
     */
    Tick backoffCycles(ProcId proc, unsigned attempt);

  private:
    /** Next uniform double in [0,1) for decision site @p site. */
    double draw(std::uint64_t site) { return chain.draw(site); }
    /** Next raw hash for decision site @p site. */
    std::uint64_t hash(std::uint64_t site) { return chain.hash(site); }
    /** True when the budget allows one more injection. */
    bool budgetLeft() const;

    FaultConfig cfg;
    FaultStats st;
    DecisionChain chain; ///< seed-derived per-site decision source
};

} // namespace mcsim::fault

#endif // MCSIM_FAULT_FAULT_HH
