/**
 * @file
 * Pluggable scheduler hook for the simulator's nondeterministic choice
 * points (DESIGN.md section 12).
 *
 * A timed run of the machine is fully deterministic: the event queue
 * breaks ties by (tick, priority, insertion sequence), so every message
 * race is resolved the same way on every run. The model checker
 * (src/mc/) needs the opposite: it must *control* every such race so it
 * can drive the real protocol through all reachable orderings. This
 * header defines the seam between the two worlds.
 *
 * When a ChoiceScheduler is installed (core::MachineConfig::
 * choiceScheduler), three component layers expose their races as
 * explicit choice points instead of resolving them by timing:
 *
 *  - net::OmegaNetwork switches to logical delivery: injected messages
 *    park in per-(src, dst) FIFO pools, and the scheduler picks which
 *    pool head is delivered next (ChoiceKind::NetDeliver). Per-pair
 *    FIFO order is preserved -- that is the ordering guarantee the real
 *    switch fabric provides and the directory protocol assumes -- while
 *    every cross-pair interleaving becomes reachable.
 *  - mem::MemoryModule asks which parked waiter is serviced when a
 *    blocked line reopens (ChoiceKind::DirService).
 *  - mem::Cache asks how far to stretch a retry backoff under a fault
 *    plan (ChoiceKind::RetryDelay).
 *
 * When no scheduler is installed (the default, a null pointer), every
 * site takes its legacy deterministic path untouched; golden baselines
 * see zero drift.
 */

#ifndef MCSIM_SIM_CHOICE_HH
#define MCSIM_SIM_CHOICE_HH

#include <cstdint>

#include "sim/types.hh"

namespace mcsim
{

/** Which kind of nondeterministic site is asking. */
enum class ChoiceKind : std::uint8_t
{
    NetDeliver,  ///< which pending network message is delivered next
    DirService,  ///< which parked waiter a reopened line services first
    RetryDelay,  ///< backoff stretch of a fault-plan timeout retry
};

/** Display name ("net", "dir", "retry"). */
const char *choiceKindName(ChoiceKind kind);

/**
 * One selectable alternative at a choice point.
 *
 * `object` identifies the protocol object the move touches (the line
 * address for all three kinds); the DPOR layer treats moves on distinct
 * objects as commuting. `aux` disambiguates moves that touch the same
 * object (source/destination port, waiter requester, delay step) so
 * sleep sets track move *identity*, not just the object.
 */
struct ChoiceOption
{
    std::uint64_t object = 0;
    std::uint64_t aux = 0;

    bool
    operator==(const ChoiceOption &other) const
    {
        return object == other.object && aux == other.aux;
    }
};

/**
 * One logical message delivery, reported to the scheduler's timeline
 * probe (counterexample rendering). `kind` is the mem::MsgKind code,
 * kept as a raw byte so this header stays below the protocol layer.
 */
struct DeliveryRecord
{
    Tick tick = 0;
    bool requestNet = false;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t lineAddr = 0;
    std::uint8_t kind = 0;
    std::uint32_t seq = 0;
};

/**
 * The scheduler interface. Implementations must be deterministic
 * functions of their own state and the call sequence: the model
 * checker's replay layer depends on a recorded choice vector
 * reproducing a run exactly.
 */
class ChoiceScheduler
{
  public:
    virtual ~ChoiceScheduler() = default;

    /** Observation hook: called at every logical network delivery so
     *  the checker can render a message timeline. Default: ignore. */
    virtual void onDelivery(const DeliveryRecord &record) { (void)record; }

    /**
     * Pick one of @p options[0..n). Sites call this for every executed
     * move -- including forced ones (n == 1) -- so the scheduler can
     * keep dependence bookkeeping (DPOR sleep sets) aligned with the
     * execution.
     *
     * @param kind site kind
     * @param options the selectable moves, deterministically ordered
     * @param n number of options (>= 1)
     * @return index in [0, n)
     */
    virtual unsigned choose(ChoiceKind kind, const ChoiceOption *options,
                            unsigned n) = 0;
};

} // namespace mcsim

#endif // MCSIM_SIM_CHOICE_HH
