/**
 * @file
 * Fault-injection configuration (DESIGN.md section 11).
 *
 * Faults are deterministic: every injection decision is a pure function
 * of (seed, site, decision index), derived with splitmix64 hash chains
 * (sim/random.hh), so a faulted run reproduces bit-identically at any
 * sweep thread count -- the same contract the sweep engine already makes
 * for fault-free runs.
 *
 * The master switch is `enable`. The coherence protocol is the same
 * either way (its grant sequence numbers and floors run on every
 * machine); `enable` arms the injection sites below and the recovery
 * timing (MSHR retry with bounded exponential backoff, directory NACKs,
 * the end-of-run drain), which are active even if every rate below is
 * zero. When it is off no retry timer is armed and no run drains, so
 * golden baselines see zero drift.
 *
 * The forward-progress watchdog is configured here but is independent of
 * `enable`: it is pure observation (no event, no timing change) and is
 * armed for every run by default.
 */

#ifndef MCSIM_FAULT_FAULT_CONFIG_HH
#define MCSIM_FAULT_FAULT_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mcsim::fault
{

/** Per-machine fault-injection settings. */
struct FaultConfig
{
    /** Master switch: injection sites and recovery timing armed. */
    bool enable = false;

    /** Seed for every injection decision (sweeps derive it from the
     *  point id so chaos jobs are reproducible in isolation). */
    std::uint64_t seed = 0;

    /** Total injected-fault cap across all sites; 0 = unlimited. Unit
     *  tests use budget=1 to inject exactly one fault and then let the
     *  recovery machinery run on perfect hardware. */
    std::uint64_t budget = 0;

    /** Omega-network switch-port faults (per eligible message). @{ */
    double dropRate = 0.0;       ///< lose the message entirely
    double dupRate = 0.0;        ///< deliver a second copy later
    double delayRate = 0.0;      ///< hold the message extra cycles
    unsigned delayMaxCycles = 64;///< uniform extra delay in [1, max]
    /** @} */

    /** Directory-side lost replies (per DataReply leaving a module). */
    double replyLossRate = 0.0;

    /** Memory-module transient stall windows: per DRAM reservation,
     *  with probability `moduleStallRate` add [1, moduleStallMaxCycles]
     *  busy cycles before the access starts. @{ */
    double moduleStallRate = 0.0;
    unsigned moduleStallMaxCycles = 32;
    /** @} */

    /** Memory-module blackouts: within every `blackoutPeriod`-cycle
     *  window each module has one seed-positioned outage of up to
     *  `blackoutMaxCycles` during which arriving requests are deferred
     *  (never dropped) to the outage end. 0 period = no blackouts. @{ */
    Tick blackoutPeriod = 0;
    Tick blackoutMaxCycles = 0;
    /** @} */

    /** Recovery: MSHR timeout-driven re-issue. A request whose reply
     *  has not arrived after retryTimeoutCycles (+ backoff on later
     *  attempts) is re-sent. 0 disables retries -- only useful in tests
     *  that want a wedge for the watchdog to convert. @{ */
    unsigned retryTimeoutCycles = 400;
    unsigned backoffBaseCycles = 64;   ///< doubled per attempt...
    unsigned backoffMaxCycles = 4096;  ///< ...capped here
    unsigned backoffJitterCycles = 32; ///< + seed-derived [0, jitter]
    /** @} */

    /** Directory NACKs a Get* instead of queueing it once a blocked
     *  line's waiter queue is this deep; the cache re-sends after
     *  backoff. 0 = never NACK. */
    unsigned nackThreshold = 8;

    /** Forward-progress watchdog: fatal() with a diagnostic snapshot
     *  when no instruction retires machine-wide for this many cycles.
     *  Active for every run (faults on or off); 0 = disabled. */
    Tick watchdogCycles = 2'000'000;

    /** Injection sites and recovery timing armed. */
    bool enabled() const { return enable; }

    /** fatal() on inconsistent settings (rates outside [0,1], blackout
     *  longer than its period, ...). */
    void validate() const;
};

/** Preset names understood by faultPreset(), in catalog order:
 *  "off", "light", "standard", "heavy". */
const std::vector<std::string> &faultPresetNames();

/** Build a named preset; fatal() on unknown names. */
FaultConfig faultPreset(const std::string &name);

} // namespace mcsim::fault

#endif // MCSIM_FAULT_FAULT_CONFIG_HH
