/**
 * @file
 * Workload interface and the one run path every tool, sweep and test
 * drives a workload through.
 *
 * A Workload owns the shared-data layout and per-processor program of one
 * benchmark. Workload code is written once and runs unchanged on every
 * consistency model -- the Processor applies the model-specific stall
 * rules -- mirroring how the paper compiled one PCP program per benchmark
 * and ran it on all five simulated systems.
 */

#ifndef MCSIM_WORKLOADS_WORKLOAD_HH
#define MCSIM_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "axiom/axiom_checker.hh"
#include "core/machine.hh"
#include "core/machine_config.hh"
#include "core/metrics.hh"

namespace mcsim::workloads
{

/** One benchmark program. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name ("Gauss", "Qsort", ...). */
    virtual std::string name() const = 0;

    /**
     * Lay out and initialize shared data in @p machine's functional
     * memory, then start one coroutine per processor.
     */
    virtual void setup(core::Machine &machine) = 0;

    /**
     * Check functional correctness after the run; throws (fatal) on a
     * wrong answer. Every model must produce a correct result -- the
     * relaxed models only change timing for these data-race-free
     * programs.
     */
    virtual void verify(core::Machine &machine) const = 0;

    /**
     * True when the program is data-race-free under the sync operations it
     * uses. runWorkload() -- the one place this is consulted -- disables
     * the happens-before race detector for workloads that return false
     * (e.g. the synthetic reference generator, which writes shared
     * addresses without locking by design); the coherence and ordering
     * checks stay on.
     */
    virtual bool dataRaceFree() const { return true; }

    /**
     * Fingerprint of the run's semantic result in @p machine's functional
     * memory. The chaos harness (src/exp/chaos.hh) compares a faulted
     * run's value against its fault-free twin's to assert fault
     * transparency. The default hashes the whole image -- right for
     * statically scheduled workloads, whose final memory is a pure
     * function of the program. Dynamically scheduled workloads override
     * it to hash their output region only: WHICH processor pops which
     * work unit (and hence scheduler stacks and scratch) legitimately
     * varies with timing, while the output itself must not.
     */
    virtual std::uint64_t
    resultFingerprint(core::Machine &machine) const
    {
        return machine.memory().fingerprint();
    }
};

/** Result of one run. */
struct RunResult
{
    core::RunMetrics metrics;
    /**
     * The axiomatic checker's verdict on the recorded trace; empty unless
     * the config records one (MachineConfig::trace.record). A rejection
     * is returned here, never thrown: each caller decides what it means.
     */
    std::optional<axiom::AxiomResult> axiom;
    /** The machine after the run, for callers that inspect it (stats,
     *  tracer, result fingerprint). The workload must outlive it. */
    std::unique_ptr<core::Machine> machine;
};

/**
 * The one run path: build a machine from @p config (race detector off
 * when the workload is not data-race-free), set @p workload up on it,
 * invoke @p afterSetup (the attach point for observers and fault hooks
 * that need the built machine), run to completion, verify the answer,
 * collect metrics and, when a trace was recorded, check it. Throws
 * FatalError on deadlock, timeout or a failed verify.
 */
RunResult runWorkload(
    Workload &workload, const core::MachineConfig &config,
    const std::function<void(core::Machine &)> &afterSetup = {});

} // namespace mcsim::workloads

#endif // MCSIM_WORKLOADS_WORKLOAD_HH
