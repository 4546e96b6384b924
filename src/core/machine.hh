/**
 * @file
 * The assembled dance-hall multiprocessor (paper Figure 1): processors
 * with private caches on one side, global memory modules with directory
 * slices on the other, connected by two Omega networks (requests and
 * responses).
 */

#ifndef MCSIM_CORE_MACHINE_HH
#define MCSIM_CORE_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "axiom/trace.hh"
#include "check/checker.hh"
#include "core/machine_config.hh"
#include "cpu/processor.hh"
#include "fault/fault.hh"
#include "mem/cache.hh"
#include "mem/functional_memory.hh"
#include "mem/memory_module.hh"
#include "net/iface_buffer.hh"
#include "net/omega_network.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace mcsim::core
{

/** A complete simulated machine. */
class Machine
{
  public:
    using Network = net::OmegaNetwork<mem::CoherenceMsg>;

    explicit Machine(const MachineConfig &config);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Bind a workload coroutine to processor @p proc and schedule it. */
    void startWorkload(unsigned proc, SimTask &&task);

    /**
     * Run until every started workload completes.
     * @return the tick at which the last workload finished
     * @throws FatalError on deadlock or when maxCycles is exceeded
     */
    Tick run();

    /** Component access. @{ */
    const MachineConfig &config() const { return cfg; }
    EventQueue &eventQueue() { return queue; }
    mem::FunctionalMemory &memory() { return fmem; }
    unsigned numProcs() const { return cfg.numProcs; }
    cpu::Processor &proc(unsigned i) { return *procs.at(i); }
    const cpu::Processor &proc(unsigned i) const { return *procs.at(i); }
    mem::Cache &cache(unsigned i) { return *caches.at(i); }
    const mem::Cache &cache(unsigned i) const { return *caches.at(i); }
    mem::MemoryModule &module(unsigned i) { return *modules.at(i); }
    const mem::MemoryModule &module(unsigned i) const
    {
        return *modules.at(i);
    }
    const net::NetStats &requestNetStats() const { return reqNet->stats(); }
    const net::NetStats &responseNetStats() const { return respNet->stats(); }
    const net::BufferStats &procBufferStats(unsigned i) const
    {
        return reqBufs.at(i)->stats();
    }
    /** The invariant checker; nullptr when checking is disabled. @{ */
    check::Checker *checker() { return checkerPtr.get(); }
    const check::Checker *checker() const { return checkerPtr.get(); }
    /** @} */
    /** The axiomatic trace recorder; nullptr when recording is off. @{ */
    axiom::TraceRecorder *traceRecorder() { return recorderPtr.get(); }
    const axiom::TraceRecorder *traceRecorder() const
    {
        return recorderPtr.get();
    }
    /** @} */
    /** The event tracer ring; nullptr when cfg.obs.tracer is off. @{ */
    obs::Tracer *tracer() { return tracerPtr.get(); }
    const obs::Tracer *tracer() const { return tracerPtr.get(); }
    /** @} */
    /** The fault plan; nullptr when cfg.fault is off (perfect HW). @{ */
    fault::FaultPlan *faultPlan() { return planPtr.get(); }
    const fault::FaultPlan *faultPlan() const { return planPtr.get(); }
    /** @} */
    /** @} */

    /** Machine-wide retired-instruction count (watchdog progress). */
    std::uint64_t totalRetired() const;

    /**
     * Multi-line dump of where every in-flight piece of work sits:
     * per-processor retirement/outstanding-ref/stall state, busy MSHRs
     * with their retry attempts, interface buffer and overflow occupancy,
     * open directory transactions, fault-injection counters and the tail
     * of the event-trace ring. Attached to the deadlock / watchdog /
     * maxCycles / fault-free-discard fatal()s.
     */
    std::string diagnosticSnapshot() const;

    /** Aggregate every component's statistics into one StatSet. */
    StatSet collectStats() const;

  private:
    void onWorkloadDone();

    MachineConfig cfg;
    EventQueue queue;
    mem::FunctionalMemory fmem;

    std::unique_ptr<Network> reqNet;
    std::unique_ptr<Network> respNet;

    std::vector<std::unique_ptr<mem::Port>> reqBufs;   ///< per processor
    std::vector<std::unique_ptr<mem::Cache>> caches;
    std::vector<std::unique_ptr<cpu::Processor>> procs;

    std::vector<std::unique_ptr<mem::Port>> respBufs;  ///< per module
    std::vector<std::unique_ptr<mem::MemoryModule>> modules;

    std::unique_ptr<check::Checker> checkerPtr;
    std::unique_ptr<axiom::TraceRecorder> recorderPtr;
    std::unique_ptr<obs::Tracer> tracerPtr;
    std::unique_ptr<fault::FaultPlan> planPtr;

    unsigned started = 0;
    unsigned doneCount = 0;
};

} // namespace mcsim::core

#endif // MCSIM_CORE_MACHINE_HH
