#include "workloads/workload.hh"

namespace mcsim::workloads
{

RunResult
runWorkload(Workload &workload, const core::MachineConfig &config,
            const std::function<void(core::Machine &)> &afterSetup)
{
    core::MachineConfig cfg = config;
    if (!workload.dataRaceFree())
        cfg.check.races = false;
    RunResult result;
    result.machine = std::make_unique<core::Machine>(cfg);
    core::Machine &machine = *result.machine;
    workload.setup(machine);
    if (afterSetup)
        afterSetup(machine);
    const Tick last = machine.run();
    workload.verify(machine);
    result.metrics = core::RunMetrics::fromMachine(machine, last);
    if (axiom::TraceRecorder *rec = machine.traceRecorder())
        result.axiom = axiom::checkTrace(rec->finish(), cfg.modelParams());
    return result;
}

} // namespace mcsim::workloads
