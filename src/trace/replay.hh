/**
 * @file
 * Trace replay: a Workload that re-issues a stored instruction stream,
 * making any trace -- captured or imported -- runnable on all seven
 * consistency models through the unchanged timing machinery.
 *
 * Replay is exact for the configuration a trace was captured on: the
 * timing model consumes only (kind, addr, width, own, cycles) and the
 * processor hands out load tokens sequentially per Load in program
 * order, so re-issuing the recorded stream reproduces the captured
 * run's cycle counts bit for bit. On other models the same stream is a
 * well-defined traffic pattern: no replayed op ever waits on a data
 * value, so replay terminates on every model.
 */

#ifndef MCSIM_TRACE_REPLAY_HH
#define MCSIM_TRACE_REPLAY_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/reader.hh"
#include "workloads/workload.hh"

namespace mcsim::trace
{

/** Replays one trace; construction fully validates the input. */
class TraceWorkload : public workloads::Workload
{
  public:
    /**
     * The workload is named after the trace's source field. fatal() --
     * a recoverable FatalError, no machine started -- on any malformed
     * trace.
     */
    explicit TraceWorkload(std::shared_ptr<const TraceSource> source);

    /** Open + validate a trace file. */
    static std::unique_ptr<TraceWorkload> fromFile(const std::string &path);

    std::string name() const override { return label; }
    void setup(core::Machine &machine) override;
    void verify(core::Machine &machine) const override;

    /**
     * A trace is a traffic pattern, not a synchronized program: on
     * models other than the capture source the stream may overlap what
     * were critical sections, so the happens-before detector does not
     * apply. Coherence and ordering checks stay on.
     */
    bool dataRaceFree() const override { return false; }

    const TraceHeader &header() const { return reader.header(); }
    const TraceSummary &traceSummary() const { return summary; }

  private:
    static SimTask body(cpu::Processor &proc, TraceReader::Stream stream,
                        std::uint64_t *retired);

    TraceReader reader;
    TraceSummary summary;
    std::string label;
    /** Records each proc retired (shared: verify() is const). */
    std::shared_ptr<std::vector<std::uint64_t>> retired;
};

} // namespace mcsim::trace

#endif // MCSIM_TRACE_REPLAY_HH
