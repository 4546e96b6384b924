#include "trace/replay.hh"

#include "sim/logging.hh"

namespace mcsim::trace
{

TraceWorkload::TraceWorkload(std::shared_ptr<const TraceSource> source)
    : reader(std::move(source)), summary(reader.validate()),
      label(strprintf("Trace(%s)", reader.header().source.empty()
                                       ? "unnamed"
                                       : reader.header().source.c_str())),
      retired(std::make_shared<std::vector<std::uint64_t>>())
{}

std::unique_ptr<TraceWorkload>
TraceWorkload::fromFile(const std::string &path)
{
    return std::make_unique<TraceWorkload>(
        std::make_shared<FileSource>(path));
}

namespace
{

/** Reconstruct the processor op a record stands for. */
cpu::Processor::Op
opFor(const Record &rec)
{
    cpu::Processor::Op op;
    op.kind = rec.kind;
    op.addr = rec.addr;
    op.value = rec.value;
    op.cycles = rec.cycles;
    op.token = rec.token;
    op.width = rec.width;
    op.own = rec.own;
    return op;
}

} // namespace

SimTask
TraceWorkload::body(cpu::Processor &proc, TraceReader::Stream stream,
                    std::uint64_t *count)
{
    Record rec;
    while (stream.next(rec)) {
        co_await cpu::Processor::Awaiter(proc, opFor(rec));
        *count += 1;
    }
}

void
TraceWorkload::setup(core::Machine &machine)
{
    const TraceHeader &head = reader.header();
    if (machine.numProcs() != head.procCount) {
        fatal("trace: recorded for %u procs but the machine has %u "
              "(replay does not rescale traces)",
              head.procCount, machine.numProcs());
    }
    machine.memory().ensure(summary.addrLimit);
    retired->assign(head.procCount, 0);
    for (unsigned p = 0; p < head.procCount; ++p) {
        machine.startWorkload(
            p, body(machine.proc(p), reader.stream(p), &(*retired)[p]));
    }
}

void
TraceWorkload::verify(core::Machine &) const
{
    for (unsigned p = 0; p < reader.header().procCount; ++p) {
        const std::uint64_t expect = reader.procRecords(p);
        if ((*retired)[p] != expect) {
            fatal("trace replay: proc %u retired %llu of %llu records",
                  p, static_cast<unsigned long long>((*retired)[p]),
                  static_cast<unsigned long long>(expect));
        }
    }
}

} // namespace mcsim::trace
