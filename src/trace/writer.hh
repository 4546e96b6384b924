/**
 * @file
 * Trace emission: a byte sink abstraction (memory buffer or file) and
 * the block-framing TraceWriter shared by capture and text import, so
 * every producer emits the identical format.
 */

#ifndef MCSIM_TRACE_WRITER_HH
#define MCSIM_TRACE_WRITER_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/format.hh"

namespace mcsim::trace
{

/**
 * Destination of trace bytes. `patch` rewrites already-written bytes
 * (the writer back-fills the header's record count at finish).
 */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;
    virtual void write(const void *data, std::size_t size) = 0;
    virtual void patch(std::uint64_t offset, const void *data,
                       std::size_t size) = 0;
};

/** Accumulate the trace in memory (capture, tests). */
class MemorySink : public ByteSink
{
  public:
    void write(const void *data, std::size_t size) override;
    void patch(std::uint64_t offset, const void *data,
               std::size_t size) override;

    const std::vector<std::uint8_t> &bytes() const { return buffer; }
    std::vector<std::uint8_t> take() { return std::move(buffer); }

  private:
    std::vector<std::uint8_t> buffer;
};

/** Stream the trace to a file; fatal() on any I/O failure. */
class FileSink : public ByteSink
{
  public:
    explicit FileSink(const std::string &path);
    ~FileSink() override;

    FileSink(const FileSink &) = delete;
    FileSink &operator=(const FileSink &) = delete;

    void write(const void *data, std::size_t size) override;
    void patch(std::uint64_t offset, const void *data,
               std::size_t size) override;

    /** Flush and close; fatal() if the OS reports a write error. */
    void close();

  private:
    std::string path;
    std::FILE *file = nullptr;
    std::uint64_t cursor = 0;
};

/**
 * Emit a trace: header up front, then per-processor record blocks.
 * Records are buffered per processor and flushed as a CRC-framed block
 * when a processor's run reaches blockRecordLimit (and at finish), so
 * block order in the file is a pure function of the append sequence --
 * a deterministic producer yields a byte-identical file.
 */
class TraceWriter
{
  public:
    /** @p header.totalRecords is ignored; the writer counts. */
    TraceWriter(const TraceHeader &header, ByteSink &sink);

    /** Append the next record of @p proc (program order per proc). */
    void append(unsigned proc, const Record &rec);

    /** Flush all pending blocks and patch the final header. */
    void finish();

    std::uint64_t recordCount() const { return total; }

  private:
    void flushProc(unsigned proc);

    TraceHeader header;
    ByteSink &sink;
    std::vector<std::vector<Record>> pending;
    std::uint64_t total = 0;
    bool finished = false;
};

} // namespace mcsim::trace

#endif // MCSIM_TRACE_WRITER_HH
