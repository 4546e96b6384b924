/**
 * @file
 * Trace consumption: a random-access byte source (memory buffer or
 * file), the block-index reader, per-processor streaming record
 * decoders, and the full validation pass.
 *
 * Construction validates structure only (header + block framing walk,
 * no payload reads), so opening a large trace is cheap; streams then
 * buffer one block per processor at a time, never the whole file. All
 * malformed input is rejected with fatal() -- a structured, recoverable
 * FatalError -- before it can reach a Processor assert.
 */

#ifndef MCSIM_TRACE_READER_HH
#define MCSIM_TRACE_READER_HH

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/format.hh"

namespace mcsim::trace
{

/** Random-access view of trace bytes. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    virtual std::uint64_t size() const = 0;
    /** Read exactly @p n bytes at @p offset; fatal() on short reads. */
    virtual void read(std::uint64_t offset, void *out,
                      std::size_t n) const = 0;
};

/** In-memory trace bytes (capture output, tests). */
class MemorySource : public TraceSource
{
  public:
    explicit MemorySource(std::vector<std::uint8_t> data)
        : buffer(std::move(data))
    {}

    std::uint64_t size() const override { return buffer.size(); }
    void read(std::uint64_t offset, void *out,
              std::size_t n) const override;

  private:
    std::vector<std::uint8_t> buffer;
};

/** Trace file on disk; fatal() if it cannot be opened or read. */
class FileSource : public TraceSource
{
  public:
    explicit FileSource(const std::string &path);
    ~FileSource() override;

    FileSource(const FileSource &) = delete;
    FileSource &operator=(const FileSource &) = delete;

    std::uint64_t size() const override { return fileSize; }
    void read(std::uint64_t offset, void *out,
              std::size_t n) const override;

  private:
    std::string path;
    std::FILE *file = nullptr;
    std::uint64_t fileSize = 0;
};

/** Location of one record block inside the file. */
struct BlockRef
{
    std::uint64_t payloadOffset = 0;
    std::uint32_t records = 0;
    std::uint32_t bytes = 0;
    std::uint32_t crc = 0;
};

/** Aggregate statistics from a full validation pass. */
struct TraceSummary
{
    std::uint64_t records = 0;
    /** Per-OpKind record counts, indexed by the wire opcode order. */
    std::array<std::uint64_t, 9> perKind{};
    /** One past the highest byte touched (memory sizing for replay). */
    Addr addrLimit = 0;
    /** fnv1a over the complete byte stream: the identity of the trace
     *  content, independent of any machine or model it replays on. */
    std::uint64_t contentHash = 0;
};

/**
 * A validated-at-the-frame-level trace plus per-processor streaming
 * access to its records.
 */
class TraceReader
{
  public:
    /** Parses header and block framing; fatal() on malformed input. */
    explicit TraceReader(std::shared_ptr<const TraceSource> source);

    const TraceHeader &header() const { return head; }

    /** Records belonging to processor @p proc (from the block index). */
    std::uint64_t procRecords(unsigned proc) const
    {
        return recordsPerProc.at(proc);
    }

    /** Sequential decoder over one processor's records. Self-contained:
     *  holds the source alive and buffers one block at a time. */
    class Stream
    {
      public:
        /** Decode the next record into @p out; false at end of trace. */
        bool next(Record &out);

      private:
        friend class TraceReader;
        Stream(std::shared_ptr<const TraceSource> source,
               std::vector<BlockRef> blocks, unsigned proc);
        void loadBlock();

        std::shared_ptr<const TraceSource> source;
        std::vector<BlockRef> blocks;
        std::string context;
        std::vector<std::uint8_t> payload;
        CodecState state;
        std::size_t blockIndex = 0;
        std::size_t pos = 0;
        std::uint32_t left = 0;
    };

    Stream stream(unsigned proc) const;

    /**
     * Decode and check every record of every processor: payload CRCs,
     * clean record boundaries, address alignment, and the load-token
     * discipline the replaying processor will enforce with asserts
     * (every Use names a live token from an earlier Load). fatal() on
     * the first violation; returns aggregate statistics otherwise.
     */
    TraceSummary validate() const;

  private:
    std::shared_ptr<const TraceSource> source;
    TraceHeader head;
    std::vector<std::vector<BlockRef>> blocksPerProc;
    std::vector<std::uint64_t> recordsPerProc;
};

} // namespace mcsim::trace

#endif // MCSIM_TRACE_READER_HH
