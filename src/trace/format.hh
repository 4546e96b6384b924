/**
 * @file
 * The canonical binary trace format (DESIGN.md section 14).
 *
 * A trace file is a 64-byte little-endian header followed by a sequence
 * of CRC-framed blocks. Each block carries the next run of records for
 * one processor; records are delta-encoded (addresses and load tokens
 * as zigzag varint deltas) with the delta state reset at every block
 * boundary, so a corrupt block never poisons its neighbours and a
 * reader can stream one processor without touching the others' payload
 * bytes.
 *
 * The record vocabulary is exactly the processor's issue-boundary
 * instruction set (cpu::Processor::OpKind): what a workload co_awaits is
 * what a trace stores, so capture and replay are lossless by
 * construction. Wire opcodes are assigned explicitly here -- reordering
 * the OpKind enumerators can never silently change the file format.
 */

#ifndef MCSIM_TRACE_FORMAT_HH
#define MCSIM_TRACE_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/processor.hh"
#include "sim/bytes.hh"
#include "sim/types.hh"

namespace mcsim::trace
{

/** Instruction kinds reuse the processor's issue vocabulary. */
using OpKind = cpu::Processor::OpKind;

/** File magic: "MCST" as the first four bytes. */
constexpr std::uint32_t traceMagic = 0x5453434Du;

/** Block magic: "MCTB" leads every record block. */
constexpr std::uint32_t blockMagic = 0x4254434Du;

/** Format version this build reads and writes. */
constexpr std::uint16_t traceVersion = 1;

/** Fixed size of the file header, bytes. */
constexpr std::size_t headerBytes = 64;

/** Fixed size of a block header, bytes. */
constexpr std::size_t blockHeaderBytes = 20;

/** Upper bound on one block's payload; caps reader buffering. */
constexpr std::uint32_t maxBlockPayload = 1u << 20;

/** Upper bound on records per block (writer flush threshold). */
constexpr std::uint32_t blockRecordLimit = 4096;

/** Decoded file header. */
struct TraceHeader
{
    std::uint32_t procCount = 0;
    std::uint64_t seed = 0;
    /** Free-form origin label (workload name or "import"), <= 23 chars. */
    std::string source;
    /** Total records across all processors (writer patches at finish). */
    std::uint64_t totalRecords = 0;
};

/**
 * One replayable instruction. Mirrors cpu::Processor::Op field for
 * field; `token` is meaningful only for Use records (Load tokens are
 * assigned by the replaying processor in program order, so they never
 * need to be stored).
 */
struct Record
{
    OpKind kind{OpKind::Exec};
    Addr addr = 0;
    std::uint64_t value = 0;
    std::uint32_t cycles = 0;
    std::uint64_t token = 0;
    std::uint8_t width = 8;
    bool own = false;

    bool operator==(const Record &) const = default;
};

/**
 * Per-block delta-codec state. Reset at every block boundary (both
 * sides), so blocks decode independently.
 */
struct CodecState
{
    Addr prevAddr = 0;
    std::uint64_t prevToken = 0;
};

/** Append the wire encoding of @p rec to @p out, advancing @p state. */
void encodeRecord(std::vector<std::uint8_t> &out, CodecState &state,
                  const Record &rec);

/**
 * Decode one record from @p data at @p pos (advanced past the record).
 * fatal() with a structured message on any malformed byte -- unknown
 * opcode, bad width bit combination, or a varint running past @p size
 * (mid-record end of payload). @p context names the block for the error
 * message.
 */
Record decodeRecord(const std::uint8_t *data, std::size_t size,
                    std::size_t &pos, CodecState &state,
                    const char *context);

/** Serialize @p header into its fixed 64-byte form (CRC included). */
std::vector<std::uint8_t> encodeHeader(const TraceHeader &header);

/**
 * Parse and validate the fixed header in @p data (at least headerBytes
 * long as sliced by the caller). fatal() on bad magic, unsupported
 * version, header CRC mismatch, or a nonzero generator field.
 */
TraceHeader decodeHeader(const std::uint8_t *data);

} // namespace mcsim::trace

#endif // MCSIM_TRACE_FORMAT_HH
