#include "trace/format.hh"

#include <cstring>

#include "sim/logging.hh"

namespace mcsim::trace
{

namespace
{

/** Unsigned LEB128. @{ */
void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::uint8_t *data, std::size_t size, std::size_t &pos,
          const char *context)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (pos >= size) {
            fatal("trace: truncated record (payload ends mid-varint) "
                  "in %s", context);
        }
        const std::uint8_t byte = data[pos++];
        v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
        if (!(byte & 0x80u))
            return v;
    }
    fatal("trace: overlong varint in %s", context);
}
/** @} */

/** Zigzag-signed varint (deltas). @{ */
std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}
/** @} */

/**
 * Stable wire opcodes: the on-disk identity of each OpKind. Never reuse
 * or renumber -- add new codes at the tail and bump traceVersion if the
 * semantics of existing ones change.
 */
std::uint8_t
wireOpcode(OpKind kind)
{
    switch (kind) {
      case OpKind::Exec: return 0;
      case OpKind::Load: return 1;
      case OpKind::Use: return 2;
      case OpKind::LoadUse: return 3;
      case OpKind::Store: return 4;
      case OpKind::SyncLoad: return 5;
      case OpKind::SyncRmw: return 6;
      case OpKind::SyncStore: return 7;
      case OpKind::Fence: return 8;
    }
    panic("wireOpcode: bad OpKind %u", static_cast<unsigned>(kind));
}

constexpr std::uint8_t opcodeLimit = 9;

OpKind
kindFromWire(std::uint8_t opcode, const char *context)
{
    switch (opcode) {
      case 0: return OpKind::Exec;
      case 1: return OpKind::Load;
      case 2: return OpKind::Use;
      case 3: return OpKind::LoadUse;
      case 4: return OpKind::Store;
      case 5: return OpKind::SyncLoad;
      case 6: return OpKind::SyncRmw;
      case 7: return OpKind::SyncStore;
      case 8: return OpKind::Fence;
      default:
        fatal("trace: unknown record opcode %u in %s",
              static_cast<unsigned>(opcode), context);
    }
}

constexpr std::uint8_t widthFlag = 0x10;
constexpr std::uint8_t ownFlag = 0x20;

bool
carriesAddr(OpKind kind)
{
    switch (kind) {
      case OpKind::Load:
      case OpKind::LoadUse:
      case OpKind::Store:
      case OpKind::SyncLoad:
      case OpKind::SyncRmw:
      case OpKind::SyncStore:
        return true;
      case OpKind::Exec:
      case OpKind::Use:
      case OpKind::Fence:
        return false;
    }
    panic("carriesAddr: bad OpKind %u", static_cast<unsigned>(kind));
}

} // namespace

void
encodeRecord(std::vector<std::uint8_t> &out, CodecState &state,
             const Record &rec)
{
    std::uint8_t head = wireOpcode(rec.kind);
    if (rec.width == 4)
        head |= widthFlag;
    if (rec.own)
        head |= ownFlag;
    out.push_back(head);

    if (carriesAddr(rec.kind)) {
        putVarint(out, zigzag(static_cast<std::int64_t>(
                           rec.addr - state.prevAddr)));
        state.prevAddr = rec.addr;
    }
    switch (rec.kind) {
      case OpKind::Exec:
        putVarint(out, rec.cycles);
        break;
      case OpKind::Use:
        putVarint(out, zigzag(static_cast<std::int64_t>(
                           rec.token - state.prevToken)));
        state.prevToken = rec.token;
        break;
      case OpKind::Store:
      case OpKind::SyncStore:
        putVarint(out, rec.value);
        break;
      case OpKind::Load:
      case OpKind::LoadUse:
      case OpKind::SyncLoad:
      case OpKind::SyncRmw:
      case OpKind::Fence:
        break;
    }
}

Record
decodeRecord(const std::uint8_t *data, std::size_t size, std::size_t &pos,
             CodecState &state, const char *context)
{
    if (pos >= size)
        fatal("trace: truncated record (empty payload tail) in %s", context);
    const std::uint8_t head = data[pos++];
    const std::uint8_t opcode = head & 0x0Fu;
    if (opcode >= opcodeLimit || (head & ~std::uint8_t(0x3Fu)) != 0) {
        fatal("trace: unknown record opcode 0x%02x in %s",
              static_cast<unsigned>(head), context);
    }

    Record rec;
    rec.kind = kindFromWire(opcode, context);
    rec.width = (head & widthFlag) ? 4 : 8;
    rec.own = (head & ownFlag) != 0;

    const bool isLoad =
        rec.kind == OpKind::Load || rec.kind == OpKind::LoadUse;
    if (rec.own && !isLoad)
        fatal("trace: ownership flag on a non-load record in %s", context);
    if (rec.width == 4 && !isLoad && rec.kind != OpKind::Store)
        fatal("trace: 32-bit width flag on a non-data record in %s",
              context);

    if (carriesAddr(rec.kind)) {
        const std::int64_t delta =
            unzigzag(getVarint(data, size, pos, context));
        rec.addr = state.prevAddr + static_cast<Addr>(delta);
        state.prevAddr = rec.addr;
    }
    switch (rec.kind) {
      case OpKind::Exec: {
        const std::uint64_t cycles = getVarint(data, size, pos, context);
        if (cycles > UINT32_MAX)
            fatal("trace: exec cycle count overflows 32 bits in %s",
                  context);
        rec.cycles = static_cast<std::uint32_t>(cycles);
        break;
      }
      case OpKind::Use: {
        const std::int64_t delta =
            unzigzag(getVarint(data, size, pos, context));
        rec.token = state.prevToken + static_cast<std::uint64_t>(delta);
        state.prevToken = rec.token;
        break;
      }
      case OpKind::Store:
      case OpKind::SyncStore:
        rec.value = getVarint(data, size, pos, context);
        break;
      case OpKind::Load:
      case OpKind::LoadUse:
      case OpKind::SyncLoad:
      case OpKind::SyncRmw:
      case OpKind::Fence:
        break;
    }
    return rec;
}

namespace
{

/** Bytes reserved for the NUL-padded source label in the header. */
constexpr std::size_t sourceBytes = 24;

} // namespace

std::vector<std::uint8_t>
encodeHeader(const TraceHeader &header)
{
    std::vector<std::uint8_t> out;
    out.reserve(headerBytes);
    putU32(out, traceMagic);
    putU16(out, traceVersion);
    putU16(out, 0);
    putU32(out, header.procCount);
    putU32(out, 0);  // reserved generator id: always 0
    putU64(out, header.seed);
    putU64(out, header.totalRecords);
    char label[sourceBytes] = {};
    // Truncate silently: the label is descriptive, not load-bearing.
    std::strncpy(label, header.source.c_str(), sourceBytes - 1);
    out.insert(out.end(), label, label + sourceBytes);
    putU32(out, 0);
    putU32(out, crc32(out.data(), out.size()));
    return out;
}

TraceHeader
decodeHeader(const std::uint8_t *data)
{
    if (getU32(data) != traceMagic)
        fatal("trace: bad magic (not a mcsim trace file)");
    const std::uint16_t version = getU16(data + 4);
    if (version != traceVersion) {
        fatal("trace: unsupported trace version %u (this build reads "
              "version %u)", static_cast<unsigned>(version),
              static_cast<unsigned>(traceVersion));
    }
    const std::uint32_t stored = getU32(data + headerBytes - 4);
    if (crc32(data, headerBytes - 4) != stored)
        fatal("trace: header CRC mismatch (corrupt file)");

    TraceHeader header;
    header.procCount = getU32(data + 8);
    if (const std::uint32_t gen = getU32(data + 12); gen != 0)
        fatal("trace: unknown generator id %u in header", gen);
    header.seed = getU64(data + 16);
    header.totalRecords = getU64(data + 24);
    const char *label = reinterpret_cast<const char *>(data + 32);
    header.source.assign(label, strnlen(label, sourceBytes));
    if (header.procCount == 0 || header.procCount > 1024)
        fatal("trace: implausible processor count %u in header",
              header.procCount);
    return header;
}

} // namespace mcsim::trace
