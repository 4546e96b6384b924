/**
 * @file
 * Cache-coherence protocol message definitions (full-map directory scheme,
 * after Censier & Feautrier 1978, as specified in paper section 3.1).
 *
 * Traffic directions:
 *  - processor -> memory (request network): GetShared, GetExclusive,
 *    Writeback, InvAck, RecallStale, FlushData
 *  - memory -> processor (response network): DataReplyShared,
 *    DataReplyExclusive, Invalidate, RecallShared, RecallExclusive, plus
 *    Nack when a fault plan sets a NACK threshold (src/fault/)
 *
 * Only timing flows through the protocol; functional data is maintained by
 * the processors against FunctionalMemory at instruction issue time (see
 * DESIGN.md, "Functional/timing split").
 */

#ifndef MCSIM_MEM_PROTOCOL_HH
#define MCSIM_MEM_PROTOCOL_HH

#include <cstdint>

#include "net/message.hh"
#include "sim/types.hh"

namespace mcsim::net
{
template <typename Payload>
class IfaceBuffer;
} // namespace mcsim::net

namespace mcsim::mem
{

/** Protocol message kinds. */
enum class MsgKind : std::uint8_t
{
    // processor -> memory
    GetShared,       ///< read miss: fetch line for read
    GetExclusive,    ///< write/RMW miss: fetch line with ownership
    Writeback,       ///< eviction of an exclusive line (carries data)
    InvAck,          ///< acknowledgment of an Invalidate
    RecallStale,     ///< recall target no longer holds the line
    FlushData,       ///< recall reply carrying the dirty line

    // memory -> processor
    DataReplyShared,     ///< line data, read permission
    DataReplyExclusive,  ///< line data, write permission (after invs/acks)
    Invalidate,          ///< directory asks a sharer to drop its copy
    RecallShared,        ///< directory asks the owner to flush, keep shared
    RecallExclusive,     ///< directory asks the owner to flush + invalidate

    // memory -> processor, only under a fault plan (src/fault/)
    Nack,                ///< directory refuses a Get*; retry after backoff
};

/** Human-readable kind name (diagnostics and tests). */
const char *msgKindName(MsgKind kind);

/** True for kinds that travel processor -> memory (request network). */
constexpr bool
isRequestKind(MsgKind kind)
{
    return kind == MsgKind::GetShared || kind == MsgKind::GetExclusive ||
           kind == MsgKind::Writeback || kind == MsgKind::InvAck ||
           kind == MsgKind::RecallStale || kind == MsgKind::FlushData;
}

/** True for kinds that carry a full cache line of data. */
constexpr bool
carriesLine(MsgKind kind)
{
    return kind == MsgKind::Writeback || kind == MsgKind::FlushData ||
           kind == MsgKind::DataReplyShared ||
           kind == MsgKind::DataReplyExclusive;
}

/** Protocol payload carried opaquely by the network layer. */
struct CoherenceMsg
{
    MsgKind kind{MsgKind::GetShared};
    /** Line-aligned address the message concerns. */
    Addr lineAddr = 0;
    /** Processor involved (requester for requests, target for replies). */
    ProcId proc = 0;
    /**
     * Per-line grant sequence number (directory DirEntry::seq). Replies
     * carry the seq of the grant; Invalidate/Recall carry the seq their
     * transaction's grant will get; Writeback/FlushData carry the seq of
     * the grant being surrendered, and RecallStale echoes the recall's.
     * Get* carry the requester's grant floor: a Get from the registered
     * owner with a floor past the owner's grant means an eviction race
     * (its Writeback is in flight), one at or below it a lost grant or a
     * duplicate request. Stale or duplicate messages that reordered past
     * their revocation (possible only under fault injection, src/fault/)
     * are recognized by it and discarded.
     */
    std::uint32_t seq = 0;
};

/** Message envelope type used by both machine networks. */
using NetMsg = net::Msg<CoherenceMsg>;

/** A controller's outbound port: interface buffer plus overflow
 *  (net/iface_buffer.hh). */
using Port = net::IfaceBuffer<CoherenceMsg>;

/**
 * Well-formedness lint for a protocol message about to be injected
 * (src/check/ hooks): the kind must match the network direction, the
 * address must be line-aligned, and the processor id must exist.
 *
 * @param msg the payload being sent
 * @param to_memory true when injected into the request network
 * @param num_procs processor count
 * @param line_bytes cache line size
 * @return nullptr when well-formed, else a static description
 */
const char *validateMessage(const CoherenceMsg &msg, bool to_memory,
                            unsigned num_procs, unsigned line_bytes);

/**
 * Terminate on a protocol message that reached a handler which, by
 * construction, can never receive it (wrong network direction, or a
 * kind the dispatch above it already consumed). Protocol switches list
 * every MsgKind explicitly and route the impossible ones here -- so
 * adding a message kind makes -Wswitch (and mcsim-lint's
 * protocol-switch-exhaustiveness check) force every handler to be
 * revisited instead of silently falling into a default arm.
 *
 * @param component handler description ("cache", "memory module")
 * @param id component instance (processor or module id)
 * @param kind the impossible message kind
 */
[[noreturn]] void unreachableMessage(const char *component, unsigned id,
                                     MsgKind kind);

/**
 * Network size in bytes of a protocol message: one flit of header/address,
 * plus the line data when present.
 */
constexpr std::uint32_t
messageBytes(MsgKind kind, std::uint32_t line_bytes)
{
    return net::flitBytes + (carriesLine(kind) ? line_bytes : 0);
}

} // namespace mcsim::mem

#endif // MCSIM_MEM_PROTOCOL_HH
