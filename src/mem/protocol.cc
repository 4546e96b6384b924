#include "mem/protocol.hh"

#include "sim/logging.hh"

namespace mcsim::mem
{

const char *
msgKindName(MsgKind kind)
{
    switch (kind) {
      case MsgKind::GetShared: return "GetShared";
      case MsgKind::GetExclusive: return "GetExclusive";
      case MsgKind::Writeback: return "Writeback";
      case MsgKind::InvAck: return "InvAck";
      case MsgKind::RecallStale: return "RecallStale";
      case MsgKind::FlushData: return "FlushData";
      case MsgKind::DataReplyShared: return "DataReplyShared";
      case MsgKind::DataReplyExclusive: return "DataReplyExclusive";
      case MsgKind::Invalidate: return "Invalidate";
      case MsgKind::RecallShared: return "RecallShared";
      case MsgKind::RecallExclusive: return "RecallExclusive";
      case MsgKind::Nack: return "Nack";
    }
    return "<unknown>";
}

void
unreachableMessage(const char *component, unsigned id, MsgKind kind)
{
    panic("[unreachable-message] %s %u received impossible message kind %s",
          component, id, msgKindName(kind));
}

const char *
validateMessage(const CoherenceMsg &msg, bool to_memory,
                unsigned num_procs, unsigned line_bytes)
{
    if (to_memory != isRequestKind(msg.kind))
        return "message kind does not match its network direction";
    if (line_bytes == 0 || msg.lineAddr % line_bytes != 0)
        return "message address is not line-aligned";
    if (msg.proc >= num_procs)
        return "message names a nonexistent processor";
    return nullptr;
}

} // namespace mcsim::mem
