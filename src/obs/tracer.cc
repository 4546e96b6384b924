#include "obs/tracer.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mcsim::obs
{

const char *
trackName(Track track)
{
    switch (track) {
      case Track::Proc: return "processors";
      case Track::Cache: return "caches";
      case Track::ReqSwitch: return "request network";
      case Track::RespSwitch: return "response network";
      case Track::Module: return "memory modules";
    }
    return "<track>";
}

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Busy: return "busy";
      case SpanKind::StallLoadMiss: return "load_miss_wait";
      case SpanKind::StallStoreMshr: return "store_mshr_wait";
      case SpanKind::StallBuffer: return "buffer_backpressure";
      case SpanKind::StallFenceSync: return "fence_sync_drain";
      case SpanKind::StallAcquire: return "acquire_wait";
      case SpanKind::StallRelease: return "release_drain";
      case SpanKind::MissService: return "miss_service";
      case SpanKind::PortBusy: return "port_busy";
      case SpanKind::DramBusy: return "dram_busy";
      case SpanKind::DirQueue: return "dir_queue";
      case SpanKind::FaultRetry: return "fault_retry";
    }
    return "<span>";
}

Tracer::Tracer(std::size_t capacity_events)
    : cap(std::max<std::size_t>(capacity_events, 1))
{}

void
Tracer::push(const TraceEvent &event)
{
    if (count < cap) {
        // Nothing is overwritten before the ring fills, so head is 0.
        if (buf.size() == buf.capacity())
            buf.reserve(std::min(cap, std::max<std::size_t>(
                                          2 * buf.size(), 1024)));
        buf.push_back(event);
        count += 1;
    } else {
        buf[head] = event;
        head = (head + 1) % buf.size();
        drops += 1;
    }
}

void
Tracer::forEach(const std::function<void(const TraceEvent &)> &fn) const
{
    for (std::size_t i = 0; i < count; ++i)
        fn(buf[(head + i) % buf.size()]);
}

} // namespace mcsim::obs
