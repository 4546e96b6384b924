/**
 * @file
 * Bounded ring-buffer event tracer (DESIGN.md section 10).
 *
 * Components emit fixed-size duration spans (processor busy/stall
 * intervals, cache miss services, switch port occupancy, DRAM
 * reservations, directory queueing). The ring overwrites the oldest
 * events when full, so memory use is bounded and a trace of the *end*
 * of a run is always available.
 *
 * Two kill switches keep the off path near-free:
 *  - runtime: span() is a single predictable-branch early return while
 *    the tracer is disarmed (and components hold a nullptr when no
 *    tracer is wired at all);
 *  - compile time: defining MCSIM_OBS_NO_TRACING compiles span() to
 *    nothing.
 */

#ifndef MCSIM_OBS_TRACER_HH
#define MCSIM_OBS_TRACER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace mcsim::obs
{

/** Component class a span belongs to (one Perfetto process each). */
enum class Track : std::uint8_t
{
    Proc,        ///< processor timeline (busy / stall-cause spans)
    Cache,       ///< per-cache miss-service spans
    ReqSwitch,   ///< request-network switch output ports
    RespSwitch,  ///< response-network switch output ports
    Module,      ///< memory-module DRAM and directory-queue spans
};

inline constexpr unsigned numTracks = 5;

const char *trackName(Track track);

/** What a span represents. The six Stall* kinds mirror StallCause in
 *  order, so processors can translate a cause directly into a kind. */
enum class SpanKind : std::uint8_t
{
    Busy,
    StallLoadMiss,
    StallStoreMshr,
    StallBuffer,
    StallFenceSync,
    StallAcquire,
    StallRelease,
    MissService,  ///< cache: request issue to consumer completion
    PortBusy,     ///< switch output port occupied by a message's flits
    DramBusy,     ///< module: DRAM reservation (read or writeback)
    DirQueue,     ///< module: request queued behind a blocked line
    FaultRetry,   ///< cache: timeout/NACK-driven re-issue (src/fault/)
};

const char *spanKindName(SpanKind kind);

/** One recorded span: [begin, begin + dur) on track/id. */
struct TraceEvent
{
    Tick begin = 0;
    Tick dur = 0;
    Addr arg = 0;  ///< line address (memory-side spans); else 0
    std::uint32_t id = 0;
    Track track = Track::Proc;
    SpanKind kind = SpanKind::Busy;
};

/** The bounded ring of TraceEvents. */
class Tracer
{
  public:
    explicit Tracer(std::size_t capacity_events);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Runtime kill switch. @{ */
    bool armed() const { return on; }
    void arm(bool enable) { on = enable; }
    /** @} */

    /** Record a span; near-free when disarmed or compiled out. */
    void
    span(Track track, std::uint32_t id, SpanKind kind, Tick begin,
         Tick dur, Addr arg = 0)
    {
#ifdef MCSIM_OBS_NO_TRACING
        (void)track;
        (void)id;
        (void)kind;
        (void)begin;
        (void)dur;
        (void)arg;
#else
        if (!on)
            return;
        push(TraceEvent{begin, dur, arg, id, track, kind});
#endif
    }

    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return drops; }

    /** Visit the retained events oldest-first. */
    void forEach(const std::function<void(const TraceEvent &)> &fn) const;

  private:
    void push(const TraceEvent &event);

    /** Grows on demand up to cap, so a huge capacity costs only what a
     *  run records. */
    std::vector<TraceEvent> buf;
    std::size_t cap;
    std::size_t head = 0;  ///< index of the oldest event
    std::size_t count = 0;
    std::uint64_t drops = 0;
    bool on = true;
};

} // namespace mcsim::obs

#endif // MCSIM_OBS_TRACER_HH
