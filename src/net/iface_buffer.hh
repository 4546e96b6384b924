/**
 * @file
 * The outbound port of one controller (processor cache or memory module):
 * the four-element buffer between it and its network, per paper section
 * 3.1, plus an unbounded overflow queue behind it, and the WO2
 * load-bypass rule of section 3.2.
 *
 * Messages drain into the network one at a time; the buffer-to-network link
 * carries one flit per cycle, so a message of F flits holds the link for F
 * cycles and its head enters the stage-0 switch one cycle after it starts
 * draining. Controllers can generate messages faster than the link drains
 * them; whatever does not fit in the buffer waits in the overflow queue
 * and moves into the buffer as slots free.
 *
 * When bypassing is enabled, a bypass-eligible message (a load) goes to
 * the front of whichever queue it enters: in front of every message
 * waiting in the overflow queue, or, when it enters the buffer, in front
 * of waiting stores and waiting loads alike. This reproduces the paper's
 * "simple, but slightly flawed" implementation that its section 4.2.3
 * analyses.
 */

#ifndef MCSIM_NET_IFACE_BUFFER_HH
#define MCSIM_NET_IFACE_BUFFER_HH

#include <deque>
#include <utility>

#include "net/message.hh"
#include "net/net_stats.hh"
#include "net/omega_network.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mcsim::net
{

/** Bounded (optionally load-bypassing) injection buffer with overflow. */
template <typename Payload>
class IfaceBuffer
{
  public:
    using Message = Msg<Payload>;

    /**
     * @param eq shared event queue
     * @param net network this buffer injects into
     * @param capacity buffer slots (paper: 4); the overflow is unbounded
     * @param bypass_enabled WO2 load bypassing
     */
    IfaceBuffer(EventQueue &eq, OmegaNetwork<Payload> &net, unsigned capacity,
                bool bypass_enabled)
        : queue(eq), network(net), cap(capacity), bypassEnabled(bypass_enabled)
    {}

    IfaceBuffer(const IfaceBuffer &) = delete;
    IfaceBuffer &operator=(const IfaceBuffer &) = delete;

    /** Queue @p msg for injection; delivery order is FIFO (plus bypass). */
    void
    send(Message &&msg)
    {
        if (bypassEnabled && msg.bypassEligible && !overflow.empty())
            overflow.push_front(std::move(msg));
        else
            overflow.push_back(std::move(msg));
        refill();
    }

    /** True when every buffer slot is taken. */
    bool full() const { return waiting.size() >= cap; }

    /** Messages in the buffer (not yet injected). */
    std::size_t occupancy() const { return waiting.size(); }

    /** Messages in the overflow queue (not yet in the buffer). */
    std::size_t backlog() const { return overflow.size(); }

    /** Buffer statistics. */
    const BufferStats &stats() const { return bufStats; }

  private:
    /**
     * Move overflow messages into the buffer while slots are free. Each
     * attempt that finds the buffer full counts one reject.
     */
    void
    refill()
    {
        while (!overflow.empty()) {
            if (!tryEnqueue(std::move(overflow.front())))
                return;
            overflow.pop_front();
        }
    }

    /** Accept @p msg into a buffer slot; false (a reject) when full. */
    bool
    tryEnqueue(Message &&msg)
    {
        if (full()) {
            bufStats.fullRejects += 1;
            return false;
        }
        msg.createdAt = queue.now();
        bufStats.enqueued += 1;
        if (bypassEnabled && msg.bypassEligible && !waiting.empty()) {
            bufStats.bypasses += 1;
            bufStats.messagesJumped += waiting.size();
            waiting.push_front(std::move(msg));
        } else {
            waiting.push_back(std::move(msg));
        }
        pump();
        return true;
    }

    /**
     * Arrange for the head message to start draining once the link frees.
     * The head keeps its buffer slot until its drain actually starts, so a
     * bypass-eligible arrival can still jump in front of it meanwhile.
     */
    void
    pump()
    {
        if (pumping || waiting.empty())
            return;
        pumping = true;
        const Tick start = std::max(queue.now(), linkFree);
        queue.schedule(
            start, [this]() { drainHead(); }, EventQueue::prioDeliver);
    }

    /** Move the current head onto the buffer-to-network link. */
    void
    drainHead()
    {
        Message msg = std::move(waiting.front());
        waiting.pop_front();
        const Tick now = queue.now();
        bufStats.residencyCycles += now - msg.createdAt;
        linkFree = now + msg.flits();
        // Head flit reaches the stage-0 switch one cycle after the message
        // starts on the buffer-to-network link.
        queue.schedule(
            now + 1,
            [this, m = std::move(msg)]() mutable {
                network.inject(std::move(m));
            },
            EventQueue::prioDeliver);
        pumping = false;
        refill();
        pump();
    }

    EventQueue &queue;
    OmegaNetwork<Payload> &network;
    unsigned cap;
    bool bypassEnabled;
    std::deque<Message> waiting;   ///< the buffer slots, head first
    std::deque<Message> overflow;  ///< messages the buffer had no slot for
    Tick linkFree = 0;
    bool pumping = false;
    BufferStats bufStats;
};

} // namespace mcsim::net

#endif // MCSIM_NET_IFACE_BUFFER_HH
