#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mcsim
{

namespace
{

constexpr Tick ringMask = EventQueue::ringTicks - 1;

} // namespace

std::uint32_t
EventQueue::allocNode(Callback &&cb, int priority)
{
    std::uint32_t idx = freeList;
    if (idx != nil) {
        freeList = pool[idx].next;
        pool[idx].cb = std::move(cb);
        pool[idx].priority = priority;
    } else {
        idx = static_cast<std::uint32_t>(pool.size());
        pool.push_back(Node{std::move(cb), priority, nil});
    }
    return idx;
}

void
EventQueue::insertRing(Tick when, std::uint32_t idx)
{
    const unsigned b = static_cast<unsigned>(when & ringMask);
    const std::uint64_t bit = std::uint64_t(1) << (b & 63);
    Bucket &bucket = ring[b];
    Node &node = pool[idx];
    node.next = nil;
    ++ringCount;
    if (!(occupied[b >> 6] & bit)) {
        occupied[b >> 6] |= bit;
        bucket.head = bucket.tail = idx;
        return;
    }
    // The node goes after every queued node whose priority is <= its own:
    // usually a tail append, but a same-tick schedule at a lower priority
    // (e.g. a delivery from inside a cpu callback) lands mid-list.
    const int prio = node.priority;
    if (pool[bucket.tail].priority <= prio) {
        pool[bucket.tail].next = idx;
        bucket.tail = idx;
        return;
    }
    if (prio < pool[bucket.head].priority) {
        node.next = bucket.head;
        bucket.head = idx;
        return;
    }
    std::uint32_t prev = bucket.head;
    while (pool[pool[prev].next].priority <= prio)
        prev = pool[prev].next;
    node.next = pool[prev].next;
    pool[prev].next = idx;
}

void
EventQueue::migrateFar()
{
    // Runs whenever now() advances, before any callback of the new tick:
    // a far event for tick T thus reaches T's bucket before any direct
    // schedule at T can, which keeps FIFO-within-priority exact.
    while (!far.empty() && far.front().when - curTick_ < ringTicks) {
        std::pop_heap(far.begin(), far.end(), Far::later);
        insertRing(far.back().when, far.back().node);
        far.pop_back();
    }
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    if (when < curTick_) {
        panic("event scheduled in the past (when=%llu, now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    }
    const std::uint32_t idx = allocNode(std::move(cb), priority);
    if (when - curTick_ < ringTicks) {
        insertRing(when, idx);
        return;
    }
    far.push_back(Far{when, nextSeq++, idx});
    std::push_heap(far.begin(), far.end(), Far::later);
}

unsigned
EventQueue::firstOccupied() const
{
    // The ring holds [now, now + ringTicks), so the first set bit at or
    // cyclically after now's slot is the earliest queued tick.
    const unsigned start = static_cast<unsigned>(curTick_ & ringMask);
    unsigned w = start >> 6;
    std::uint64_t bits = occupied[w] & (~std::uint64_t(0) << (start & 63));
    for (unsigned i = 0; i < ringWords; ++i) {
        if (bits)
            return (w << 6) | static_cast<unsigned>(std::countr_zero(bits));
        w = (w + 1) % ringWords;
        bits = occupied[w];
    }
    // Wrapped back to the start word: only slots before `start` remain.
    return (w << 6) | static_cast<unsigned>(std::countr_zero(bits));
}

bool
EventQueue::runOne(Tick limit)
{
    if (ringCount == 0) {
        if (far.empty() || far.front().when > limit)
            return false;
        curTick_ = far.front().when;
        migrateFar();
    }
    const unsigned b = firstOccupied();
    const Tick when = curTick_ + ((b - curTick_) & ringMask);
    if (when > limit)
        return false;
    if (when != curTick_) {
        curTick_ = when;
        migrateFar();
    }

    Bucket &bucket = ring[b];
    const std::uint32_t idx = bucket.head;
    Node &node = pool[idx];
    if (idx == bucket.tail)
        occupied[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
    else
        bucket.head = node.next;
    --ringCount;
    // Move the callback out and free its node first: the callback may
    // schedule, and a pool that grows relocates every node.
    Callback cb = std::move(node.cb);
    node.next = freeList;
    freeList = idx;
    cb();
    ++numExecuted;
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (runOne(limit))
        ++count;
    if (curTick_ < limit && empty())
        curTick_ = limit;
    return count;
}

std::uint64_t
EventQueue::run(std::uint64_t maxEvents)
{
    std::uint64_t count = 0;
    while (count < maxEvents && runOne(maxTick))
        ++count;
    return count;
}

} // namespace mcsim
