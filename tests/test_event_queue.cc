/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities,
 * determinism, and time-window execution, plus a differential test of
 * the calendar-ring kernel against a plain (tick, priority, seq) heap.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace mcsim;

namespace
{

/** Heap allocations made by this binary (see the operator new below). */
std::atomic<std::uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    ++allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler does not pair an inlined free() with an
// operator new call site and warn about a mismatch.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&, i]() { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityOrdersWithinTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(2); }, EventQueue::prioCpu);
    q.schedule(5, [&]() { order.push_back(1); }, EventQueue::prioDeliver);
    q.schedule(5, [&]() { order.push_back(3); }, EventQueue::prioCpu + 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ReentrantSchedulingFromCallback)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&]() {
        ++fired;
        q.schedule(2, [&]() { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, SameTickReentrantRunsThisTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(7, [&]() {
        order.push_back(1);
        q.schedule(7, [&]() { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 7u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(20, [&]() { ++fired; });
    q.schedule(21, [&]() { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunMaxEventsGuard)
{
    EventQueue q;
    // A self-perpetuating event chain.
    std::function<void()> again = [&]() { q.scheduleIn(1, again); };
    q.scheduleIn(1, again);
    EXPECT_EQ(q.run(1000), 1000u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Tick>(i), []() {});
    q.run();
    EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, []() {});
    q.run();
    EXPECT_DEATH(q.schedule(5, []() {}), "past");
}

TEST(EventQueue, DeterministicInterleaving)
{
    // Two identical runs execute identical event sequences.
    auto run_once = []() {
        EventQueue q;
        std::vector<int> order;
        for (int i = 0; i < 50; ++i) {
            q.schedule(static_cast<Tick>(i % 7), [&order, i]() {
                order.push_back(i);
            });
        }
        q.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueue, FarEventPrecedesLaterScheduleAtSameTick)
{
    // Events beyond the ring window wait in a heap; they must still run
    // before same-tick, same-priority events scheduled after them.
    EventQueue q;
    std::vector<int> order;
    const Tick t = 3 * EventQueue::ringTicks;
    q.schedule(t, [&]() { order.push_back(1); });
    q.schedule(t, [&]() { order.push_back(4); }, EventQueue::prioCpu);
    q.schedule(t - EventQueue::ringTicks + 1, [&]() {
        // t is now exactly at the window's far edge - 1: a ring insert.
        q.schedule(t, [&]() { order.push_back(2); });
        q.schedule(t, [&]() { order.push_back(0); },
                   EventQueue::prioDeliver);
        q.schedule(t, [&]() { order.push_back(3); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.now(), t);
}

TEST(EventQueue, SameTickLowerPriorityReentrantRunsNext)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(4, [&]() {
        order.push_back(1);
        q.schedule(4, [&]() { order.push_back(3); }, EventQueue::prioCpu);
        q.schedule(4, [&]() { order.push_back(2); });
    }, EventQueue::prioCpu);
    q.schedule(4, [&]() { order.push_back(4); }, EventQueue::prioCpu);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(EventQueue, MoveOnlyCapture)
{
    EventQueue q;
    int seen = 0;
    auto box = std::make_unique<int>(42);
    q.schedule(3, [&seen, b = std::move(box)]() { seen = *b; });
    q.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, NonTriviallyCopyableCaptureSurvivesPoolGrowth)
{
    // Each queued event holds a std::string and a shared_ptr. Hundreds of
    // them force the node pool to reallocate (relocating every capture),
    // and events still pending when the queue dies must be destroyed.
    auto token = std::make_shared<int>(0);
    std::string log;
    {
        EventQueue q;
        for (int i = 0; i < 300; ++i) {
            q.schedule(static_cast<Tick>(i % 40),
                       [&log, token, s = std::string(1, char('a' + i % 26))]() {
                           log += s;
                       });
        }
        q.schedule(1000, [token]() {});
        EXPECT_EQ(token.use_count(), 302);
        q.runUntil(999);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
    std::string expect;
    for (int tick = 0; tick < 40; ++tick)
        for (int i = tick; i < 300; i += 40)
            expect += char('a' + i % 26);
    EXPECT_EQ(log, expect);
}

TEST(EventQueue, NoHeapAllocationOncePoolReachesPeak)
{
    // Eight self-rescheduling actors, delays on both sides of the ring
    // window: after a warm-up that grows the pool and the far heap to
    // their peak, scheduling and running allocate nothing.
    EventQueue q;
    Rng rng(7);
    struct Actor
    {
        EventQueue *q;
        Rng *rng;
        void
        operator()() const
        {
            const Tick delay = 1 + rng->below(2 * EventQueue::ringTicks);
            q->scheduleIn(delay, *this, static_cast<int>(delay % 3));
        }
    };
    for (int i = 0; i < 8; ++i)
        q.scheduleIn(1, Actor{&q, &rng});
    q.run(20000);
    const std::uint64_t before = allocations.load();
    q.run(20000);
    EXPECT_EQ(allocations.load(), before);
    EXPECT_EQ(q.pending(), 8u);
}

namespace
{

/** The kernel's contract, written as plainly as possible. */
class ReferenceQueue
{
  public:
    Tick now() const { return curTick; }
    std::size_t pending() const { return events.size(); }
    bool empty() const { return events.empty(); }

    void
    schedule(Tick when, std::function<void()> cb, int priority)
    {
        ASSERT_GE(when, curTick);
        events.push(Event{when, priority, nextSeq++, std::move(cb)});
    }

    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t count = 0;
        while (!events.empty() && events.top().when <= limit) {
            runTop();
            ++count;
        }
        if (curTick < limit && events.empty())
            curTick = limit;
        return count;
    }

    std::uint64_t
    run(std::uint64_t maxEvents)
    {
        std::uint64_t count = 0;
        while (!events.empty() && count < maxEvents) {
            runTop();
            ++count;
        }
        return count;
    }

  private:
    struct Event
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::function<void()> cb;

        bool
        operator>(const Event &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return seq > o.seq;
        }
    };

    void
    runTop()
    {
        Event ev = events.top();
        events.pop();
        curTick = ev.when;
        ev.cb();
    }

    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
};

/**
 * One seeded random script of schedule / run(maxEvents) / runUntil calls.
 * Every event logs its id and tick; what an event schedules in turn is a
 * function of its id alone, so both kernels see the same program.
 */
template <typename Queue>
class Script
{
  public:
    explicit Script(std::uint64_t seed) : seed(seed), rng(seed) {}

    std::vector<std::uint64_t>
    play()
    {
        for (int step = 0; step < 400; ++step) {
            switch (rng.below(4)) {
              case 0:
                for (std::uint64_t n = rng.below(4) + 1; n > 0; --n)
                    add(rng);
                break;
              case 1:
                note(q.run(rng.below(12)));
                break;
              case 2:
                note(q.runUntil(q.now() + rng.below(3 * 256)));
                break;
              default:
                // Idle advance: only moves now() on an empty queue.
                note(q.runUntil(q.now() + rng.below(8)));
                break;
            }
        }
        note(q.run(~std::uint64_t(0)));
        return log;
    }

  private:
    void
    note(std::uint64_t ran)
    {
        log.push_back(~std::uint64_t(0));
        log.push_back(ran);
        log.push_back(q.now());
        log.push_back(q.pending());
    }

    static Tick
    delay(Rng &r)
    {
        // Both sides of the ring window, and exactly at its edges.
        static const Tick edges[] = {0,   1,   2,   255, 256,
                                     257, 511, 512, 513, 1024};
        const std::uint64_t pick = r.below(16);
        if (pick < std::size(edges))
            return edges[pick];
        return r.below(pick < 13 ? 64 : 3000);
    }

    static int
    priority(Rng &r)
    {
        static const int prios[] = {EventQueue::prioDeliver, -1,
                                    EventQueue::prioDefault, 1,
                                    EventQueue::prioCpu};
        return prios[r.below(std::size(prios))];
    }

    void
    add(Rng &r)
    {
        const std::uint64_t id = nextId++;
        q.schedule(q.now() + delay(r), [this, id]() { fire(id); },
                   priority(r));
    }

    void
    fire(std::uint64_t id)
    {
        log.push_back(id);
        log.push_back(q.now());
        if (nextId > 3000)
            return;
        // Children, including same-tick ones at a lower priority.
        Rng r(splitmix64(seed ^ id));
        for (std::uint64_t n = r.below(3); n > 0; --n)
            add(r);
    }

    std::uint64_t seed;
    Rng rng;
    Queue q;
    std::uint64_t nextId = 0;
    std::vector<std::uint64_t> log;
};

} // namespace

TEST(EventQueue, MatchesReferenceHeapOnRandomScripts)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const auto expect = Script<ReferenceQueue>(seed).play();
        const auto actual = Script<EventQueue>(seed).play();
        ASSERT_EQ(actual, expect) << "seed " << seed;
    }
}
