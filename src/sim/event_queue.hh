/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events are ordered by (tick, priority, insertion sequence), so two runs of
 * the same configuration always execute events in the same order; the paper's
 * methodology depends on run-to-run reproducibility for everything except
 * Qsort's intrinsic dynamic-scheduling variability.
 *
 * The kernel is a calendar ring of ringTicks one-tick buckets covering
 * [now, now + ringTicks), plus a heap for events beyond that window. See
 * DESIGN.md section 3, "The event kernel", for the ordering argument.
 */

#ifndef MCSIM_SIM_EVENT_QUEUE_HH
#define MCSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace mcsim
{

/**
 * Discrete-event simulation kernel.
 *
 * Components schedule closures at absolute ticks. Scheduling in the past is a
 * simulator bug (panic). Within a tick, lower priority values run first and
 * ties preserve insertion order.
 */
class EventQueue
{
  public:
    /**
     * A move-only callable stored inline, never on the heap. A capture
     * larger than @ref capacity is a compile error: raise the capacity
     * (it sizes every queued event) or capture less.
     */
    class Callback
    {
      public:
        /** Sized to the largest hot capture: the Omega network hop. */
        static constexpr std::size_t capacity = 72;

        template <typename F,
                  typename Fn = std::decay_t<F>,
                  typename = std::enable_if_t<
                      !std::is_same_v<Fn, Callback> &&
                      std::is_invocable_r_v<void, Fn &>>>
        Callback(F &&f)  // NOLINT(google-explicit-constructor)
        {
            static_assert(sizeof(Fn) <= capacity,
                          "event capture exceeds Callback::capacity");
            static_assert(alignof(Fn) <= alignof(void *),
                          "event capture is over-aligned");
            static_assert(std::is_nothrow_move_constructible_v<Fn>,
                          "event capture must be nothrow-movable");
            ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
            invoke = [](void *s) { (*static_cast<Fn *>(s))(); };
            if constexpr (!std::is_trivially_copyable_v<Fn>)
                manage = &manageImpl<Fn>;
        }

        Callback(Callback &&other) noexcept { take(other); }

        Callback &
        operator=(Callback &&other) noexcept
        {
            if (this != &other) {
                reset();
                take(other);
            }
            return *this;
        }

        Callback(const Callback &) = delete;
        Callback &operator=(const Callback &) = delete;

        ~Callback() { reset(); }

        void operator()() { invoke(storage); }

      private:
        /** Relocates (src non-null) or destroys a non-trivial capture. */
        using Manage = void (*)(void *dst, void *src);

        template <typename Fn>
        static void
        manageImpl(void *dst, void *src)
        {
            if (src) {
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            } else {
                static_cast<Fn *>(dst)->~Fn();
            }
        }

        void
        take(Callback &other)
        {
            invoke = other.invoke;
            manage = other.manage;
            if (manage)
                manage(storage, other.storage);
            else if (invoke)
                std::memcpy(storage, other.storage, capacity);
            other.invoke = nullptr;
            other.manage = nullptr;
        }

        void
        reset()
        {
            if (manage)
                manage(storage, nullptr);
            invoke = nullptr;
            manage = nullptr;
        }

        alignas(void *) unsigned char storage[capacity];
        void (*invoke)(void *) = nullptr;
        Manage manage = nullptr;
    };

    /** Well-known intra-tick priorities (lower runs first). */
    enum Priority : int
    {
        prioDeliver = -10,  ///< message deliveries / component state updates
        prioDefault = 0,    ///< ordinary events
        prioCpu = 10,       ///< processor resumption (sees this tick's state)
    };

    /** Ticks the calendar ring covers; later events wait in a heap. */
    static constexpr Tick ringTicks = 256;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /** Number of events not yet executed. */
    std::size_t pending() const { return ringCount + far.size(); }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @param when absolute tick; must be >= now()
     * @param cb the closure to execute
     * @param priority intra-tick ordering; lower runs first
     */
    void schedule(Tick when, Callback cb, int priority = prioDefault);

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb, int priority = prioDefault)
    {
        schedule(curTick_ + delta, std::move(cb), priority);
    }

    /**
     * Execute events until the queue is empty or time would exceed
     * @p limit. Events scheduled exactly at @p limit are executed.
     * @return number of events executed by this call
     */
    std::uint64_t runUntil(Tick limit);

    /** Execute all events (or up to @p maxEvents as a runaway guard). */
    std::uint64_t run(std::uint64_t maxEvents = ~std::uint64_t(0));

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);
    static constexpr unsigned ringWords = ringTicks / 64;

    /** A pooled event; `next` links a bucket list or the free list. */
    struct Node
    {
        Callback cb;
        int priority = 0;
        std::uint32_t next = nil;
    };

    /** One tick of the ring; meaningful only while its bit is set. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /**
     * An event beyond the ring window, heap-ordered on (when, seq). The
     * priority order is restored by insertRing() when it migrates.
     */
    struct Far
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t node;

        /** Heap comparator: true when @p a migrates after @p b. */
        static bool
        later(const Far &a, const Far &b)
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    std::uint32_t allocNode(Callback &&cb, int priority);
    void insertRing(Tick when, std::uint32_t idx);
    void migrateFar();
    unsigned firstOccupied() const;
    bool runOne(Tick limit);

    std::vector<Node> pool;
    std::uint32_t freeList = nil;
    std::array<Bucket, ringTicks> ring{};
    std::array<std::uint64_t, ringWords> occupied{};
    std::size_t ringCount = 0;
    std::vector<Far> far;
    Tick curTick_ = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

} // namespace mcsim

#endif // MCSIM_SIM_EVENT_QUEUE_HH
