/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered event queue drives the whole SNAP-1 machine
 * model.  Ticks are picoseconds.  Events scheduled for the same tick
 * fire in FIFO scheduling order (a monotonically increasing sequence
 * number breaks ties) so simulations are fully deterministic.
 *
 * Storage is a two-level queue.  Near-future events — within ~17
 * simulated microseconds of now, which covers most periodic machine
 * events — live in a ring of time-indexed buckets addressed by
 * `when >> bucketShift`, giving O(1) schedule and amortized O(1) pop
 * for the common same-cycle / next-cycle cases.  Far-future events
 * overflow into a binary heap and are compared against the ring head
 * at pop time, so ordering stays exact.  One-shot callbacks come from
 * an internal free-list pool with inline callable storage; after
 * warm-up the steady state performs no per-event allocation of any
 * kind.
 *
 * Descheduling is lazy: the event is marked unscheduled and its stale
 * queue entry is discarded when it surfaces.  A descheduled pooled
 * one-shot is recycled at once (its seq check rejects the stale
 * entry).
 */

#ifndef SNAP_SIM_EVENT_QUEUE_HH
#define SNAP_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/host_prof.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace snap
{

class EventQueue;

/**
 * Schedulable event.  Components own their events as members
 * (typically via EventFunctionWrapper) and reschedule them.
 */
class Event
{
  public:
    explicit Event(std::string name = "event")
        : name_(std::move(name))
    {}

    virtual ~Event();

    /** Callback invoked when the event fires. */
    virtual void process() = 0;

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick the event is scheduled for (valid while scheduled). */
    Tick when() const { return when_; }

    const std::string &name() const { return name_; }

    /**
     * Mark this event as wire class: at any given tick, wire-class
     * events fire before every normal event scheduled for the same
     * tick, regardless of scheduling order.  The machine's wire
     * delivery pumps use this so staged arrivals apply ahead of
     * same-tick local work — part of the canonical apply order the
     * machine goldens pin.
     */
    void setWireClass() { wireClass_ = true; }
    bool isWireClass() const { return wireClass_; }

  private:
    friend class EventQueue;

    std::string name_;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    bool scheduled_ = false;
    /** A one-shot owned by the queue's callback pool: recycled after
     *  firing or a deschedule, never freed individually.  Callers
     *  must not touch one once it has been handed to the queue. */
    bool pooled_ = false;
    /** Pooled event currently parked on the free list. */
    bool inFreeList_ = false;
    /** Fires ahead of same-tick normal events (see setWireClass). */
    bool wireClass_ = false;
};

/** Event that invokes a bound std::function. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> fn, std::string name)
        : Event(std::move(name)), fn_(std::move(fn))
    {}

    void process() override { fn_(); }

  private:
    std::function<void()> fn_;
};

/**
 * Schedule-trace instrumentation for bench/host_perf: the recorded
 * (delta, fanout) stream lets a replay reproduce a workload's exact
 * event arrival pattern through a bare queue.
 */
struct ScheduleTrace
{
    /** when - curTick for every schedule() call, in call order. */
    std::vector<Tick> deltas;
    /** schedule() calls made while each fired event ran. */
    std::vector<std::uint32_t> fanout;
    /** schedule() calls made before the first event fired. */
    std::uint32_t preRun = 0;
};

/**
 * The global event queue.
 */
class EventQueue
{
  public:
    EventQueue() { occ_.fill(0); }
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p event at absolute tick @p when (>= curTick). */
    void schedule(Event *event, Tick when);

    /**
     * Remove a scheduled event from the queue.  A pooled one-shot is
     * recycled immediately; the caller must not use it afterwards.
     */
    void deschedule(Event *event);

    /** Deschedule (if needed) and schedule at a new tick.  Not valid
     *  for pooled one-shots (the queue reclaims those). */
    void reschedule(Event *event, Tick when);

    /**
     * Convenience: schedule a one-shot callback.  The wrapper comes
     * from an internal free-list pool and stores the callable inline,
     * so steady-state operation allocates nothing.  Pooled wrappers
     * are all named "callback".
     */
    template <typename F>
    void
    scheduleCallback(Tick when, F &&fn)
    {
        PooledCallback *cb = acquireCallback();
        cb->assign(std::forward<F>(fn));
        scheduleImpl(cb, when);
    }

    /** True when no events remain. */
    bool empty() const { return live_ != 0 ? false : true; }

    /** Number of live (scheduled) events. */
    std::size_t numScheduled() const { return live_; }

    /**
     * Run until the queue drains or @p max_events fire.
     * @return number of events processed.
     */
    std::uint64_t run(std::uint64_t max_events = ~0ull);

    /**
     * Run until simulated time would exceed @p until (events at
     * exactly @p until still fire).  @return events processed.
     */
    std::uint64_t runUntil(Tick until);

    /**
     * Run every event strictly before @p limit (events at exactly
     * @p limit do NOT fire).  The machine's fault watchdog runs one
     * step of its check grid this way.  curTick() is left at the last
     * processed event, not advanced to @p limit.
     * @return events processed.
     */
    std::uint64_t runBefore(Tick limit);

    /** Tick of the earliest pending event (maxTick when empty).
     *  Prunes lazily-descheduled entries while looking. */
    Tick
    nextEventTick()
    {
        if (live_ == 0)
            return maxTick;
        Head head = findHead();
        return head.valid ? head.when : maxTick;
    }

    /**
     * Discard every pending event without firing it.  Pooled one-shots
     * return to the free list, component-owned events are left
     * unscheduled (safe to destroy or reschedule).  Simulated time
     * does not move.  Used to abort a wedged machine run before the
     * component graph is rebuilt.
     */
    void clearPending();

    /** Total events processed over the queue's lifetime. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /** Record every schedule into @p trace (nullptr stops). */
    void recordTrace(ScheduleTrace *trace) { trace_ = trace; }

    // --- callback-pool statistics ---------------------------------------

    /** One-shot wrappers ever heap-allocated (pool growth). */
    std::uint64_t callbackPoolAllocated() const { return poolAllocs_; }
    /** scheduleCallback calls served from the free list. */
    std::uint64_t callbackPoolReused() const { return poolReuses_; }
    /** Wrappers currently parked on the free list. */
    std::size_t
    callbackPoolFree() const
    {
        std::size_t n = 0;
        for (PooledCallback *cb = freeHead_; cb;
             cb = cb->nextFree_)
            ++n;
        return n;
    }

  private:
    /**
     * One-shot callback wrapper owned by the queue's pool.  The
     * callable lives in a fixed inline buffer — assigning and firing
     * it never touches the heap, unlike std::function whose capture
     * spills to an allocation past the small-object threshold.
     */
    class PooledCallback : public Event
    {
      public:
        PooledCallback() : Event("callback") {}
        ~PooledCallback() override { reset(); }

        template <typename F>
        void
        assign(F &&fn)
        {
            using Fn = std::decay_t<F>;
            static_assert(sizeof(Fn) <= storeSize,
                          "callback capture exceeds inline storage");
            static_assert(alignof(Fn) <= alignof(std::max_align_t),
                          "callback alignment exceeds inline storage");
            new (store_) Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            // Trivially destructible captures (the common case) leave
            // destroy_ null so recycling skips the indirect call.
            if constexpr (!std::is_trivially_destructible_v<Fn>)
                destroy_ = [](void *p) {
                    static_cast<Fn *>(p)->~Fn();
                };
            else
                destroy_ = nullptr;
        }

        /** Destroy the stored callable (captures released now).
         *  invoke_ is left dangling on purpose: assign() overwrites
         *  it before the wrapper can be scheduled again. */
        void
        reset()
        {
            if (destroy_)
                destroy_(store_);
            destroy_ = nullptr;
        }

        void process() override { invoke_(store_); }

      private:
        friend class EventQueue;

        static constexpr std::size_t storeSize = 64;

        // invoke_ sits ahead of the callable buffer so the dispatch
        // pointer shares a cache line with the Event bookkeeping the
        // queue just touched.
        void (*invoke_)(void *) = nullptr;
        void (*destroy_)(void *) = nullptr;
        /** Intrusive free-list link (valid while inFreeList_). */
        PooledCallback *nextFree_ = nullptr;
        alignas(std::max_align_t) unsigned char store_[storeSize];
    };

    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    // Ring geometry: 4096 buckets of 2^12 ticks (4.096 ns) each — a
    // 2^24-tick (~16.8 us) near-future window.  Most machine delays
    // (unit cycle costs, one wire hop) land within it; longer delays
    // (multi-hop ICN transfers, barrier timeouts) take the overflow
    // heap, whose cached head tick gates the fast path per bucket.
    // Fine buckets keep each bucket's entry list near-sorted on
    // arrival, so inserts are tail appends or short backward scans;
    // this geometry measured ~15% faster on the fig17 replay than
    // the earlier 4096 x 2^17 window that kept everything ringed.
    /** Event-class bit folded into the (when, seq) sort key: clear
     *  for wire-class events, set for normal ones, so wire events
     *  sort first within a tick and FIFO order holds within each
     *  class.  nextSeq_ can never reach bit 63. */
    static constexpr std::uint64_t normalClassBit = 1ull << 63;

    static constexpr std::uint32_t bucketShift = 12;
    static constexpr std::uint32_t numBuckets = 4096;
    static constexpr std::uint32_t bucketMask = numBuckets - 1;
    static constexpr Tick nearSpan = Tick{numBuckets} << bucketShift;
    static constexpr std::uint32_t noBucket = ~0u;

    /** Time-indexed bucket: entries sorted by (when, seq); the
     *  first drainPos entries have already been consumed. */
    struct Bucket
    {
        std::vector<Entry> entries;
        std::uint32_t drainPos = 0;
    };

    /** Where the next event to fire lives. */
    struct Head
    {
        Tick when = 0;
        std::uint32_t bucket = noBucket;  ///< noBucket: heap head
        bool valid = false;
    };

    /** Locate the earliest live entry, pruning stale ones.
     *  Pre: live_ != 0. */
    Head findHead();
    /** Pop the entry found by findHead() and fire it. */
    void serviceHead(const Head &head);

    /** Shared body of schedule(); force-inlined so the pooled
     *  scheduleCallback path compiles to straight-line code. */
    __attribute__((always_inline)) inline void
    scheduleImpl(Event *event, Tick when)
    {
        hostprof::Scope hp(hostprof::Phase::Queue);
        snap_assert(event != nullptr, "scheduling null event");
        snap_assert(!event->scheduled_,
                    "event '%s' already scheduled",
                    event->name().c_str());
        snap_assert(when >= curTick_,
                    "event '%s' scheduled in the past (%llu < %llu)",
                    event->name().c_str(),
                    static_cast<unsigned long long>(when),
                    static_cast<unsigned long long>(curTick_));

        // The sort key is (when, seq); the wire/normal class rides in
        // the sequence number's top bit (wire = 0) so wire-class
        // events order ahead of every same-tick normal event without
        // widening Entry or touching any comparison site.
        event->when_ = when;
        event->seq_ = nextSeq_++ |
                      (event->wireClass_ ? 0 : normalClassBit);
        event->scheduled_ = true;
        ++live_;

        if (trace_) [[unlikely]] {
            trace_->deltas.push_back(when - curTick_);
            if (trace_->fanout.empty())
                ++trace_->preRun;
            else
                ++trace_->fanout.back();
        }

        Entry e{when, event->seq_, event};
        if (when - curTick_ < nearSpan)
            insertRing(e);
        else
            overflow_.push(e);
    }

    void
    insertRing(const Entry &e)
    {
        const std::uint32_t b =
            static_cast<std::uint32_t>(e.when >> bucketShift) &
            bucketMask;
        Bucket &bk = buckets_[b];

        // New entries almost always sort after everything already in
        // the bucket (both time and seq grow), so probe the back.
        if (bk.entries.empty() || bk.entries.back().when < e.when ||
            (bk.entries.back().when == e.when &&
             bk.entries.back().seq < e.seq)) {
            bk.entries.push_back(e);
        } else {
            insertSorted(bk, e);
        }

        ++ringCount_;
        occ_[b >> 6] |= 1ull << (b & 63);
    }
    /** Out-of-order arrival: sorted insert past the drain point. */
    void insertSorted(Bucket &bk, const Entry &e);
    /** First occupied bucket at or after the cursor, in ring order
     *  (cursor .. end, then wrap); noBucket when the ring is empty. */
    std::uint32_t nextOccupied(std::uint32_t cursor) const;
    void resetBucket(std::uint32_t b);

    void recycle(Event *ev);
    /** Pop a wrapper off the free list, growing the pool if empty. */
    PooledCallback *
    acquireCallback()
    {
        PooledCallback *cb = freeHead_;
        if (!cb) [[unlikely]]
            return growPool();
        freeHead_ = cb->nextFree_;
        cb->inFreeList_ = false;
        ++poolReuses_;
        return cb;
    }
    /** Heap-allocate a fresh pooled wrapper (cold path). */
    PooledCallback *growPool();

    bool
    stale(const Entry &e) const
    {
        return !e.event->scheduled_ || e.event->seq_ != e.seq;
    }

    std::array<Bucket, numBuckets> buckets_;
    std::array<std::uint64_t, numBuckets / 64> occ_;
    std::size_t ringCount_ = 0;  ///< entries in the ring, incl. stale

    std::priority_queue<Entry, std::vector<Entry>,
                        std::greater<Entry>> overflow_;

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t live_ = 0;
    /** Stale (lazily descheduled) entries still sitting in the ring
     *  or heap.  Zero lets the pop path skip stale checks outright —
     *  deschedules are rare in machine runs and the common pop is
     *  pure fast path. */
    std::size_t staleEntries_ = 0;

    ScheduleTrace *trace_ = nullptr;

    // Callback pool.  Wrappers are carved out of contiguous chunks —
    // a pool that tracks the queue's high-water mark stays packed in
    // a handful of cache-resident slabs instead of strewn across the
    // heap one allocation per wrapper.
    static constexpr std::size_t poolChunkSize = 64;
    std::vector<std::unique_ptr<PooledCallback[]>> poolChunks_;
    PooledCallback *freeHead_ = nullptr;
    std::uint64_t poolAllocs_ = 0;
    std::uint64_t poolReuses_ = 0;
};

} // namespace snap

#endif // SNAP_SIM_EVENT_QUEUE_HH
