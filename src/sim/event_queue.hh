/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered event queue drives the whole SNAP-1 machine
 * model.  Ticks are picoseconds.  Events scheduled for the same tick
 * fire in FIFO scheduling order (a monotonically increasing sequence
 * number breaks ties) so simulations are fully deterministic.
 *
 * Storage is one vector of (when, seq, event) entries kept sorted
 * from a head index.  A pop reads the head entry and steps the index;
 * a schedule scans back from the tail to its place and inserts there
 * (the machine's queue holds about 16 entries, and most schedules
 * land a few entries from the tail); a deschedule finds its entry by
 * binary search on the event's own (when, seq).  Nothing in an event
 * moves with its entry.  Firing order is a strict total order on
 * (when, seq), so it is exact by construction.
 */

#ifndef SNAP_SIM_EVENT_QUEUE_HH
#define SNAP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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
    bool scheduled() const { return seq_ != notQueued; }

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

    static constexpr std::uint64_t notQueued = ~std::uint64_t{0};

    std::string name_;
    Tick when_ = 0;
    /** The queue's sequence key (class bit included); notQueued while
     *  unscheduled.  (when_, seq_) finds the event's entry. */
    std::uint64_t seq_ = notQueued;
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
 * The global event queue.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p event at absolute tick @p when (>= curTick). */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /** Deschedule (if needed) and schedule at a new tick; the event
     *  takes a fresh sequence number, like any new schedule. */
    void reschedule(Event *event, Tick when);

    /** True when no events remain. */
    bool empty() const { return head_ == run_.size(); }

    /** Number of scheduled events. */
    std::size_t numScheduled() const { return run_.size() - head_; }

    /** Run until the queue drains.  @return events processed. */
    std::uint64_t run();

    /**
     * Run every event strictly before @p limit (events at exactly
     * @p limit do NOT fire).  The machine's fault watchdog runs one
     * step of its check grid this way.  curTick() is left at the last
     * processed event, not advanced to @p limit.
     * @return events processed.
     */
    std::uint64_t runBefore(Tick limit);

    /**
     * Move simulated time forward to @p t without firing anything (a
     * no-op when @p t is not later).  No pending event may lie before
     * @p t.  The machine's slot releases are points in simulated time
     * that are not events; this is how the clock reaches them.
     */
    void advanceTo(Tick t);

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick
    nextEventTick() const
    {
        return empty() ? maxTick : run_[head_].when;
    }

    /**
     * Discard every pending event without firing it; the events are
     * left unscheduled (safe to destroy or reschedule).  Simulated
     * time does not move.  Used to abort a wedged machine run before
     * the component graph is rebuilt.
     */
    void clearPending();

    /** Total events processed over the queue's lifetime. */
    std::uint64_t eventsProcessed() const { return processed_; }

  private:
    /** Queue entry: the sort key sits beside the event pointer so
     *  the scans compare without touching the events. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;

        bool
        before(const Entry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Event-class bit folded into the (when, seq) sort key: clear
     *  for wire-class events, set for normal ones, so wire events
     *  sort first within a tick and FIFO order holds within each
     *  class.  nextSeq_ (one per schedule) stays far below
     *  2^63 - 1, so no key equals Event::notQueued. */
    static constexpr std::uint64_t normalClassBit = 1ull << 63;

    /** The consumed prefix is erased once the head index reaches
     *  this and at least half the vector. */
    static constexpr std::size_t compactFrom = 64;

    /** Pop the earliest event and fire it.  Pre: !empty(). */
    void fireNext();

    /** Pending entries are run_[head_, size()), sorted by (when, seq);
     *  the slots before head_ are consumed. */
    std::vector<Entry> run_;
    std::size_t head_ = 0;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace snap

#endif // SNAP_SIM_EVENT_QUEUE_HH
