/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered event queue drives the whole SNAP-1 machine
 * model.  Ticks are picoseconds.  Events scheduled for the same tick
 * fire in FIFO scheduling order (a monotonically increasing sequence
 * number breaks ties) so simulations are fully deterministic.
 *
 * Storage is one indexed binary min-heap over the (when, seq) key.
 * Each scheduled event knows its heap slot, so deschedule removes it
 * in place and the heap only ever holds live events.  Firing order is
 * a strict total order on (when, seq), so it is exact by
 * construction.
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
    bool scheduled() const { return heapIdx_ != notQueued; }

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

    static constexpr std::size_t notQueued = ~std::size_t{0};

    std::string name_;
    Tick when_ = 0;
    /** Slot in the queue's heap; notQueued while unscheduled. */
    std::size_t heapIdx_ = notQueued;
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
    bool empty() const { return heap_.empty(); }

    /** Number of scheduled events. */
    std::size_t numScheduled() const { return heap_.size(); }

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
        return heap_.empty() ? maxTick : heap_.front().when;
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
    /** Heap entry: the sort key sits beside the event pointer so
     *  sifting compares without touching the events. */
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
     *  class.  nextSeq_ can never reach bit 63. */
    static constexpr std::uint64_t normalClassBit = 1ull << 63;

    /** Write @p e into slot @p i and tell its event where it is. */
    void
    place(std::size_t i, const Entry &e)
    {
        heap_[i] = e;
        e.event->heapIdx_ = i;
    }

    void siftUp(std::size_t i, Entry e);
    /** Remove the entry at slot @p i and unschedule its event. */
    void removeAt(std::size_t i);
    /** Pop the earliest event and fire it.  Pre: !empty(). */
    void fireNext();

    std::vector<Entry> heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace snap

#endif // SNAP_SIM_EVENT_QUEUE_HH
