#include "sim/event_queue.hh"

#include "common/host_prof.hh"

namespace snap
{

Event::~Event()
{
    snap_assert(!scheduled(),
                "event '%s' destroyed while scheduled",
                name_.c_str());
}

void
EventQueue::schedule(Event *event, Tick when)
{
    hostprof::Scope hp(hostprof::Phase::Queue);
    snap_assert(event != nullptr, "scheduling null event");
    snap_assert(!event->scheduled(),
                "event '%s' already scheduled",
                event->name().c_str());
    snap_assert(when >= curTick_,
                "event '%s' scheduled in the past (%llu < %llu)",
                event->name().c_str(),
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(curTick_));

    // The wire/normal class rides in the sequence number's top bit
    // (wire = 0), so wire-class events order ahead of every same-tick
    // normal event without widening the key.
    event->when_ = when;
    const std::uint64_t seq =
        nextSeq_++ | (event->wireClass_ ? 0 : normalClassBit);
    heap_.push_back(Entry{when, seq, event});
    siftUp(heap_.size() - 1, heap_.back());
}

void
EventQueue::deschedule(Event *event)
{
    snap_assert(event != nullptr && event->scheduled(),
                "descheduling an unscheduled event");
    hostprof::Scope hp(hostprof::Phase::Queue);
    removeAt(event->heapIdx_);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    snap_assert(event != nullptr, "rescheduling null event");
    if (event->scheduled())
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::siftUp(std::size_t i, Entry e)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!e.before(heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void
EventQueue::removeAt(std::size_t i)
{
    heap_[i].event->heapIdx_ = Event::notQueued;
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (i == n)
        return;
    // Walk the hole down to a leaf along the smaller children, then
    // sift the last entry up from there: one compare per level on
    // the way down, and the last entry (usually among the latest)
    // rarely climbs far.
    for (std::size_t child; (child = 2 * i + 1) < n; i = child) {
        if (child + 1 < n && heap_[child + 1].before(heap_[child]))
            ++child;
        place(i, heap_[child]);
    }
    siftUp(i, last);
}

void
EventQueue::fireNext()
{
    hostprof::Scope hpq(hostprof::Phase::Queue);
    const Entry head = heap_.front();
    removeAt(0);
    snap_assert(head.when >= curTick_, "time went backwards");
    curTick_ = head.when;
    ++processed_;

    hostprof::Scope hpd(hostprof::Phase::Dispatch);
    head.event->process();
}

void
EventQueue::advanceTo(Tick t)
{
    if (t <= curTick_)
        return;
    snap_assert(heap_.empty() || t <= heap_.front().when,
                "advanceTo(%llu) past a pending event at %llu",
                static_cast<unsigned long long>(t),
                static_cast<unsigned long long>(heap_.front().when));
    curTick_ = t;
}

void
EventQueue::clearPending()
{
    for (const Entry &e : heap_)
        e.event->heapIdx_ = Event::notQueued;
    heap_.clear();
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t fired = 0;
    for (; !heap_.empty(); ++fired)
        fireNext();
    return fired;
}

std::uint64_t
EventQueue::runBefore(Tick limit)
{
    std::uint64_t fired = 0;
    for (; !heap_.empty() && heap_.front().when < limit; ++fired)
        fireNext();
    return fired;
}

} // namespace snap
