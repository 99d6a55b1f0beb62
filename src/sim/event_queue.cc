#include "sim/event_queue.hh"

#include <algorithm>

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
    const Entry e{when,
                  nextSeq_++ | (event->wireClass_ ? 0 : normalClassBit),
                  event};
    event->when_ = when;
    event->seq_ = e.seq;

    if (head_ >= compactFrom && 2 * head_ >= run_.size()) {
        run_.erase(run_.begin(),
                   run_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    // A new event is usually among the latest: scan back from the
    // tail to the first entry that fires before it.
    std::size_t i = run_.size();
    while (i != head_ && e.before(run_[i - 1]))
        --i;
    if (i == head_ && head_ != 0)
        run_[--head_] = e;  // ahead of every pending event: reuse a slot
    else
        run_.insert(run_.begin() + static_cast<std::ptrdiff_t>(i), e);
}

void
EventQueue::deschedule(Event *event)
{
    snap_assert(event != nullptr && event->scheduled(),
                "descheduling an unscheduled event");
    hostprof::Scope hp(hostprof::Phase::Queue);
    const Entry key{event->when_, event->seq_, event};
    const auto it = std::lower_bound(
        run_.begin() + static_cast<std::ptrdiff_t>(head_), run_.end(),
        key, [](const Entry &a, const Entry &b) { return a.before(b); });
    snap_assert(it != run_.end() && it->event == event,
                "event '%s' missing from the queue",
                event->name().c_str());
    run_.erase(it);
    event->seq_ = Event::notQueued;
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
EventQueue::fireNext()
{
    hostprof::Scope hpq(hostprof::Phase::Queue);
    const Entry head = run_[head_];
    if (++head_ == run_.size()) {
        run_.clear();
        head_ = 0;
    }
    head.event->seq_ = Event::notQueued;
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
    snap_assert(empty() || t <= run_[head_].when,
                "advanceTo(%llu) past a pending event at %llu",
                static_cast<unsigned long long>(t),
                static_cast<unsigned long long>(run_[head_].when));
    curTick_ = t;
}

void
EventQueue::clearPending()
{
    for (std::size_t i = head_; i < run_.size(); ++i)
        run_[i].event->seq_ = Event::notQueued;
    run_.clear();
    head_ = 0;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t fired = 0;
    for (; !empty(); ++fired)
        fireNext();
    return fired;
}

std::uint64_t
EventQueue::runBefore(Tick limit)
{
    std::uint64_t fired = 0;
    for (; !empty() && run_[head_].when < limit; ++fired)
        fireNext();
    return fired;
}

} // namespace snap
