/**
 * @file
 * Tests for the discrete-event kernel: ordering, same-tick FIFO,
 * deschedule/reschedule, horizons, clock advance, and clocked
 * objects.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

namespace snap
{
namespace
{

/** Test-owned one-shot events: at() schedules a fresh wrapper that
 *  lives as long as the helper (a deque never moves its elements,
 *  so a firing event may schedule more). */
class OneShots
{
  public:
    explicit OneShots(EventQueue &eq) : eq_(eq) {}

    void
    at(Tick when, std::function<void()> fn)
    {
        eq_.schedule(&events_.emplace_back(std::move(fn), "oneshot"),
                     when);
    }

  private:
    EventQueue &eq_;
    std::deque<EventFunctionWrapper> events_;
};

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    OneShots shots(eq);
    std::vector<int> order;
    shots.at(30, [&] { order.push_back(3); });
    shots.at(10, [&] { order.push_back(1); });
    shots.at(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    OneShots shots(eq);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        shots.at(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduleEvents)
{
    EventQueue eq;
    OneShots shots(eq);
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            shots.at(eq.curTick() + 7, chain);
    };
    shots.at(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.curTick(), 28u);
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    bool fired = false;
    EventFunctionWrapper ev([&] { fired = true; }, "cancel-me");
    eq.schedule(&ev, 10);
    EXPECT_TRUE(ev.scheduled());
    eq.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.numScheduled(), 0u);

    // Five events share tick 10, one sits at 20 just before a
    // far-future event: cancel the middle, the last and the first of
    // the tick, and the one before the far event.  Exactly those go,
    // and the rest fire in scheduling order.
    std::vector<int> order;
    std::deque<EventFunctionWrapper> evs;
    const Tick at[] = {10, 10, 10, 10, 10, 20, Tick{1} << 40};
    for (int i = 0; i < 7; ++i) {
        eq.schedule(&evs.emplace_back([&, i] { order.push_back(i); },
                                      "shared"),
                    at[i]);
    }
    for (int i : {2, 4, 0, 5}) {
        eq.deschedule(&evs[i]);
        EXPECT_FALSE(evs[i].scheduled()) << "event " << i;
    }
    EXPECT_EQ(eq.numScheduled(), 3u);
    for (int i : {1, 3, 6})
        EXPECT_TRUE(evs[i].scheduled()) << "event " << i;
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 6}));
}

TEST(EventQueue, RescheduleMoves)
{
    EventQueue eq;
    Tick fired_at = 0;
    EventFunctionWrapper ev([&] { fired_at = eq.curTick(); }, "move");
    eq.schedule(&ev, 10);
    eq.reschedule(&ev, 50);
    eq.run();
    EXPECT_EQ(fired_at, 50u);
}

TEST(EventQueue, RunBeforeStopsAtHorizon)
{
    EventQueue eq;
    OneShots shots(eq);
    std::vector<Tick> fired;
    for (Tick t : {5u, 10u, 15u, 20u})
        shots.at(t, [&, t] { fired.push_back(t); });
    EXPECT_EQ(eq.nextEventTick(), 5u);
    // Events at exactly the limit stay pending.
    EXPECT_EQ(eq.runBefore(15), 2u);
    EXPECT_EQ(fired, (std::vector<Tick>{5, 10}));
    EXPECT_EQ(eq.curTick(), 10u);
    EXPECT_EQ(eq.nextEventTick(), 15u);
    // The clock can move up to the next event without firing it, and
    // never moves back.
    eq.advanceTo(15);
    eq.advanceTo(12);
    EXPECT_EQ(eq.curTick(), 15u);
    EXPECT_EQ(fired.size(), 2u);
    eq.run();
    EXPECT_EQ(fired.size(), 4u);
    EXPECT_EQ(eq.nextEventTick(), maxTick);
}

TEST(EventQueue, ClearPendingDropsWithoutFiring)
{
    // Clear after runBefore consumed the head of the queue, so the
    // run's head index is past its first slot.
    EventQueue eq;
    std::vector<std::string> fired;
    EventFunctionWrapper early([&] { fired.push_back("early"); },
                               "early");
    EventFunctionWrapper a([&] { fired.push_back("a"); }, "a");
    EventFunctionWrapper b([&] { fired.push_back("b"); }, "b");
    eq.schedule(&early, 5);
    eq.schedule(&a, 10);
    eq.schedule(&b, Tick{1} << 40);
    EXPECT_EQ(eq.runBefore(10), 1u);
    eq.clearPending();
    ASSERT_TRUE(eq.empty());
    ASSERT_EQ(eq.numScheduled(), 0u);
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    EXPECT_FALSE(early.scheduled());
    EXPECT_FALSE(a.scheduled());
    EXPECT_FALSE(b.scheduled());
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(fired, (std::vector<std::string>{"early"}));
    EXPECT_EQ(eq.curTick(), 5u);  // time does not move
    // Every event is reusable afterwards, and the next schedule fires.
    eq.schedule(&b, 9);
    eq.schedule(&a, 6);
    eq.schedule(&early, 9);
    EXPECT_EQ(eq.nextEventTick(), 6u);
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(fired,
              (std::vector<std::string>{"early", "a", "b", "early"}));
}

TEST(EventQueue, MemberEventReuse)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper ev([&] { ++count; }, "reuse");
    for (int i = 0; i < 3; ++i) {
        eq.schedule(&ev, eq.curTick() + 1);
        eq.run();
    }
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, FarFutureEventsFire)
{
    // Ticks 2^35 and 2^40 (tens of simulated milliseconds and more)
    // interleave correctly with near events.
    EventQueue eq;
    OneShots shots(eq);
    std::vector<int> order;
    shots.at(Tick{1} << 35, [&] { order.push_back(2); });
    shots.at(10, [&] { order.push_back(1); });
    shots.at(Tick{1} << 40, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), Tick{1} << 40);
}

TEST(EventQueue, RescheduleNearToFarAndBack)
{
    EventQueue eq;
    OneShots shots(eq);
    Tick fired_at = 0;
    EventFunctionWrapper ev([&] { fired_at = eq.curTick(); }, "far");
    eq.schedule(&ev, 10);
    eq.reschedule(&ev, Tick{1} << 35);
    shots.at(100, [] {});
    eq.run();
    EXPECT_EQ(fired_at, Tick{1} << 35);

    eq.schedule(&ev, eq.curTick() + (Tick{1} << 35));
    eq.reschedule(&ev, eq.curTick() + 5);
    eq.run();
    EXPECT_EQ(fired_at, (Tick{1} << 35) + 5);
}

TEST(EventQueue, DescheduleFarFutureCancels)
{
    EventQueue eq;
    OneShots shots(eq);
    bool fired = false;
    EventFunctionWrapper ev([&] { fired = true; }, "cancel-far");
    eq.schedule(&ev, Tick{1} << 40);
    eq.deschedule(&ev);
    shots.at(10, [] {});
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.numScheduled(), 0u);
}

/** Self-expanding random storm (same tick, near, mid and far-future
 *  delays) checked against direct oracles.  One-shots pile up while
 *  a fixed set of member events is rescheduled earlier and later and
 *  descheduled at random, so inserts and removals land at the head,
 *  in the middle and at the tail of the sorted run, and the run
 *  compacts its consumed prefix and reuses the slots before its head.
 *  Every schedule call takes the next stamp, which is the queue's
 *  FIFO tie-break; an event superseded by a reschedule or a
 *  deschedule is cancelled.  Events fire at their scheduled tick, in
 *  strictly increasing (when, stamp) order, and every stamp that was
 *  not cancelled fires exactly once. */
TEST(EventQueue, RandomStormFiresInOrderExactlyOnce)
{
    EventQueue eq;
    OneShots shots(eq);
    Rng rng(987);
    std::vector<Tick> due;  // by stamp
    std::vector<bool> cancelled;
    std::vector<std::pair<Tick, std::size_t>> log;
    const std::size_t total = 3000;

    auto randomDelay = [&]() -> Tick {
        switch (rng.below(4)) {
          case 0: return 0;                          // same tick
          case 1: return rng.below(1000);            // near
          case 2: return rng.below(1u << 20);        // mid
          default: return (Tick{1} << 30) + rng.below(1u << 30);
        }
    };
    auto stamp = [&](Tick when) {
        due.push_back(when);
        cancelled.push_back(false);
        return due.size() - 1;
    };

    /** A member's tick once descheduled: firing then fails. */
    constexpr Tick descheduledAt = maxTick;
    struct Member
    {
        Tick due = descheduledAt;
        std::size_t stamp = 0;
    };
    const std::size_t numMembers = 16;
    std::vector<Member> members(numMembers);
    std::deque<EventFunctionWrapper> memberEvents;
    std::size_t earlier = 0, later = 0, descheduled = 0;
    std::size_t memberFires = 0;

    std::function<void()> spawnSome;
    auto touchMember = [&] {
        const std::size_t k = rng.below(numMembers);
        Member &m = members[k];
        EventFunctionWrapper &ev = memberEvents[k];
        if (ev.scheduled() && rng.below(3) == 0) {
            eq.deschedule(&ev);
            cancelled[m.stamp] = true;
            m.due = descheduledAt;
            ++descheduled;
            return;
        }
        const Tick when = eq.curTick() + randomDelay();
        if (ev.scheduled()) {
            cancelled[m.stamp] = true;
            ++(when < m.due ? earlier : later);
        }
        eq.reschedule(&ev, when);
        m.due = when;
        m.stamp = stamp(when);
    };
    for (std::size_t k = 0; k < numMembers; ++k) {
        memberEvents.emplace_back(
            [&, k] {
                Member &m = members[k];
                EXPECT_NE(m.due, descheduledAt)
                    << "member " << k << " fired after a deschedule";
                EXPECT_EQ(eq.curTick(), m.due) << "member " << k;
                log.emplace_back(eq.curTick(), m.stamp);
                m.due = descheduledAt;
                ++memberFires;
                spawnSome();
            },
            "member");
    }

    spawnSome = [&] {
        int fanout = static_cast<int>(rng.below(4));
        for (int i = 0; i < fanout && due.size() < total; ++i) {
            if (rng.below(3) == 0) {
                touchMember();
                continue;
            }
            const Tick when = eq.curTick() + randomDelay();
            const std::size_t id = stamp(when);
            shots.at(when, [&, id] {
                log.emplace_back(eq.curTick(), id);
                spawnSome();
            });
        }
    };
    // Seed enough roots that the storm sustains itself.
    for (int i = 0; i < 64; ++i)
        spawnSome();
    eq.run();

    ASSERT_EQ(due.size(), total);
    EXPECT_GT(earlier, 0u);
    EXPECT_GT(later, 0u);
    EXPECT_GT(descheduled, 0u);
    EXPECT_GT(memberFires, 0u);
    std::vector<bool> fired(due.size(), false);
    for (std::size_t k = 0; k < log.size(); ++k) {
        const auto [when, id] = log[k];
        EXPECT_EQ(when, due[id]) << "stamp " << id;
        EXPECT_FALSE(cancelled[id]) << "stamp " << id << " cancelled";
        EXPECT_FALSE(fired[id]) << "stamp " << id << " fired twice";
        fired[id] = true;
        if (k > 0) {
            EXPECT_LT(log[k - 1], log[k]) << "fire " << k;
        }
    }
    for (std::size_t id = 0; id < due.size(); ++id)
        EXPECT_EQ(fired[id], !cancelled[id]) << "stamp " << id;
}

/** A wire-class event fires ahead of a normal event at the same tick
 *  even when the normal one was scheduled first: near, far in the
 *  future, and scheduled just before a far tick. */
TEST(EventQueue, WireClassFiresBeforeEarlierSameTickEvents)
{
    const Tick far = Tick{1} << 35;
    auto order = [](Tick normal_at, Tick wire_at, Tick wire_from) {
        EventQueue eq;
        OneShots shots(eq);
        std::vector<std::string> fired;
        EventFunctionWrapper normal([&] { fired.push_back("normal"); },
                                    "normal");
        EventFunctionWrapper wire([&] { fired.push_back("wire"); },
                                  "wire");
        wire.setWireClass();
        eq.schedule(&normal, normal_at);
        shots.at(normal_at, [&] { fired.push_back("callback"); });
        // Schedule the wire event from tick wire_from, after both
        // normal events.
        shots.at(wire_from, [&] { eq.schedule(&wire, wire_at); });
        eq.run();
        return fired;
    };
    const std::vector<std::string> want{"wire", "normal", "callback"};
    EXPECT_EQ(order(100, 100, 0), want);
    EXPECT_EQ(order(far, far, 0), want);
    EXPECT_EQ(order(far, far, far - 100), want);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    OneShots shots(eq);
    shots.at(100, [] {});
    eq.run();
    EventFunctionWrapper ev([] {}, "late");
    EXPECT_DEATH(eq.schedule(&ev, 50), "in the past");
}

TEST(EventQueueDeath, AdvancePastPendingEventPanics)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "pending");
    eq.schedule(&ev, 10);
    EXPECT_DEATH(eq.advanceTo(11), "past a pending event");
    eq.deschedule(&ev);
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "twice");
    eq.schedule(&ev, 10);
    EXPECT_DEATH(eq.schedule(&ev, 20), "already scheduled");
    eq.deschedule(&ev);
}

TEST(ClockedObject, ControllerAndArrayPeriods)
{
    EventQueue eq;
    ClockedObject array(&eq, 40000);
    ClockedObject ctrl(&eq, 31250);
    // 25 MHz and 32 MHz: 1 us worth of cycles.
    EXPECT_EQ(array.cyclesToTicks(25), ticksPerUs);
    EXPECT_EQ(ctrl.cyclesToTicks(32), ticksPerUs);
}

} // namespace
} // namespace snap
