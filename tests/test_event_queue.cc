/**
 * @file
 * Tests for the discrete-event kernel: ordering, same-tick FIFO,
 * deschedule/reschedule, horizons, and clocked objects.
 */

#include <gtest/gtest.h>

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

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleCallback(30, [&] { order.push_back(3); });
    eq.scheduleCallback(10, [&] { order.push_back(1); });
    eq.scheduleCallback(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleCallback(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            eq.scheduleCallback(eq.curTick() + 7, chain);
    };
    eq.scheduleCallback(0, chain);
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

TEST(EventQueue, RunUntilStopsAtHorizon)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {5u, 10u, 15u, 20u})
        eq.scheduleCallback(t, [&, t] { fired.push_back(t); });
    eq.runUntil(12);
    EXPECT_EQ(fired, (std::vector<Tick>{5, 10}));
    eq.run();
    EXPECT_EQ(fired.size(), 4u);
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
    // Deltas past the near-bucket span route through the overflow
    // heap and must interleave correctly with near events.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleCallback(Tick{1} << 35, [&] { order.push_back(2); });
    eq.scheduleCallback(10, [&] { order.push_back(1); });
    eq.scheduleCallback(Tick{1} << 40, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), Tick{1} << 40);
}

TEST(EventQueue, RescheduleAcrossNearFarBoundary)
{
    EventQueue eq;
    Tick fired_at = 0;
    EventFunctionWrapper ev([&] { fired_at = eq.curTick(); }, "far");
    eq.schedule(&ev, 10);                // near ring
    eq.reschedule(&ev, Tick{1} << 35);   // overflow heap
    eq.scheduleCallback(100, [] {});     // stale ring entry is pruned
    eq.run();
    EXPECT_EQ(fired_at, Tick{1} << 35);

    eq.schedule(&ev, eq.curTick() + (Tick{1} << 35));
    eq.reschedule(&ev, eq.curTick() + 5);  // overflow back to ring
    eq.run();
    EXPECT_EQ(fired_at, (Tick{1} << 35) + 5);
}

TEST(EventQueue, DescheduleFarFutureCancels)
{
    EventQueue eq;
    bool fired = false;
    EventFunctionWrapper ev([&] { fired = true; }, "cancel-far");
    eq.schedule(&ev, Tick{1} << 40);
    eq.deschedule(&ev);
    eq.scheduleCallback(10, [] {});
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.numScheduled(), 0u);
}

TEST(EventQueue, CallbackPoolReachesSteadyState)
{
    // After warm-up, scheduleCallback must recycle pooled events
    // instead of allocating: zero per-event heap allocations in
    // steady state.
    EventQueue eq;
    const int burst = 32;
    int fired = 0;
    auto round = [&] {
        for (int i = 0; i < burst; ++i)
            eq.scheduleCallback(eq.curTick() + 1 + i, [&] { ++fired; });
        eq.run();
    };
    for (int r = 0; r < 3; ++r)
        round();
    std::uint64_t allocated = eq.callbackPoolAllocated();
    EXPECT_GT(allocated, 0u);
    EXPECT_LE(allocated, static_cast<std::uint64_t>(burst));

    for (int r = 0; r < 50; ++r)
        round();
    EXPECT_EQ(eq.callbackPoolAllocated(), allocated);
    EXPECT_GT(eq.callbackPoolReused(), 0u);
    EXPECT_EQ(eq.callbackPoolFree(), allocated);
    EXPECT_EQ(fired, 53 * burst);
}

/** Self-expanding random storm over every queue path (same tick,
 *  near ring, mid ring, overflow heap), checked against direct
 *  oracles: events fire at their scheduled tick, strictly increasing
 *  in (when, scheduling order), and every scheduled id fires exactly
 *  once. */
TEST(EventQueue, RandomStormFiresInOrderExactlyOnce)
{
    EventQueue eq;
    Rng rng(987);
    // Ids are handed out in scheduling order, so they are the
    // queue's FIFO tie-break.
    std::vector<Tick> due;
    std::vector<std::pair<Tick, int>> log;
    const std::size_t total = 3000;

    std::function<void()> spawnSome = [&] {
        int fanout = static_cast<int>(rng.below(4));
        for (int i = 0; i < fanout && due.size() < total; ++i) {
            Tick delta;
            switch (rng.below(4)) {
              case 0: delta = 0; break;                    // same tick
              case 1: delta = rng.below(1000); break;      // near
              case 2: delta = rng.below(1u << 20); break;  // mid ring
              default:                                     // overflow
                delta = (Tick{1} << 30) + rng.below(1u << 30);
                break;
            }
            const int id = static_cast<int>(due.size());
            due.push_back(eq.curTick() + delta);
            eq.scheduleCallback(due.back(), [&, id] {
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
    ASSERT_EQ(log.size(), due.size());
    std::vector<bool> fired(due.size(), false);
    for (std::size_t k = 0; k < log.size(); ++k) {
        const auto [when, id] = log[k];
        EXPECT_EQ(when, due[id]) << "id " << id;
        EXPECT_FALSE(fired[id]) << "id " << id << " fired twice";
        fired[id] = true;
        if (k > 0) {
            EXPECT_LT(log[k - 1], log[k]) << "fire " << k;
        }
    }
}

/** A wire-class event fires ahead of a normal event at the same tick
 *  even when the normal one was scheduled first: both on the near
 *  ring, both on the overflow heap, and with the normal event on the
 *  heap and the wire event on the ring. */
TEST(EventQueue, WireClassFiresBeforeEarlierSameTickEvents)
{
    const Tick far = Tick{1} << 35;
    auto order = [](Tick normal_at, Tick wire_at, Tick wire_from) {
        EventQueue eq;
        std::vector<std::string> fired;
        EventFunctionWrapper normal([&] { fired.push_back("normal"); },
                                    "normal");
        EventFunctionWrapper wire([&] { fired.push_back("wire"); },
                                  "wire");
        wire.setWireClass();
        eq.schedule(&normal, normal_at);
        eq.scheduleCallback(normal_at, [&] {
            fired.push_back("callback");
        });
        // Schedule the wire event from tick wire_from, so its delta
        // picks the ring or the heap.
        eq.scheduleCallback(wire_from, [&] {
            eq.schedule(&wire, wire_at);
        });
        eq.run();
        return fired;
    };
    const std::vector<std::string> want{"wire", "normal", "callback"};
    EXPECT_EQ(order(100, 100, 0), want);              // ring, ring
    EXPECT_EQ(order(far, far, 0), want);              // heap, heap
    EXPECT_EQ(order(far, far, far - 100), want);      // heap, ring
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.scheduleCallback(100, [] {});
    eq.run();
    EventFunctionWrapper ev([] {}, "late");
    EXPECT_DEATH(eq.schedule(&ev, 50), "in the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "twice");
    eq.schedule(&ev, 10);
    EXPECT_DEATH(eq.schedule(&ev, 20), "already scheduled");
    eq.deschedule(&ev);
}

TEST(ClockedObject, EdgesAlignToGrid)
{
    EventQueue eq;
    ClockedObject obj(&eq, "dsp", 40000);  // 40 ns

    // At t=0, the aligned edge is t=0.
    EXPECT_EQ(obj.clockEdge(0), 0u);
    EXPECT_EQ(obj.clockEdge(2), 80000u);
    EXPECT_EQ(obj.cyclesToTicks(25), 1000000u);  // 25 cycles = 1 us

    // Advance to an unaligned instant.
    eq.scheduleCallback(55555, [] {});
    eq.run();
    EXPECT_EQ(obj.clockEdge(0), 80000u);  // next 40 ns edge
    EXPECT_EQ(obj.clockEdge(1), 120000u);
}

TEST(ClockedObject, ControllerAndArrayPeriods)
{
    EventQueue eq;
    ClockedObject array(&eq, "pe", 40000);
    ClockedObject ctrl(&eq, "scp", 31250);
    // 25 MHz and 32 MHz: 1 us worth of cycles.
    EXPECT_EQ(array.cyclesToTicks(25), ticksPerUs);
    EXPECT_EQ(ctrl.cyclesToTicks(32), ticksPerUs);
}

} // namespace
} // namespace snap
