/**
 * @file
 * Component tests for the architecture substrate: hypercube ICN
 * routing, multiport memories, the tiered synchronization tree,
 * the performance collection network, and the compiled KB image.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/icn.hh"
#include "arch/kb_image.hh"
#include "arch/multiport_mem.hh"
#include "arch/perf_net.hh"
#include "arch/sync_tree.hh"
#include "arch/wire.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

// --- hypercube ICN -----------------------------------------------------------

TEST(HypercubeIcnTest, AddressFields)
{
    // Cluster 23 = 10111b: L field 3, X field 1, Y field 1.
    EXPECT_EQ(HypercubeIcn::field(23, 0), 3u);
    EXPECT_EQ(HypercubeIcn::field(23, 1), 1u);
    EXPECT_EQ(HypercubeIcn::field(23, 2), 1u);
}

TEST(HypercubeIcnTest, DistanceCountsDifferingFields)
{
    EXPECT_EQ(HypercubeIcn::distance(0, 0), 0u);
    EXPECT_EQ(HypercubeIcn::distance(0, 3), 1u);   // L only
    EXPECT_EQ(HypercubeIcn::distance(0, 4), 1u);   // X only
    EXPECT_EQ(HypercubeIcn::distance(0, 16), 1u);  // Y only
    EXPECT_EQ(HypercubeIcn::distance(0, 7), 2u);   // L + X
    EXPECT_EQ(HypercubeIcn::distance(0, 23), 3u);
}

class IcnRouting : public ::testing::TestWithParam<std::uint32_t>
{
};

/** Every pair routes in <= 3 hops through existing clusters, and
 *  each hop fixes exactly one address field. */
TEST_P(IcnRouting, AllPairsReachableWithinThreeHops)
{
    std::uint32_t n = GetParam();
    TimingParams t;
    HypercubeIcn icn(n, t);
    for (ClusterId src = 0; src < n; ++src) {
        for (ClusterId dst = 0; dst < n; ++dst) {
            if (src == dst)
                continue;
            ClusterId cur = src;
            std::uint32_t hops = 0;
            while (cur != dst) {
                auto [dim, nb] = icn.nextHop(cur, dst);
                ASSERT_LT(nb, n) << "routed through a ghost cluster";
                // One field changes per hop.
                EXPECT_EQ(HypercubeIcn::distance(cur, nb), 1u);
                EXPECT_NE(HypercubeIcn::field(cur, dim),
                          HypercubeIcn::field(nb, dim));
                cur = nb;
                ASSERT_LE(++hops, 3u) << src << "->" << dst;
            }
            EXPECT_EQ(hops, HypercubeIcn::distance(src, dst));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IcnRouting,
                         ::testing::Values(2u, 3u, 5u, 8u, 12u, 16u,
                                           17u, 24u, 31u, 32u));

TEST(HypercubeIcnTest, TransferTimeIs640ns)
{
    TimingParams t;
    HypercubeIcn icn(32, t);
    // 8 bytes x 80 ns port-to-port (paper §III-B).
    EXPECT_EQ(icn.transferTime(), 640 * ticksPerNs);
}

// --- wire --------------------------------------------------------------------

/** A wire endpoint that logs what reaches it, in order.  While it
 *  waits it behaves like a stalled CU: each wake takes one release
 *  and waits again while more are pending. */
struct Probe : WireEndpoint
{
    Wire *wire = nullptr;
    std::uint32_t id = 0;
    std::vector<std::string> log;

    void
    applyDeliverable(Deliverable &&d) override
    {
        log.push_back(
            std::string(d.kind == WireKind::IcnMsg ? "msg" : "collect") +
            " s" + std::to_string(d.sender) + " #" +
            std::to_string(d.senderSeq));
    }

    void
    wake() override
    {
        Release r;
        if (!wire->takeRelease(id, r))
            return;
        log.push_back("take s" + std::to_string(r.sender) + " @" +
                      std::to_string(r.when));
        rearm();
    }

    void releaseRecorded() override { rearm(); }

    void
    landBroadcast(const Broadcast &) override
    {
        log.push_back("bcast");
    }

    /** Wait for the earliest pending release, or the next one. */
    void
    rearm()
    {
        const auto &pending = wire->releases(id);
        if (!pending.empty())
            wire->wait(id, pending.front().when);
    }

    /** How many releases foldReleases hands over right now. */
    std::size_t
    foldCount()
    {
        std::size_t n = 0;
        wire->foldReleases(id, [&](const Release &) { ++n; });
        return n;
    }
};

/** Endpoints 0..n-2 probe clusters, endpoint n-1 the controller. */
struct WireRig
{
    EventQueue eq;
    Wire wire;
    std::vector<Probe> probes;

    WireRig(std::uint32_t n, Tick lag) : wire(eq, n, lag), probes(n)
    {
        for (std::uint32_t ep = 0; ep < n; ++ep) {
            probes[ep].wire = &wire;
            probes[ep].id = ep;
            wire.bindEndpoint(ep, &probes[ep]);
        }
    }

    void
    stage(WireKind k, std::uint32_t receiver, std::uint32_t sender,
          std::uint64_t seq, Tick when)
    {
        Deliverable d;
        d.when = when;
        d.kind = k;
        d.receiver = receiver;
        d.sender = sender;
        d.senderSeq = seq;
        wire.send(std::move(d));
    }

    /** Run @p fn as a normal event at @p when. */
    void
    at(Tick when, std::function<void()> fn)
    {
        auto ev = std::make_unique<EventFunctionWrapper>(std::move(fn),
                                                         "test.at");
        eq.schedule(ev.get(), when);
        events.push_back(std::move(ev));
    }

    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
};

/** Same-tick deliverables apply in the canonical (kind, sender,
 *  senderSeq) order no matter what order they were staged in. */
TEST(WireTest, SameTickAppliesInCanonicalOrder)
{
    WireRig rig(2, 1000);
    // Scrambled staging order.
    rig.stage(WireKind::CollectReady, 1, 1, 7, 5000);
    rig.stage(WireKind::IcnMsg, 1, 1, 9, 5000);
    rig.stage(WireKind::CollectReady, 1, 0, 3, 5000);
    rig.stage(WireKind::IcnMsg, 1, 0, 2, 5000);
    rig.stage(WireKind::IcnMsg, 1, 0, 1, 5000);

    EXPECT_FALSE(rig.wire.empty());
    rig.eq.run();
    EXPECT_TRUE(rig.wire.empty());

    EXPECT_EQ(rig.probes[1].log,
              (std::vector<std::string>{"msg s0 #1", "msg s0 #2",
                                        "msg s1 #9", "collect s0 #3",
                                        "collect s1 #7"}));
    EXPECT_EQ(rig.eq.curTick(), 5000u);
    EXPECT_EQ(rig.eq.eventsProcessed(), 1u);  // one pump firing
}

/** A broadcast is one event: each cluster takes its same-tick
 *  arrivals first, then the broadcast, and its pump moves off the
 *  tick.  The controller (last endpoint) receives no broadcast. */
TEST(WireTest, BroadcastLandsAfterSameTickArrivalsOnEachCluster)
{
    WireRig rig(3, 1000);
    Broadcast b;
    b.qi.seq = 4;
    // The broadcast is scheduled first, so it fires ahead of the
    // clusters' pumps at the same tick.
    rig.wire.broadcast(5000, b);
    rig.stage(WireKind::IcnMsg, 1, 0, 1, 5000);
    rig.stage(WireKind::IcnMsg, 0, 1, 1, 5000);
    rig.stage(WireKind::IcnMsg, 0, 1, 2, 6000);

    rig.eq.run();
    EXPECT_EQ(rig.probes[0].log,
              (std::vector<std::string>{"msg s1 #1", "bcast",
                                        "msg s1 #2"}));
    EXPECT_EQ(rig.probes[1].log,
              (std::vector<std::string>{"msg s0 #1", "bcast"}));
    EXPECT_TRUE(rig.probes[2].log.empty());
    // The broadcast at 5000 and cluster 0's pump at 6000.
    EXPECT_EQ(rig.eq.eventsProcessed(), 2u);
    EXPECT_TRUE(rig.wire.empty());
}

/** A release due at T is hidden from foldReleases while T's IcnMsg
 *  arrivals apply, and visible once they have: to the same pump's
 *  CollectReady arrivals and to normal events at T. */
TEST(WireTest, ReleaseDueNowHiddenWhileArrivalsApply)
{
    WireRig rig(2, 1000);
    struct Seen : Probe
    {
        std::vector<std::size_t> visible;
        void
        applyDeliverable(Deliverable &&d) override
        {
            visible.push_back(foldCount());
            Probe::applyDeliverable(std::move(d));
        }
    } seen;
    seen.wire = &rig.wire;
    seen.id = 0;
    rig.wire.bindEndpoint(0, &seen);

    // Endpoint 1 pops one of endpoint 0's slots at 4000 and another
    // at 4500: they free at 5000 and 5500.
    rig.at(4000, [&] { rig.wire.release(0, 1, 3); });
    rig.at(4500, [&] { rig.wire.release(0, 1, 3); });
    rig.stage(WireKind::IcnMsg, 0, 1, 1, 5000);
    rig.stage(WireKind::CollectReady, 0, 1, 2, 5000);
    std::size_t at_5000 = 99, at_5499 = 99, at_5500 = 99;
    rig.at(5000, [&] { at_5000 = seen.foldCount(); });
    rig.at(5499, [&] { at_5499 = seen.foldCount(); });
    rig.at(5500, [&] { at_5500 = seen.foldCount(); });

    EXPECT_EQ(rig.wire.nextRelease(), maxTick);
    rig.eq.run();
    // The IcnMsg saw nothing, the CollectReady the 5000 release.
    EXPECT_EQ(seen.visible, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(at_5000, 0u);  // already folded
    EXPECT_EQ(at_5499, 0u);
    EXPECT_EQ(at_5500, 1u);
    EXPECT_EQ(rig.wire.retireBefore(maxTick), 5500u);
}

/** An endpoint waiting with nothing pending is woken at the first
 *  release recorded; at a wake tick it takes the releases one at a
 *  time in sender order, and it is woken once per release tick. */
TEST(WireTest, WaitingEndpointTakesReleasesOneAtATimeInSenderOrder)
{
    WireRig rig(4, 1000);
    Probe &p = rig.probes[0];
    rig.at(100, [&] { rig.wire.wait(0, maxTick); });
    // Three pops free slots at 2000 (senders 2 then 1) and 2500.
    rig.at(1000, [&] { rig.wire.release(0, 2, 0); });
    rig.at(1000, [&] { rig.wire.release(0, 1, 0); });
    rig.at(1500, [&] { rig.wire.release(0, 3, 0); });
    rig.stage(WireKind::IcnMsg, 0, 1, 1, 2000);

    rig.eq.run();
    EXPECT_EQ(p.log, (std::vector<std::string>{
                         "msg s1 #1", "take s1 @2000",
                         "take s2 @2000", "take s3 @2500"}));
    // Four test events, then pumps at 2000 and 2500 only.
    EXPECT_EQ(rig.eq.eventsProcessed(), 6u);
    EXPECT_TRUE(rig.wire.releases(0).empty());
    EXPECT_EQ(rig.wire.retireBefore(maxTick), 2500u);
}

// --- multiport memory -----------------------------------------------------------

TEST(BoundedQueueTest, FifoAndStats)
{
    BoundedQueue<int> q(3);
    EXPECT_TRUE(q.empty());
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_TRUE(q.full());
    q.noteBlocked();
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    q.push(4);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_EQ(q.highWater(), 3u);
    EXPECT_EQ(q.totalEnqueued(), 4u);
    EXPECT_EQ(q.blockedPushes(), 1u);
}

TEST(BoundedQueueDeath, OverflowAndUnderflowPanic)
{
    BoundedQueue<int> q(1);
    q.push(1);
    EXPECT_DEATH(q.push(2), "full");
    q.pop();
    EXPECT_DEATH(q.pop(), "empty");
}

TEST(ClusterArbiterTest, SerializesOverlappingHolds)
{
    ClusterArbiter arb;
    // Port 1 holds [100, 150); port 2 asks at 120 -> granted at 150.
    EXPECT_EQ(arb.acquire(100, 50), 100u);
    EXPECT_EQ(arb.acquire(120, 30), 150u);
    // Port 3 asks after everything drained: immediate.
    EXPECT_EQ(arb.acquire(500, 10), 500u);
    EXPECT_EQ(arb.grants(), 3u);
    EXPECT_EQ(arb.waitedTicks(), 30u);
}

// --- sync tree ---------------------------------------------------------------------

TEST(SyncTreeTest, CompleteNeedsBarrierIdleAndDrainedCounters)
{
    SyncTree sync(2);
    EXPECT_FALSE(sync.complete());  // not at barrier

    sync.setAtBarrier(0, true, 10);
    sync.setAtBarrier(1, true, 20);
    EXPECT_TRUE(sync.complete());
    EXPECT_EQ(sync.lastMutation(), 20u);

    sync.created(0, 30);
    EXPECT_FALSE(sync.complete());
    EXPECT_EQ(sync.inFlight(), 1);
    sync.consumed(0, 40);
    EXPECT_TRUE(sync.complete());
    EXPECT_EQ(sync.lastMutation(), 40u);

    sync.setIdle(0, false, 50);
    EXPECT_FALSE(sync.complete());
    sync.setIdle(0, true, 60);
    EXPECT_TRUE(sync.complete());
}

TEST(SyncTreeTest, TieredLevelsTrackedSeparately)
{
    SyncTree sync(1);
    sync.created(0, 1);
    sync.created(3, 2);
    sync.created(3, 3);
    EXPECT_EQ(sync.counter(0), 1);
    EXPECT_EQ(sync.counter(3), 2);
    EXPECT_EQ(sync.inFlight(), 3);
    sync.consumed(3, 4);
    EXPECT_EQ(sync.counter(3), 1);
    EXPECT_EQ(SyncTree::level(5), 5);
    EXPECT_EQ(SyncTree::level(500), numSyncLevels - 1);
}

TEST(SyncTreeTest, CallbackFiresOnCompletion)
{
    SyncTree sync(2);
    int fired = 0;
    sync.onComplete([&] { ++fired; });
    sync.setAtBarrier(0, true, 10);
    EXPECT_EQ(fired, 0);
    sync.created(1, 20);
    sync.setAtBarrier(1, true, 30);
    EXPECT_EQ(fired, 0);  // counter still nonzero
    sync.consumed(1, 40);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sync.lastMutation(), 40u);
}

TEST(SyncTreeTest, QuiescentIgnoresBarrierLines)
{
    SyncTree sync(2);
    EXPECT_TRUE(sync.quiescent());
    sync.setIdle(1, false, 10);
    EXPECT_FALSE(sync.quiescent());
    sync.setIdle(1, true, 20);
    sync.created(2, 30);
    EXPECT_FALSE(sync.quiescent());
    sync.consumed(2, 40);
    EXPECT_TRUE(sync.quiescent());
}

TEST(SyncTreeTest, CountersAreSignedAndTotalsCountEveryMutation)
{
    SyncTree sync(1);
    sync.created(0, 10);
    sync.consumed(0, 20);
    EXPECT_EQ(sync.counter(0), 0);
    EXPECT_TRUE(sync.quiescent());

    // A consumption seen before its creation drives the tier negative,
    // and a negative tier holds off quiescence like a positive one.
    sync.consumed(1, 30);
    EXPECT_EQ(sync.counter(1), -1);
    EXPECT_EQ(sync.inFlight(), -1);
    EXPECT_FALSE(sync.quiescent());
    sync.created(1, 40);
    EXPECT_TRUE(sync.quiescent());

    EXPECT_EQ(sync.totalCreated(), 2u);
    EXPECT_EQ(sync.totalConsumed(), 2u);
}

// --- perf net ----------------------------------------------------------------------

TEST(PerfNetTest, ShiftTimeAt2Mbps)
{
    TimingParams t;
    PerfNet net(4, t, true);
    // 32 bits at 2 Mb/s = 16 us.
    EXPECT_EQ(net.shiftTime(), 16 * ticksPerUs);
}

TEST(PerfNetTest, RecordsTimestampedAtArrival)
{
    TimingParams t;
    PerfNet net(4, t, true);
    net.emit(2, 1000, PerfEvent::MsgSent, 7);
    net.endRun();
    ASSERT_EQ(net.records().size(), 1u);
    EXPECT_EQ(net.records()[0].timestamp, 1000 + net.shiftTime());
    EXPECT_EQ(net.records()[0].pe, 2u);
    EXPECT_EQ(net.records()[0].event, PerfEvent::MsgSent);
    EXPECT_EQ(net.records()[0].status, 7u);
}

TEST(PerfNetTest, BusyPortDropsRecords)
{
    TimingParams t;
    PerfNet net(2, t, true);
    net.emit(0, 0, PerfEvent::TaskStart, 1);
    net.emit(0, 100, PerfEvent::TaskEnd, 2);  // port still shifting
    net.emit(1, 100, PerfEvent::TaskStart, 3);  // other PE: fine
    net.emit(0, net.shiftTime(), PerfEvent::TaskEnd, 4);  // done
    net.endRun();
    EXPECT_EQ(net.dropped(), 1u);
    EXPECT_EQ(net.records().size(), 3u);
    EXPECT_EQ(net.emitted, 4u);
}

/** endRun() appends the run's records to the central FIFO in
 *  (timestamp, pe) order, whatever order the PEs emitted them in. */
TEST(PerfNetTest, RunRecordsLandInTimestampThenPeOrder)
{
    TimingParams t;
    PerfNet net(3, t, true);
    net.emit(2, 500, PerfEvent::MsgReceived, 2);
    net.emit(1, 500, PerfEvent::MsgSent, 3);
    net.emit(0, 0, PerfEvent::TaskStart, 1);
    EXPECT_TRUE(net.records().empty());
    net.endRun();
    ASSERT_EQ(net.records().size(), 3u);
    EXPECT_EQ(net.records()[0].pe, 0u);
    EXPECT_EQ(net.records()[1].pe, 1u);
    EXPECT_EQ(net.records()[2].pe, 2u);
    EXPECT_EQ(net.emitted, 3u);
    // A second run appends after the first; an empty one adds
    // nothing.
    net.endRun();
    net.emit(0, net.shiftTime(), PerfEvent::TaskEnd, 4);
    net.endRun();
    ASSERT_EQ(net.records().size(), 4u);
    EXPECT_EQ(net.records()[3].status, 4u);
}

TEST(PerfNetTest, DisabledNetworkIsSilent)
{
    TimingParams t;
    PerfNet net(2, t, false);
    net.emit(0, 0, PerfEvent::TaskStart, 1);
    net.endRun();
    EXPECT_TRUE(net.records().empty());
    EXPECT_EQ(net.emitted, 0u);
}

// --- kb image -----------------------------------------------------------------------

TEST(KbImageTest, TablesMirrorNetwork)
{
    SemanticNetwork net = makeRandomKb(100, 3.0, 3, 7);
    MachineConfig cfg;
    cfg.numClusters = 4;
    cfg.partition = PartitionStrategy::RoundRobin;
    KbImage image(net, cfg);

    EXPECT_EQ(image.numClusters(), 4u);
    EXPECT_EQ(image.numNodes(), 100u);

    std::uint64_t slots = 0;
    for (ClusterId c = 0; c < 4; ++c) {
        const ClusterKb &ckb = image.cluster(c);
        for (LocalNodeId l = 0; l < ckb.numLocalNodes(); ++l) {
            NodeId g = ckb.globalId(l);
            EXPECT_EQ(ckb.color(l), net.color(g));
            auto expect = net.links(g);
            const auto &got = ckb.slots(l);
            ASSERT_EQ(got.size(), expect.size());
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k].rel, expect[k].rel);
                EXPECT_EQ(got[k].destGlobal, expect[k].dst);
                Placement p = image.place(expect[k].dst);
                EXPECT_EQ(got[k].destCluster, p.cluster);
                EXPECT_EQ(got[k].destLocal, p.local);
            }
            slots += got.size();
        }
    }
    EXPECT_EQ(slots, net.numLinks());
}

TEST(KbImageTest, SubnodeChainsForHighFanout)
{
    SemanticNetwork net = makeStarKb(40);  // hub fanout 40
    MachineConfig cfg;
    cfg.numClusters = 2;
    cfg.partition = PartitionStrategy::Sequential;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    KbImage image(net, cfg);

    Placement hub = image.place(0);
    const ClusterKb &ckb = image.cluster(hub.cluster);
    // 40 slots -> ceil(40/16) = 3 relation rows (head + 2 subnodes).
    EXPECT_EQ(ckb.numRows(hub.local), 3u);
    EXPECT_EQ(ckb.subnodeRows(), 2u);

    // Leaves occupy one row even with zero links.
    Placement leaf = image.place(1);
    EXPECT_EQ(image.cluster(leaf.cluster).numRows(leaf.local), 1u);
}

TEST(KbImageTest, SlotEditing)
{
    SemanticNetwork net = makeChainKb(6);
    MachineConfig cfg;
    cfg.numClusters = 2;
    cfg.partition = PartitionStrategy::Sequential;
    KbImage image(net, cfg);

    ClusterKb &ckb = image.cluster(0);
    ckb.addSlot(0, RelSlot{9, 1, 0, 3, 2.5f});
    EXPECT_EQ(ckb.slots(0).size(), 2u);
    EXPECT_TRUE(ckb.setSlotWeight(0, 9, 3, 4.5f));
    EXPECT_FLOAT_EQ(ckb.slots(0)[1].weight, 4.5f);
    EXPECT_FALSE(ckb.setSlotWeight(0, 9, 4, 1.0f));
    EXPECT_TRUE(ckb.removeSlot(0, 9, 3));
    EXPECT_FALSE(ckb.removeSlot(0, 9, 3));
    EXPECT_EQ(ckb.slots(0).size(), 1u);
}

TEST(KbImageTest, MarkerAccessAndFlatten)
{
    SemanticNetwork net = makeChainKb(10);
    MachineConfig cfg;
    cfg.numClusters = 3;
    cfg.partition = PartitionStrategy::RoundRobin;
    KbImage image(net, cfg);

    Placement p = image.place(7);
    image.cluster(p.cluster).markers().set(5, p.local, 2.5f, 7);

    EXPECT_TRUE(image.markerSet(5, 7));
    EXPECT_FLOAT_EQ(image.markerValue(5, 7), 2.5f);
    EXPECT_EQ(image.markerOrigin(5, 7), 7u);
    EXPECT_FALSE(image.markerSet(5, 6));

    MarkerStore flat = image.flatten();
    EXPECT_TRUE(flat.test(5, 7));
    EXPECT_FLOAT_EQ(flat.value(5, 7), 2.5f);
    EXPECT_EQ(flat.count(5), 1u);
}

} // namespace
} // namespace snap
