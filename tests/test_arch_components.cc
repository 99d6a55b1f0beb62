/**
 * @file
 * Component tests for the architecture substrate: hypercube ICN
 * routing, multiport memories, the tiered synchronization tree,
 * the performance collection network, and the compiled KB image.
 */

#include <gtest/gtest.h>

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

/** Same-tick deliverables apply in the canonical (kind, sender,
 *  senderSeq) order no matter what order they were staged in. */
TEST(WireTest, SameTickAppliesInCanonicalOrder)
{
    EventQueue eq;
    Wire wire(eq, 2, 1000);

    struct Applied
    {
        WireKind kind;
        std::uint32_t sender;
        std::uint64_t seq;
    };
    std::vector<Applied> applied;
    wire.bindEndpoint(0, [&](Deliverable &&d) {
        applied.push_back(Applied{d.kind, d.sender, d.senderSeq});
    });
    wire.bindEndpoint(1, [](Deliverable &&) {});

    auto stage = [&](WireKind k, std::uint32_t sender,
                     std::uint64_t seq) {
        Deliverable d;
        d.when = 5000;
        d.kind = k;
        d.receiver = 0;
        d.sender = sender;
        d.senderSeq = seq;
        wire.send(std::move(d));
    };
    // Scrambled staging order.
    stage(WireKind::Instr, 1, 7);
    stage(WireKind::IcnMsg, 1, 9);
    stage(WireKind::IcnMsg, 0, 2);
    stage(WireKind::IcnCredit, 0, 1);
    stage(WireKind::IcnMsg, 0, 1);

    EXPECT_FALSE(wire.empty());
    eq.run();
    EXPECT_TRUE(wire.empty());

    ASSERT_EQ(applied.size(), 5u);
    EXPECT_EQ(applied[0].kind, WireKind::IcnMsg);    // sender 0 seq 1
    EXPECT_EQ(applied[0].seq, 1u);
    EXPECT_EQ(applied[1].kind, WireKind::IcnMsg);    // sender 0 seq 2
    EXPECT_EQ(applied[1].seq, 2u);
    EXPECT_EQ(applied[2].sender, 1u);                // sender 1 next
    EXPECT_EQ(applied[2].kind, WireKind::IcnMsg);
    EXPECT_EQ(applied[3].kind, WireKind::IcnCredit); // kinds in order
    EXPECT_EQ(applied[4].kind, WireKind::Instr);
    EXPECT_EQ(eq.curTick(), 5000u);
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
