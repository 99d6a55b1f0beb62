/**
 * @file
 * Tests for marker-state snapshots: round trips, cross-partition
 * restore, and resuming execution from a checkpoint.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "arch/machine.hh"
#include "runtime/snapshot.hh"
#include "tests/test_helpers.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

TEST(Snapshot, FlatRoundTrip)
{
    MarkerStore store(50);
    store.set(0, 3, 1.25f, 7);
    store.set(0, 49, -2.5f, 0);
    store.set(63, 10, 0.0078125f, 10);
    store.setBit(64, 5);
    store.setBit(127, 49);

    std::ostringstream os;
    saveMarkers(store, os);
    std::istringstream is(os.str());
    MarkerStore back = loadMarkers(is);

    ASSERT_EQ(back.numNodes(), 50u);
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        for (NodeId n = 0; n < 50; ++n) {
            ASSERT_EQ(back.test(mid, n), store.test(mid, n))
                << "m" << m << " n" << n;
            if (store.test(mid, n) && isComplexMarker(mid)) {
                EXPECT_EQ(back.value(mid, n), store.value(mid, n));
                EXPECT_EQ(back.origin(mid, n), store.origin(mid, n));
            }
        }
    }
}

TEST(Snapshot, EmptyStoreRoundTrips)
{
    MarkerStore store(10);
    std::ostringstream os;
    saveMarkers(store, os);
    std::istringstream is(os.str());
    MarkerStore back = loadMarkers(is);
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m)
        EXPECT_EQ(back.count(static_cast<MarkerId>(m)), 0u);
}

TEST(Snapshot, MachineCheckpointAcrossPartitionings)
{
    // Run half a computation on a semantic-partitioned machine,
    // checkpoint, restore onto a round-robin machine, finish there:
    // the result must equal an uninterrupted run.
    SemanticNetwork net_a = makeTreeKb(300, 4);
    SemanticNetwork net_b = makeTreeKb(300, 4);
    SemanticNetwork net_c = makeTreeKb(300, 4);
    RelationType inc = net_a.relationId("includes");

    Program first;
    RuleId rid1 = first.addRule(PropRule::chain(inc));
    first.append(Instruction::searchNode(0, 0, 0.0f));
    first.append(Instruction::propagate(0, 1, rid1,
                                        MarkerFunc::Count));
    first.append(Instruction::barrier());

    Program second;
    RuleId rid2 = second.addRule(PropRule::chain(inc));
    (void)rid2;
    second.append(Instruction::funcMarker(
        1, ScalarFunc{ScalarFunc::Op::ThresholdGe, 3.0f}));
    second.append(Instruction::collectMarker(1));

    // Uninterrupted reference run.
    MachineConfig cfg_a;
    cfg_a.numClusters = 8;
    cfg_a.partition = PartitionStrategy::Semantic;
    SnapMachine straight(cfg_a);
    straight.loadKb(net_a);
    straight.run(first);
    RunResult expect = straight.run(second);

    // Checkpointed run across different machines.
    SnapMachine m1(cfg_a);
    m1.loadKb(net_b);
    m1.run(first);
    std::ostringstream os;
    m1.image().saveMarkers(os);

    MachineConfig cfg_b;
    cfg_b.numClusters = 5;
    cfg_b.partition = PartitionStrategy::RoundRobin;
    SnapMachine m2(cfg_b);
    m2.loadKb(net_c);
    std::istringstream is(os.str());
    m2.image().loadMarkers(is);
    RunResult got = m2.run(second);

    test::expectSameResults(got.results, expect.results);
}

TEST(Snapshot, SixteenSemToEightRrRestore)
{
    // The serving engine's session checkpoints must be portable
    // across deployments: state saved on a 16-cluster semantic
    // partitioning restores onto an 8-cluster round-robin machine
    // and yields identical query results.
    SemanticNetwork net_a = makeTreeKb(500, 5);
    SemanticNetwork net_b = makeTreeKb(500, 5);
    RelationType inc = net_a.relationId("includes");
    RelationType isa = net_a.relationId("is-a");

    Program mark;
    RuleId rid = mark.addRule(PropRule::chain(inc));
    mark.append(Instruction::searchNode(0, 0, 0.0f));
    mark.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::Count));
    mark.append(Instruction::barrier());

    Program query;
    RuleId up = query.addRule(PropRule::chain(isa));
    query.append(Instruction::funcMarker(
        1, ScalarFunc{ScalarFunc::Op::ThresholdGe, 2.0f}));
    query.append(Instruction::propagate(1, 2, up,
                                        MarkerFunc::AddWeight));
    query.append(Instruction::barrier());
    query.append(Instruction::collectMarker(1));
    query.append(Instruction::collectMarker(2));

    MachineConfig cfg_sem;
    cfg_sem.numClusters = 16;
    cfg_sem.partition = PartitionStrategy::Semantic;
    MachineConfig cfg_rr;
    cfg_rr.numClusters = 8;
    cfg_rr.partition = PartitionStrategy::RoundRobin;

    // Save on the 16-cluster sem machine...
    SnapMachine saver(cfg_sem);
    saver.loadKb(net_a);
    saver.run(mark);
    std::ostringstream os;
    saver.image().saveMarkers(os);

    // ...restore on the 8-cluster rr machine and query there.
    SnapMachine restorer(cfg_rr);
    restorer.loadKb(net_b);
    std::istringstream is(os.str());
    restorer.image().loadMarkers(is);
    RunResult got = restorer.run(query);

    // Reference: the query run where the state was produced.
    RunResult expect = saver.run(query);
    test::expectSameResults(got.results, expect.results);
    ASSERT_EQ(got.results.size(), 2u);
    EXPECT_FALSE(got.results[0].nodes.empty());
}

TEST(SnapshotDeath, BadHeaderIsFatal)
{
    // A node count past capacity::maxNodes must be refused before a
    // store is sized from it.
    for (const char *text :
         {"wrong 1 10\n", "snapmarkers 1 4000000000\n"}) {
        std::istringstream is(text);
        EXPECT_EXIT(loadMarkers(is), ::testing::ExitedWithCode(1),
                    "bad snapshot header")
            << text;
    }
}

TEST(SnapshotDeath, OutOfRangeNodeIsFatal)
{
    std::istringstream is("snapmarkers 1 10\nm 0 10 1.0 0\n");
    EXPECT_EXIT(loadMarkers(is), ::testing::ExitedWithCode(1),
                "bad record");
}

TEST(SnapshotDeath, BinaryWithValueIsFatal)
{
    std::istringstream is("snapmarkers 1 10\nm 64 3 1.0 0\n");
    EXPECT_EXIT(loadMarkers(is), ::testing::ExitedWithCode(1),
                "takes no value");
}

TEST(SnapshotDeath, NodeCountMismatchIsFatal)
{
    SemanticNetwork net = makeChainKb(8);
    MachineConfig cfg = MachineConfig::singleCluster(1);
    SnapMachine machine(cfg);
    machine.loadKb(net);
    std::istringstream is("snapmarkers 1 9\n");
    EXPECT_EXIT(machine.image().loadMarkers(is),
                ::testing::ExitedWithCode(1), "snapshot holds");
}

} // namespace
} // namespace snap
