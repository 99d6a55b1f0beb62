/**
 * @file
 * Basic SNAP machine execution: small hand-built knowledge bases,
 * one feature per test, always checked against hand-computed
 * expectations (and where useful, against the golden model).
 */

#include <gtest/gtest.h>

#include "arch/machine.hh"
#include "tests/test_helpers.hh"
#include "workload/alpha_beta.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

MachineConfig
smallConfig(std::uint32_t clusters)
{
    MachineConfig cfg;
    cfg.numClusters = clusters;
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;  // relax for tests
    return cfg;
}

TEST(MachineBasic, SearchNodeAndCollect)
{
    SemanticNetwork net = makeChainKb(8);
    SnapMachine machine(smallConfig(4));
    machine.loadKb(net);

    Program prog;
    prog.append(Instruction::searchNode(3, 0, 2.5f));
    prog.append(Instruction::collectMarker(0));

    RunResult run = machine.run(prog);
    ASSERT_EQ(run.results.size(), 1u);
    ASSERT_EQ(run.results[0].nodes.size(), 1u);
    EXPECT_EQ(run.results[0].nodes[0].node, 3u);
    EXPECT_FLOAT_EQ(run.results[0].nodes[0].value, 2.5f);
    EXPECT_EQ(run.results[0].nodes[0].origin, 3u);
    EXPECT_GT(run.wallTicks, 0u);
}

TEST(MachineBasic, PropagateChainAccumulatesWeights)
{
    // n0 -next(1.5)-> n1 -next(1.5)-> ... chain of 6.
    SemanticNetwork net = makeChainKb(6, "next", 1.5f);
    RelationType next = net.relationId("next");

    SnapMachine machine(smallConfig(4));
    machine.loadKb(net);

    Program prog;
    PropRule rule = PropRule::chain(next);
    RuleId rid = prog.addRule(std::move(rule));
    prog.append(Instruction::searchNode(0, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));

    RunResult run = machine.run(prog);
    ASSERT_EQ(run.results.size(), 1u);
    CollectResult res = run.results[0];
    res.sortNodes();
    ASSERT_EQ(res.nodes.size(), 5u);  // n1..n5, origin excluded
    for (std::size_t k = 0; k < res.nodes.size(); ++k) {
        EXPECT_EQ(res.nodes[k].node, k + 1);
        EXPECT_FLOAT_EQ(res.nodes[k].value,
                        1.5f * static_cast<float>(k + 1));
        EXPECT_EQ(res.nodes[k].origin, 0u);
    }
    // Round-robin over 4 clusters: consecutive chain nodes live in
    // different clusters, so messages crossed the ICN.
    EXPECT_GE(run.stats.messagesSent, 5u);
    EXPECT_EQ(run.stats.barriers, 1u);
}

TEST(MachineBasic, SpreadRuleSwitchesRelations)
{
    // a -r1-> b -r1-> c -r2-> d -r2-> e and a stray c -r1-> f
    // after the switch to r2, f must NOT be reached via r1... but
    // spread(r1,r2) = r1* r2*: path a,b,c,f is all-r1 so f IS
    // reachable; path c->d->e switches.  Also d -r1-> g must not be
    // reached (r1 after r2 is not admissible).
    SemanticNetwork net;
    for (const char *n : {"a", "b", "c", "d", "e", "f", "g"})
        net.addNode(n);
    RelationType r1 = net.relation("r1");
    RelationType r2 = net.relation("r2");
    NodeId a = net.node("a"), b = net.node("b"), c = net.node("c");
    NodeId d = net.node("d"), e = net.node("e"), f = net.node("f");
    NodeId g = net.node("g");
    net.addLink(a, r1, b, 1);
    net.addLink(b, r1, c, 1);
    net.addLink(c, r2, d, 1);
    net.addLink(d, r2, e, 1);
    net.addLink(c, r1, f, 1);
    net.addLink(d, r1, g, 1);

    SnapMachine machine(smallConfig(2));
    machine.loadKb(net);

    Program prog;
    RuleId rid = prog.addRule(PropRule::spread(r1, r2));
    prog.append(Instruction::searchNode(a, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));

    RunResult run = machine.run(prog);
    CollectResult res = run.results[0];
    res.sortNodes();
    std::vector<NodeId> got;
    for (const auto &nd : res.nodes)
        got.push_back(nd.node);
    EXPECT_EQ(got, (std::vector<NodeId>{b, c, d, e, f}));
    EXPECT_FALSE(machine.markerSet(1, g));
    EXPECT_FALSE(machine.markerSet(1, a));
}

TEST(MachineBasic, BooleanAndSetClear)
{
    SemanticNetwork net = makeChainKb(10);
    SnapMachine machine(smallConfig(4));
    machine.loadKb(net);

    Program prog;
    prog.append(Instruction::setMarker(0, 1.0f));  // m0 everywhere
    prog.append(Instruction::searchNode(2, 1, 2.0f));
    prog.append(Instruction::searchNode(7, 1, 3.0f));
    prog.append(Instruction::andMarker(0, 1, 2, CombineOp::Sum));
    prog.append(Instruction::collectMarker(2));
    prog.append(Instruction::notMarker(1, 3));
    prog.append(Instruction::collectMarker(3));
    prog.append(Instruction::clearMarker(0));
    prog.append(Instruction::collectMarker(0));

    RunResult run = machine.run(prog);
    ASSERT_EQ(run.results.size(), 3u);

    CollectResult andres = run.results[0];
    andres.sortNodes();
    ASSERT_EQ(andres.nodes.size(), 2u);
    EXPECT_EQ(andres.nodes[0].node, 2u);
    EXPECT_FLOAT_EQ(andres.nodes[0].value, 3.0f);  // 1 + 2
    EXPECT_EQ(andres.nodes[1].node, 7u);
    EXPECT_FLOAT_EQ(andres.nodes[1].value, 4.0f);  // 1 + 3

    EXPECT_EQ(run.results[1].nodes.size(), 8u);  // NOT of 2 set
    EXPECT_EQ(run.results[2].nodes.size(), 0u);  // cleared
}

TEST(MachineBasic, MatchesGoldenOnChainWorkload)
{
    SemanticNetwork net_machine = makeChainKb(12, "next", 0.5f);
    SemanticNetwork net_golden = makeChainKb(12, "next", 0.5f);
    RelationType next = net_machine.relationId("next");

    Program prog;
    RuleId rid = prog.addRule(PropRule::chain(next));
    prog.append(Instruction::searchNode(0, 0, 0.0f));
    prog.append(Instruction::searchNode(5, 0, 0.25f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));

    SnapMachine machine(smallConfig(4));
    machine.loadKb(net_machine);
    RunResult run = machine.run(prog);

    ReferenceInterpreter golden(net_golden);
    ResultSet gres = golden.run(prog);

    test::expectSameResults(run.results, gres);
    test::expectSameMarkers(machine.image(), golden.store(),
                            net_golden.numNodes());
}

TEST(MachineBasic, MarkerCreateInstallsRemoteReverseLinks)
{
    SemanticNetwork net = makeChainKb(8);
    RelationType next = net.relationId("next");
    NodeId end = 7;

    SnapMachine machine(smallConfig(4));
    machine.loadKb(net);

    Program prog;
    RuleId rid = prog.addRule(PropRule::chain(next));
    RelationType bound = net.relation("bound-to");
    RelationType holds = net.relation("holds");
    prog.append(Instruction::searchNode(0, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::None));
    prog.append(Instruction::barrier());
    prog.append(Instruction::markerCreate(1, bound, end, holds));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectRelation(1, bound));

    RunResult run = machine.run(prog);
    ASSERT_EQ(run.results.size(), 1u);
    CollectResult res = run.results[0];
    res.sortNodes();
    // m1 is set on n1..n7; each got a bound-to link to n7.
    ASSERT_EQ(res.links.size(), 7u);
    for (std::size_t k = 0; k < res.links.size(); ++k) {
        EXPECT_EQ(res.links[k].src, k + 1);
        EXPECT_EQ(res.links[k].dst, end);
        EXPECT_EQ(res.links[k].rel, bound);
    }
}

TEST(MachineBasic, AlphaDistributionMeasured)
{
    SemanticNetwork net = makeChainKb(16);
    RelationType next = net.relationId("next");

    SnapMachine machine(smallConfig(4));
    machine.loadKb(net);

    Program prog;
    RuleId rid = prog.addRule(PropRule::step1(next));
    for (NodeId n : {0u, 3u, 6u, 9u})
        prog.append(Instruction::searchNode(n, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::None));
    prog.append(Instruction::barrier());

    RunResult run = machine.run(prog);
    EXPECT_EQ(run.stats.alphaDist.count(), 1u);
    EXPECT_DOUBLE_EQ(run.stats.alphaDist.mean(), 4.0);
}

TEST(MachineBasic, RunTwiceKeepsMarkerState)
{
    SemanticNetwork net = makeChainKb(6);
    SnapMachine machine(smallConfig(2));
    machine.loadKb(net);

    Program p1;
    p1.append(Instruction::searchNode(1, 0, 1.0f));
    machine.run(p1);

    Program p2;
    p2.append(Instruction::collectMarker(0));
    RunResult run = machine.run(p2);
    ASSERT_EQ(run.results.size(), 1u);
    ASSERT_EQ(run.results[0].nodes.size(), 1u);
    EXPECT_EQ(run.results[0].nodes[0].node, 1u);
}

/** Every ExecBreakdown field, distributions bit for bit. */
void
expectSameBreakdown(const ExecBreakdown &a, const ExecBreakdown &b)
{
    EXPECT_EQ(a.wallTicks, b.wallTicks);
    for (std::size_t c = 0; c < ExecBreakdown::numCats; ++c) {
        auto cat = static_cast<InstrCategory>(c);
        EXPECT_EQ(a.categoryTicks(cat), b.categoryTicks(cat))
            << "categoryTicks " << c;
        EXPECT_EQ(a.categoryBusy[c], b.categoryBusy[c])
            << "categoryBusy " << c;
        EXPECT_EQ(a.categoryCounts[c], b.categoryCounts[c])
            << "categoryCounts " << c;
    }
    EXPECT_EQ(a.opcodeCounts, b.opcodeCounts);
    EXPECT_EQ(a.broadcastTicks, b.broadcastTicks);
    EXPECT_EQ(a.commTicks, b.commTicks);
    EXPECT_EQ(a.syncTicks, b.syncTicks);
    EXPECT_EQ(a.collectTicks, b.collectTicks);
    EXPECT_EQ(a.messagesSent, b.messagesSent);
    EXPECT_EQ(a.messageHops, b.messageHops);
    EXPECT_EQ(a.arrivalsProcessed, b.arrivalsProcessed);
    EXPECT_EQ(a.localDeliveries, b.localDeliveries);
    EXPECT_EQ(a.expansions, b.expansions);
    EXPECT_EQ(a.linkTraversals, b.linkTraversals);
    EXPECT_EQ(a.barriers, b.barriers);
    EXPECT_EQ(a.collects, b.collects);
    EXPECT_EQ(a.collectedItems, b.collectedItems);
    EXPECT_EQ(a.puBusyTicks, b.puBusyTicks);
    EXPECT_EQ(a.muBusyTicks, b.muBusyTicks);
    EXPECT_EQ(a.msgsPerEpoch, b.msgsPerEpoch);
    EXPECT_EQ(a.maxDepth, b.maxDepth);
    EXPECT_EQ(a.alphaDist.count(), b.alphaDist.count());
    EXPECT_EQ(a.alphaDist.sum(), b.alphaDist.sum());
    EXPECT_EQ(a.msgLatency.count(), b.msgLatency.count());
    EXPECT_EQ(a.msgLatency.sum(), b.msgLatency.sum());
    EXPECT_EQ(a.msgLatency.min(), b.msgLatency.min());
    EXPECT_EQ(a.msgLatency.max(), b.msgLatency.max());
}

/** A machine that has already run a program, with its markers reset,
 *  answers exactly like a fresh one: same results, simulated time,
 *  and full statistics breakdown.  The serving engine's answer cache
 *  stands on this. */
TEST(MachineBasic, RepeatedStatelessRunsAgree)
{
    Workload w = makeBetaWorkload(6, 4, 6, 1, true, 5);
    for (std::uint32_t j = 0; j < 4; ++j) {
        w.prog.append(Instruction::collectMarker(
            static_cast<MarkerId>(2 * j + 1)));
    }
    MachineConfig cfg = smallConfig(16);

    SnapMachine fresh(cfg);
    fresh.loadKb(w.net);
    RunResult first = fresh.run(w.prog);

    SnapMachine reused(cfg);
    reused.loadKb(w.net);
    reused.run(w.prog);
    reused.image().resetMarkers();
    RunResult again = reused.run(w.prog);

    EXPECT_EQ(again.wallTicks, first.wallTicks);
    test::expectSameResults(first.results, again.results);
    expectSameBreakdown(first.stats, again.stats);
}

} // namespace
} // namespace snap
