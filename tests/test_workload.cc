/**
 * @file
 * Tests for the synthetic KB generators and α/β workloads.
 */

#include <gtest/gtest.h>

#include "arch/machine.hh"
#include "runtime/reference.hh"
#include "runtime/validate.hh"
#include "workload/alpha_beta.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

TEST(KbGen, TreeShape)
{
    SemanticNetwork net = makeTreeKb(85, 4);
    EXPECT_EQ(net.numNodes(), 85u);
    EXPECT_EQ(net.numLinks(), 2u * 84u);  // is-a + includes per child
    EXPECT_EQ(net.colorNames().name(net.color(0)), "root");
    // Node 1's parent is node 0.
    RelationType isa = net.relationId("is-a");
    bool found = false;
    for (const Link &l : net.links(1))
        if (l.rel == isa && l.dst == 0)
            found = true;
    EXPECT_TRUE(found);
}

TEST(KbGen, TreeDepthFormula)
{
    EXPECT_EQ(treeDepth(1, 4), 0u);
    EXPECT_EQ(treeDepth(5, 4), 1u);
    EXPECT_EQ(treeDepth(6, 4), 2u);
    EXPECT_EQ(treeDepth(21, 4), 2u);
    // And it matches reality: propagate root-to-leaf.
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    ReferenceInterpreter ri(net);
    RuleTable rules;
    RuleId rid = rules.add(PropRule::chain(inc));
    ResultSet rs;
    ri.execute(Instruction::searchNode(0, 0, 0.0f), rules, rs);
    ri.execute(Instruction::propagate(0, 1, rid, MarkerFunc::Count),
               rules, rs);
    EXPECT_EQ(ri.stats().maxDepth, treeDepth(300, 4));
}

TEST(KbGen, RandomKbDeterministicAndBounded)
{
    SemanticNetwork a = makeRandomKb(100, 3.0, 4, 42);
    SemanticNetwork b = makeRandomKb(100, 3.0, 4, 42);
    EXPECT_EQ(a.numLinks(), b.numLinks());
    EXPECT_LE(a.maxFanout(), capacity::relationSlotsPerNode);
    // No self loops.
    for (NodeId u = 0; u < a.numNodes(); ++u)
        for (const Link &l : a.links(u))
            EXPECT_NE(l.dst, u);
    // Average fanout in the right ballpark.
    double avg = static_cast<double>(a.numLinks()) / a.numNodes();
    EXPECT_GT(avg, 1.5);
    EXPECT_LT(avg, 5.0);
}

TEST(AlphaWorkload, AlphaIsExact)
{
    Workload w = makeAlphaWorkload(600, 37, 3, 2, 9);
    EXPECT_TRUE(validateProgram(w.prog).empty());

    MachineConfig cfg;
    cfg.numClusters = 4;
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);
    RunResult run = machine.run(w.prog);

    // Two rounds, each PROPAGATE activating exactly 37 sources.
    EXPECT_EQ(run.stats.alphaDist.count(), 2u);
    EXPECT_DOUBLE_EQ(run.stats.alphaDist.mean(), 37.0);
    EXPECT_DOUBLE_EQ(run.stats.alphaDist.min(), 37.0);
    EXPECT_DOUBLE_EQ(run.stats.alphaDist.max(), 37.0);
    EXPECT_EQ(run.stats.maxDepth, 3u);
    // Two rounds x (post-propagation barrier + epoch-closing
    // barrier after the clears).
    EXPECT_EQ(run.stats.barriers, 4u);
}

TEST(AlphaWorkload, FillerNodesPadTheKb)
{
    Workload w = makeAlphaWorkload(600, 10, 2, 1, 9);
    EXPECT_EQ(w.net.numNodes(), 600u);
}

TEST(BetaWorkload, GroupsAreIndependent)
{
    Workload w = makeBetaWorkload(4, 6, 5, 2, true, 3);
    EXPECT_TRUE(validateProgram(w.prog).empty());
    BetaStats st = analyzeBeta(w.prog);
    EXPECT_DOUBLE_EQ(st.betaMin, 6.0);
    EXPECT_DOUBLE_EQ(st.betaMax, 6.0);
    EXPECT_EQ(st.epochs, 2u);
}

TEST(BetaWorkload, SerializedVariantHasBetaOne)
{
    Workload w = makeBetaWorkload(4, 6, 5, 2, false, 3);
    EXPECT_TRUE(validateProgram(w.prog).empty());
    BetaStats st = analyzeBeta(w.prog);
    EXPECT_DOUBLE_EQ(st.betaMax, 1.0);
}

TEST(BetaWorkload, OverlapIsFasterOnTheMachine)
{
    // β-parallelism pays: 8 overlapped propagates beat 8 serialized
    // ones on a multi-MU machine (Fig. 17's premise).
    Workload wo = makeBetaWorkload(6, 8, 8, 2, true, 4);
    Workload ws = makeBetaWorkload(6, 8, 8, 2, false, 4);

    MachineConfig cfg;
    cfg.numClusters = 8;
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;

    SnapMachine mo(cfg);
    mo.loadKb(wo.net);
    Tick t_overlap = mo.run(wo.prog).wallTicks;

    SnapMachine ms(cfg);
    ms.loadKb(ws.net);
    Tick t_serial = ms.run(ws.prog).wallTicks;

    EXPECT_LT(t_overlap, t_serial);
}

TEST(BetaWorkload, AnalyzeCountsTailEpoch)
{
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::propagate(0, 1, r, MarkerFunc::None));
    p.append(Instruction::propagate(2, 3, r, MarkerFunc::None));
    // No trailing barrier: the tail epoch still counts.
    BetaStats st = analyzeBeta(p);
    EXPECT_EQ(st.epochs, 1u);
    EXPECT_DOUBLE_EQ(st.betaAvg, 2.0);
}

TEST(BetaWorkloadDeath, MarkerBudgetEnforced)
{
    EXPECT_DEATH(makeBetaWorkload(4, 40, 2, 1, true, 1),
                 "marker budget");
}

} // namespace
} // namespace snap
