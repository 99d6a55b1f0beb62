/**
 * @file
 * Architectural behaviour of the machine model: overhead shapes
 * (Fig. 21's components), burst absorption and blocking, the
 * performance network, timing anchors, and determinism.
 */

#include <gtest/gtest.h>

#include "arch/machine.hh"
#include "nlu/kb_factory.hh"
#include "nlu/mb_parser.hh"
#include "tests/test_helpers.hh"
#include "workload/alpha_beta.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

MachineConfig
cfgWith(std::uint32_t clusters)
{
    MachineConfig cfg;
    cfg.numClusters = clusters;
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    return cfg;
}

Program
simpleProgram()
{
    Program prog;
    prog.append(Instruction::setMarker(0, 1.0f));
    prog.append(Instruction::clearMarker(0));
    prog.append(Instruction::barrier());
    return prog;
}

TEST(MachineArch, BroadcastTimeConstantInClusterCount)
{
    // The global bus reaches every cluster simultaneously, so the
    // per-instruction broadcast time must not depend on the array
    // size (Fig. 21's flat broadcast line).
    SemanticNetwork net16 = makeChainKb(64);
    std::vector<Tick> per_instr;
    for (std::uint32_t clusters : {1u, 4u, 16u}) {
        SemanticNetwork net = makeChainKb(64);
        SnapMachine machine(cfgWith(clusters));
        machine.loadKb(net);
        RunResult run = machine.run(simpleProgram());
        per_instr.push_back(run.stats.broadcastTicks / 3);
    }
    EXPECT_EQ(per_instr[0], per_instr[1]);
    EXPECT_EQ(per_instr[1], per_instr[2]);
    EXPECT_GT(per_instr[0], 0u);
}

TEST(MachineArch, BarrierDetectionGrowsLinearlyInClusters)
{
    // t_sync = tree settle + P x counter-read + release: affine in P
    // with a small slope (paper: "proportional to the number of
    // processors, but the dependency is small").
    std::vector<Tick> sync_per_barrier;
    for (std::uint32_t clusters : {2u, 4u, 8u, 16u}) {
        SemanticNetwork net = makeChainKb(64);
        SnapMachine machine(cfgWith(clusters));
        machine.loadKb(net);
        RunResult run = machine.run(simpleProgram());
        ASSERT_EQ(run.stats.barriers, 1u);
        sync_per_barrier.push_back(run.stats.syncTicks);
    }
    // Strictly increasing...
    for (std::size_t i = 1; i < sync_per_barrier.size(); ++i)
        EXPECT_GT(sync_per_barrier[i], sync_per_barrier[i - 1]);
    // ...and affine: equal second differences under doubling.
    Tick d1 = sync_per_barrier[1] - sync_per_barrier[0];  // +2 cl
    Tick d2 = sync_per_barrier[2] - sync_per_barrier[1];  // +4 cl
    Tick d3 = sync_per_barrier[3] - sync_per_barrier[2];  // +8 cl
    EXPECT_EQ(d2, 2 * d1);
    EXPECT_EQ(d3, 2 * d2);
}

TEST(MachineArch, CollectOverheadGrowsWithClusters)
{
    // COLLECT visits each cluster's dual-port serially (the paper's
    // dominant overhead component).
    std::vector<Tick> collect_ticks;
    for (std::uint32_t clusters : {1u, 4u, 16u}) {
        SemanticNetwork net = makeChainKb(64);
        SnapMachine machine(cfgWith(clusters));
        machine.loadKb(net);
        Program prog;
        prog.append(Instruction::setMarker(0, 1.0f));
        prog.append(Instruction::collectMarker(0));
        RunResult run = machine.run(prog);
        EXPECT_EQ(run.results[0].nodes.size(), 64u);
        collect_ticks.push_back(run.stats.collectTicks);
    }
    EXPECT_GT(collect_ticks[1], collect_ticks[0]);
    EXPECT_GT(collect_ticks[2], collect_ticks[1]);
}

TEST(MachineArch, MessageTrafficCountedPerEpoch)
{
    // Round-robin chain: every hop crosses clusters.
    SemanticNetwork net = makeChainKb(12);
    RelationType next = net.relationId("next");
    SnapMachine machine(cfgWith(4));
    machine.loadKb(net);

    Program prog;
    RuleId rid = prog.addRule(PropRule::chain(next));
    prog.append(Instruction::searchNode(0, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid, MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::clearMarker(1));
    prog.append(Instruction::propagate(0, 2, rid, MarkerFunc::Count));
    prog.append(Instruction::barrier());

    RunResult run = machine.run(prog);
    EXPECT_EQ(run.stats.messagesSent, 22u);  // 11 per propagation
    ASSERT_EQ(run.stats.msgsPerEpoch.size(), 2u);
    EXPECT_EQ(run.stats.msgsPerEpoch[0], 11u);
    EXPECT_EQ(run.stats.msgsPerEpoch[1], 11u);
    EXPECT_EQ(run.stats.barriers, 2u);
    EXPECT_GT(run.stats.msgLatency.mean(), 0.0);
    EXPECT_EQ(run.stats.arrivalsProcessed, 22u);
    EXPECT_EQ(run.stats.maxDepth, 11u);
}

TEST(MachineArch, TinyQueuesBlockButStayCorrect)
{
    // Choke the interconnect: 1-deep mailboxes and a 2-deep
    // activation-out queue, then blast a 60-spoke star across
    // clusters.  Senders must block (burst behaviour) and the
    // result must still match the golden model exactly.
    SemanticNetwork net_machine = makeStarKb(60);
    SemanticNetwork net_golden = makeStarKb(60);
    RelationType rel = net_machine.relationId("spoke");

    MachineConfig cfg = cfgWith(8);
    cfg.t.icnMailboxDepth = 1;
    cfg.t.activationOutDepth = 2;
    SnapMachine machine(cfg);
    machine.loadKb(net_machine);

    Program prog;
    RuleId rid = prog.addRule(PropRule::step1(rel));
    prog.append(Instruction::searchNode(0, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));

    RunResult run = machine.run(prog);
    // The 60-message burst saturated the 2-deep activation memory:
    // the sending MU blocked until the CU drained it.
    ClusterId hub = machine.image().place(0).cluster;
    EXPECT_EQ(machine.cluster(hub).activationOutHighWater(), 2u);
    // The stall path's timing: the wall and how often a CU found its
    // next hop's port memory full, pinned exactly.
    EXPECT_EQ(run.wallTicks, 210287500ull);
    EXPECT_EQ(machine.icn().blockedSends, 21ull);

    ReferenceInterpreter golden(net_golden);
    ResultSet gres = golden.run(prog);
    test::expectSameResults(run.results, gres);
}

TEST(MachineArch, ExtremeContentionMatchesGolden)
{
    // Regression for CU wakeup reentrancy: 1-deep mailboxes and
    // 2-deep activation queues under dense random traffic produce
    // long chains of blocked senders waking each other recursively.
    // The run must complete (no double-scheduled events) and match
    // the golden model exactly.
    SemanticNetwork net_machine = makeRandomKb(300, 4.0, 2, 33);
    SemanticNetwork net_golden = makeRandomKb(300, 4.0, 2, 33);
    RelationType r0 = net_machine.relationId("r0");
    RelationType r1 = net_machine.relationId("r1");

    MachineConfig cfg = cfgWith(16);
    cfg.t.icnMailboxDepth = 1;
    cfg.t.activationOutDepth = 2;
    SnapMachine machine(cfg);
    machine.loadKb(net_machine);

    Program prog;
    PropRule rule = PropRule::comb(r0, r1);
    rule.maxSteps = 6;
    RuleId rid = prog.addRule(std::move(rule));
    for (NodeId s = 0; s < 12; ++s)
        prog.append(Instruction::searchNode(s * 23, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));

    RunResult run = machine.run(prog);
    EXPECT_EQ(run.wallTicks, 5744447500ull);
    EXPECT_EQ(machine.icn().blockedSends, 3267ull);

    ReferenceInterpreter golden(net_golden);
    ResultSet gres = golden.run(prog);
    test::expectSameResults(run.results, gres);
    test::expectSameMarkers(machine.image(), golden.store(),
                            net_golden.numNodes());
}

TEST(MachineArch, PerfNetObservesExecution)
{
    SemanticNetwork net = makeChainKb(32);
    RelationType next = net.relationId("next");
    SnapMachine machine(cfgWith(4));
    machine.loadKb(net);

    Program prog;
    RuleId rid = prog.addRule(PropRule::chain(next));
    prog.append(Instruction::searchNode(0, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid, MarkerFunc::Count));
    prog.append(Instruction::barrier());

    RunResult run = machine.run(prog);
    (void)run;
    const auto &recs = machine.perfNet().records();
    EXPECT_FALSE(recs.empty());

    bool saw_decode = false, saw_msg = false, saw_barrier = false;
    for (const auto &r : recs) {
        saw_decode |= r.event == PerfEvent::InstrDecoded;
        saw_msg |= r.event == PerfEvent::MsgSent;
        saw_barrier |= r.event == PerfEvent::BarrierComplete;
    }
    EXPECT_TRUE(saw_decode);
    EXPECT_TRUE(saw_msg);
    EXPECT_TRUE(saw_barrier);

    // Timestamps are monotone per PE's shift serialization and all
    // within the run.
    for (const auto &r : recs)
        EXPECT_LE(r.timestamp,
                  machine.now() + machine.perfNet().shiftTime());
}

TEST(MachineArch, SetClearAnchorsNearFiftyMicroseconds)
{
    // Paper §IV: "Each instruction varies in execution time from
    // 50 us for SET/CLEAR operations...".  Paper setup: 16 clusters,
    // KB of ~12K nodes.
    LinguisticKbParams params;
    params.nonlexicalNodes = 9000;
    params.vocabulary = 800;
    LinguisticKb kb(params);

    MachineConfig cfg = MachineConfig::paperSetup();
    SnapMachine machine(cfg);
    machine.loadKb(kb.net());

    auto measure = [&](std::uint32_t n) {
        Program prog;
        for (std::uint32_t i = 0; i < n; ++i)
            prog.append(Instruction::clearMarker(64));
        return machine.run(prog).wallTicks;
    };
    Tick t1 = measure(1);
    Tick t21 = measure(21);
    double per_instr_us = ticksToUs(t21 - t1) / 20.0;
    EXPECT_GT(per_instr_us, 15.0);
    EXPECT_LT(per_instr_us, 150.0);
}

TEST(MachineArch, PropagateAnchorsNearHundredsOfMicroseconds)
{
    // "...to several hundred microseconds for PROPAGATE, depending
    // on the length of the path traversed.  The maximum distances of
    // any path of individual propagations ranged from 10 to 15
    // steps."
    LinguisticKbParams params;
    params.nonlexicalNodes = 9000;
    LinguisticKb kb(params);
    MachineConfig cfg = MachineConfig::paperSetup();
    SnapMachine machine(cfg);
    machine.loadKb(kb.net());

    Program prog;
    PropRule up = PropRule::spread(kb.relMeans(), kb.relIsA());
    up.maxSteps = 15;
    RuleId rid = prog.addRule(std::move(up));
    prog.append(Instruction::searchColor(kb.colorLexical(), 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());

    RunResult run = machine.run(prog);
    double us = run.wallUs();
    EXPECT_GT(us, 50.0);
    EXPECT_LT(us, 10000.0);  // all 800 words at once: a giant propagate
    EXPECT_GE(run.stats.maxDepth, 3u);
    EXPECT_LE(run.stats.maxDepth, 15u);
}

TEST(MachineArch, DeterministicAcrossRuns)
{
    auto run_once = [] {
        SemanticNetwork net = makeRandomKb(150, 3.0, 3, 21);
        RelationType r0 = net.relationId("r0");
        RelationType r1 = net.relationId("r1");
        SnapMachine machine(cfgWith(8));
        machine.loadKb(net);
        Program prog;
        RuleId rid = prog.addRule(PropRule::comb(r0, r1));
        prog.append(Instruction::searchNode(3, 0, 0.0f));
        prog.append(Instruction::searchNode(77, 0, 0.5f));
        prog.append(Instruction::propagate(0, 1, rid,
                                           MarkerFunc::AddWeight));
        prog.append(Instruction::barrier());
        prog.append(Instruction::collectMarker(1));
        return machine.run(prog);
    };
    RunResult a = run_once();
    RunResult b = run_once();
    EXPECT_EQ(a.wallTicks, b.wallTicks);
    EXPECT_EQ(a.stats.messagesSent, b.stats.messagesSent);
    ASSERT_EQ(a.results.size(), b.results.size());
    EXPECT_EQ(a.results[0].nodes.size(), b.results[0].nodes.size());
}

TEST(MachineArch, AlphaParallelismSpeedsUpPropagation)
{
    // The same total work (alpha * depth traversals) runs faster on
    // 16 clusters than on 1 — the premise of Fig. 16.
    Workload w1 = makeAlphaWorkload(640, 128, 4, 1, 5);
    Workload w2 = makeAlphaWorkload(640, 128, 4, 1, 5);

    SnapMachine one(cfgWith(1));
    one.loadKb(w1.net);
    Tick t_one = one.run(w1.prog).wallTicks;

    SnapMachine sixteen(cfgWith(16));
    sixteen.loadKb(w2.net);
    Tick t_sixteen = sixteen.run(w2.prog).wallTicks;

    EXPECT_GT(static_cast<double>(t_one) /
                  static_cast<double>(t_sixteen), 4.0);
}

TEST(MachineArch, TaskQueueBackpressureStallsPu)
{
    // A 1-deep marker processing memory: the PU must stall on
    // dispatch when the MU is behind, resume when tasks drain, and
    // everything still executes in order.
    SemanticNetwork net_machine = makeChainKb(200);
    SemanticNetwork net_golden = makeChainKb(200);

    MachineConfig cfg = cfgWith(2);
    cfg.t.taskQueueDepth = 1;
    cfg.musPerCluster.assign(2, 1);
    SnapMachine machine(cfg);
    machine.loadKb(net_machine);

    Program prog;
    for (int i = 0; i < 20; ++i) {
        prog.append(Instruction::setMarker(
            static_cast<MarkerId>(i % 4), static_cast<float>(i)));
        prog.append(Instruction::andMarker(
            static_cast<MarkerId>(i % 4), 0, 5, CombineOp::Sum));
    }
    prog.append(Instruction::collectMarker(5));

    const std::uint64_t before = machine.eventsProcessed();
    RunResult run = machine.run(prog);
    ReferenceInterpreter golden(net_golden);
    ResultSet gres = golden.run(prog);
    test::expectSameResults(run.results, gres);
    EXPECT_EQ(run.wallTicks, 2735337500u);
    // One PU event per instruction: every instruction here is
    // dispatched on both clusters, and the two-phase PU spent an
    // event of its own on each dispatch.
    constexpr std::uint64_t kTwoPhaseEvents = 332;
    const std::uint64_t dispatches = prog.size() * 2;
    EXPECT_EQ(machine.eventsProcessed() - before,
              kTwoPhaseEvents - dispatches);
}

TEST(MachineArch, PuSpendsOneEventPerInstruction)
{
    // The PU decodes every broadcast instruction and dispatches a task
    // only on the clusters that act on it.  Decode and dispatch are
    // one timed occupancy, so the PU's event count is one per
    // instruction per cluster whatever it does; the timing and the
    // results are those of the two-phase PU, which spent a second
    // event on every dispatch.
    constexpr std::uint32_t kClusters = 16;
    SemanticNetwork net_machine = makeChainKb(64);
    SemanticNetwork net_golden = makeChainKb(64);
    SnapMachine machine(cfgWith(kClusters));
    machine.loadKb(net_machine);

    Program prog;
    prog.append(Instruction::setMarker(0, 1.0f));          // all 16
    prog.append(Instruction::searchNode(5, 1, 0.5f));      // owner only
    prog.append(Instruction::andMarker(0, 1, 2));          // all 16
    prog.append(Instruction::barrier());                   // none
    prog.append(Instruction::collectMarker(2));            // all 16
    const std::uint64_t dispatches = 3 * kClusters + 1;

    const std::uint64_t before = machine.eventsProcessed();
    RunResult run = machine.run(prog);
    ReferenceInterpreter golden(net_golden);
    test::expectSameResults(run.results, golden.run(prog));
    ASSERT_EQ(run.results.size(), 1u);
    EXPECT_EQ(run.results[0].nodes.size(), 1u);
    EXPECT_EQ(run.wallTicks, 108567500u);
    EXPECT_EQ(run.stats.puBusyTicks, 878400000u);
    constexpr std::uint64_t kTwoPhaseEvents = 210;
    EXPECT_EQ(machine.eventsProcessed() - before,
              kTwoPhaseEvents - dispatches);
}

TEST(MachineArch, InstructionQueueBackpressure)
{
    // A long stream of fast instructions with a tiny queue: the SCP
    // must stall rather than overrun, and everything still executes.
    // The wall pins when the stalled SCP resumes: one wire lag after
    // the last full queue's PU pops.
    struct Case
    {
        std::uint32_t clusters;
        std::uint32_t depth;
        Tick wall;
    };
    const Case cases[] = {{2, 2, 817257500}, {16, 1, 768227500}};
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << c.clusters
                                        << " clusters, depth " << c.depth);
        SemanticNetwork net = makeChainKb(256);
        MachineConfig cfg = cfgWith(c.clusters);
        cfg.t.instrQueueDepth = c.depth;
        SnapMachine machine(cfg);
        machine.loadKb(net);

        Program prog;
        for (int i = 0; i < 50; ++i)
            prog.append(Instruction::setMarker(64, 0.0f));
        prog.append(Instruction::collectMarker(64));
        RunResult run = machine.run(prog);
        EXPECT_EQ(run.results[0].nodes.size(), 256u);
        EXPECT_EQ(run.stats.opcodeCounts[static_cast<std::size_t>(
                      Opcode::SetMarker)], 50u);
        EXPECT_EQ(run.wallTicks, c.wall);
    }
}

} // namespace
} // namespace snap
