/**
 * @file
 * Golden-model semantics: every Table II instruction against
 * hand-computed expectations.
 */

#include <gtest/gtest.h>

#include "runtime/reference.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

TEST(Reference, SearchNodeSetsValueAndOrigin)
{
    SemanticNetwork net = makeChainKb(4);
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    ri.execute(Instruction::searchNode(2, 5, 1.25f), rules, rs);
    EXPECT_TRUE(ri.store().test(5, 2));
    EXPECT_FLOAT_EQ(ri.store().value(5, 2), 1.25f);
    EXPECT_EQ(ri.store().origin(5, 2), 2u);
    EXPECT_FALSE(ri.store().test(5, 1));
}

TEST(Reference, SearchColorAndRelation)
{
    SemanticNetwork net;
    NodeId a = net.addNode("a", "red");
    NodeId b = net.addNode("b", "blue");
    NodeId c = net.addNode("c", "red");
    RelationType r = net.relation("r");
    net.addLink(b, r, a, 1.0f);

    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    Color red = net.colorNames().lookup("red");
    ri.execute(Instruction::searchColor(red, 0, 2.0f), rules, rs);
    EXPECT_TRUE(ri.store().test(0, a));
    EXPECT_FALSE(ri.store().test(0, b));
    EXPECT_TRUE(ri.store().test(0, c));

    ri.execute(Instruction::searchRelation(r, 1, 3.0f), rules, rs);
    EXPECT_TRUE(ri.store().test(1, b));
    EXPECT_FALSE(ri.store().test(1, a));
    EXPECT_FLOAT_EQ(ri.store().value(1, b), 3.0f);
}

TEST(Reference, PropagateCountsHops)
{
    SemanticNetwork net = makeChainKb(5);
    RelationType next = net.relationId("next");
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    RuleId rid = rules.add(PropRule::chain(next));
    ri.execute(Instruction::searchNode(0, 0, 0.0f), rules, rs);
    ri.execute(Instruction::propagate(0, 1, rid, MarkerFunc::Count),
               rules, rs);
    for (NodeId n = 1; n < 5; ++n) {
        EXPECT_TRUE(ri.store().test(1, n));
        EXPECT_FLOAT_EQ(ri.store().value(1, n),
                        static_cast<float>(n));
    }
    EXPECT_FALSE(ri.store().test(1, 0));  // origin not marked
    EXPECT_EQ(ri.stats().maxDepth, 4u);
}

TEST(Reference, PropagateMergesMinAcrossPaths)
{
    // Diamond: s -> a (w=1) -> t (w=5); s -> b (w=2) -> t (w=1).
    // AddWeight: path costs 6 and 3; t keeps 3.
    SemanticNetwork net;
    NodeId s = net.addNode("s"), a = net.addNode("a");
    NodeId b = net.addNode("b"), t = net.addNode("t");
    RelationType r = net.relation("r");
    net.addLink(s, r, a, 1);
    net.addLink(a, r, t, 5);
    net.addLink(s, r, b, 2);
    net.addLink(b, r, t, 1);

    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    RuleId rid = rules.add(PropRule::chain(r));
    ri.execute(Instruction::searchNode(s, 0, 0.0f), rules, rs);
    ri.execute(Instruction::propagate(0, 1, rid,
                                      MarkerFunc::AddWeight),
               rules, rs);
    EXPECT_FLOAT_EQ(ri.store().value(1, t), 3.0f);
    EXPECT_EQ(ri.store().origin(1, t), s);
}

TEST(Reference, PropagateTerminatesOnCycles)
{
    // 3-cycle with positive weights: AddWeight cannot improve after
    // the first lap.
    SemanticNetwork net;
    NodeId a = net.addNode("a"), b = net.addNode("b");
    NodeId c = net.addNode("c");
    RelationType r = net.relation("r");
    net.addLink(a, r, b, 1);
    net.addLink(b, r, c, 1);
    net.addLink(c, r, a, 1);

    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    RuleId rid = rules.add(PropRule::chain(r)); // maxSteps = 64
    ri.execute(Instruction::searchNode(a, 0, 0.0f), rules, rs);
    ri.execute(Instruction::propagate(0, 1, rid,
                                      MarkerFunc::AddWeight),
               rules, rs);
    EXPECT_FLOAT_EQ(ri.store().value(1, b), 1.0f);
    EXPECT_FLOAT_EQ(ri.store().value(1, c), 2.0f);
    EXPECT_FLOAT_EQ(ri.store().value(1, a), 3.0f);  // back home
}

TEST(Reference, MaxStepsBoundsReach)
{
    SemanticNetwork net = makeChainKb(10);
    RelationType next = net.relationId("next");
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    PropRule rule = PropRule::chain(next);
    rule.maxSteps = 3;
    RuleId rid = rules.add(std::move(rule));
    ri.execute(Instruction::searchNode(0, 0, 0.0f), rules, rs);
    ri.execute(Instruction::propagate(0, 1, rid, MarkerFunc::Count),
               rules, rs);
    EXPECT_TRUE(ri.store().test(1, 3));
    EXPECT_FALSE(ri.store().test(1, 4));
}

TEST(Reference, BooleanAndOrNot)
{
    SemanticNetwork net = makeChainKb(6);
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    ri.execute(Instruction::searchNode(1, 0, 2.0f), rules, rs);
    ri.execute(Instruction::searchNode(2, 0, 3.0f), rules, rs);
    ri.execute(Instruction::searchNode(2, 1, 5.0f), rules, rs);
    ri.execute(Instruction::searchNode(3, 1, 7.0f), rules, rs);

    ri.execute(Instruction::andMarker(0, 1, 2, CombineOp::Sum),
               rules, rs);
    EXPECT_FALSE(ri.store().test(2, 1));
    EXPECT_TRUE(ri.store().test(2, 2));
    EXPECT_FLOAT_EQ(ri.store().value(2, 2), 8.0f);
    EXPECT_FALSE(ri.store().test(2, 3));

    ri.execute(Instruction::orMarker(0, 1, 3, CombineOp::Max),
               rules, rs);
    EXPECT_TRUE(ri.store().test(3, 1));
    EXPECT_FLOAT_EQ(ri.store().value(3, 1), 2.0f);
    EXPECT_FLOAT_EQ(ri.store().value(3, 2), 5.0f);  // max(3,5)
    EXPECT_FLOAT_EQ(ri.store().value(3, 3), 7.0f);
    EXPECT_FALSE(ri.store().test(3, 0));

    ri.execute(Instruction::notMarker(0, 4), rules, rs);
    EXPECT_TRUE(ri.store().test(4, 0));
    EXPECT_FALSE(ri.store().test(4, 1));
    EXPECT_FALSE(ri.store().test(4, 2));
    EXPECT_TRUE(ri.store().test(4, 5));

    // In place (m3 aliases m1 or m2) over complex and binary
    // operands.  Origins differ from the nodes, so each case shows
    // whose origin the result keeps.
    MarkerStore &st = ri.store();
    const MarkerId b1 = capacity::numComplexMarkers;
    const MarkerId b2 = capacity::numComplexMarkers + 1;
    st.set(10, 1, 1.0f, 4);
    st.set(10, 2, 2.0f, 3);
    st.set(11, 2, 10.0f, 0);
    st.set(11, 3, 20.0f, 1);
    // A stale register under a clear bit must not leak into a result.
    st.set(11, 1, 100.0f, 5);
    st.clear(11, 1);
    st.setBit(b1, 0);
    st.setBit(b1, 2);
    st.setBit(b2, 2);
    st.setBit(b2, 3);

    // m11 := m10 OR m11: one side, both sides, the other side.
    ri.execute(Instruction::orMarker(10, 11, 11, CombineOp::Sum),
               rules, rs);
    EXPECT_EQ(ri.lastWork().valueOps, 3u);
    EXPECT_FALSE(st.test(11, 0));
    EXPECT_FLOAT_EQ(st.value(11, 1), 1.0f);
    EXPECT_EQ(st.origin(11, 1), 4u);
    EXPECT_FLOAT_EQ(st.value(11, 2), 12.0f);
    EXPECT_EQ(st.origin(11, 2), 3u);
    EXPECT_FLOAT_EQ(st.value(11, 3), 20.0f);
    EXPECT_EQ(st.origin(11, 3), 1u);
    EXPECT_FALSE(st.test(11, 4));

    // m10 := m10 AND m11.
    ri.execute(Instruction::andMarker(10, 11, 10, CombineOp::Max),
               rules, rs);
    EXPECT_EQ(ri.lastWork().valueOps, 2u);
    EXPECT_FLOAT_EQ(st.value(10, 1), 1.0f);
    EXPECT_EQ(st.origin(10, 1), 4u);
    EXPECT_FLOAT_EQ(st.value(10, 2), 12.0f);
    EXPECT_EQ(st.origin(10, 2), 3u);
    EXPECT_FALSE(st.test(10, 3));

    // m10 := m10 AND b1: a binary m2 adds 0 and has no origin.
    ri.execute(Instruction::andMarker(10, b1, 10, CombineOp::Sum),
               rules, rs);
    EXPECT_EQ(ri.lastWork().valueOps, 1u);
    EXPECT_FALSE(st.test(10, 1));
    EXPECT_TRUE(st.test(10, 2));
    EXPECT_FLOAT_EQ(st.value(10, 2), 12.0f);
    EXPECT_EQ(st.origin(10, 2), 3u);
    EXPECT_EQ(st.count(10), 1u);

    // m11 := b2 OR m11: the origin comes from the complex m2.
    ri.execute(Instruction::orMarker(b2, 11, 11, CombineOp::Sum),
               rules, rs);
    EXPECT_EQ(ri.lastWork().valueOps, 3u);
    EXPECT_FLOAT_EQ(st.value(11, 1), 1.0f);
    EXPECT_EQ(st.origin(11, 1), 4u);
    EXPECT_FLOAT_EQ(st.value(11, 2), 12.0f);
    EXPECT_EQ(st.origin(11, 2), 3u);
    EXPECT_FLOAT_EQ(st.value(11, 3), 20.0f);
    EXPECT_EQ(st.origin(11, 3), 1u);
    EXPECT_EQ(st.count(11), 3u);

    // Binary in place: b1 := b1 OR b2, then b2 := b1 AND b2.
    ri.execute(Instruction::orMarker(b1, b2, b1), rules, rs);
    EXPECT_EQ(ri.lastWork().valueOps, 3u);
    EXPECT_TRUE(st.test(b1, 0));
    EXPECT_FALSE(st.test(b1, 1));
    EXPECT_TRUE(st.test(b1, 2));
    EXPECT_TRUE(st.test(b1, 3));
    EXPECT_EQ(st.count(b1), 3u);
    ri.execute(Instruction::andMarker(b1, b2, b2), rules, rs);
    EXPECT_EQ(ri.lastWork().valueOps, 2u);
    EXPECT_FALSE(st.test(b2, 0));
    EXPECT_TRUE(st.test(b2, 2));
    EXPECT_TRUE(st.test(b2, 3));
    EXPECT_EQ(st.count(b2), 2u);
    EXPECT_FLOAT_EQ(st.value(b2, 2), 0.0f);
}

TEST(Reference, BooleanOverwritesStaleResult)
{
    // m3 := m1 AND m2 must RESET m3 where the condition fails.
    SemanticNetwork net = makeChainKb(3);
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    ri.execute(Instruction::setMarker(2, 9.0f), rules, rs);
    ri.execute(Instruction::searchNode(0, 0, 1.0f), rules, rs);
    ri.execute(Instruction::andMarker(0, 1, 2, CombineOp::Sum),
               rules, rs);
    EXPECT_FALSE(ri.store().test(2, 0));
    EXPECT_FALSE(ri.store().test(2, 1));
    EXPECT_FALSE(ri.store().test(2, 2));
}

TEST(Reference, SetClearFuncMarker)
{
    SemanticNetwork net = makeChainKb(4);
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    ri.execute(Instruction::setMarker(0, 1.5f), rules, rs);
    EXPECT_EQ(ri.store().count(0), 4u);
    EXPECT_FLOAT_EQ(ri.store().value(0, 3), 1.5f);

    ri.execute(Instruction::funcMarker(
                   0, ScalarFunc{ScalarFunc::Op::Add, 1.0f}),
               rules, rs);
    EXPECT_FLOAT_EQ(ri.store().value(0, 2), 2.5f);

    ri.execute(Instruction::searchNode(1, 0, 0.5f), rules, rs);
    ri.execute(Instruction::funcMarker(
                   0, ScalarFunc{ScalarFunc::Op::ThresholdGe, 1.0f}),
               rules, rs);
    EXPECT_FALSE(ri.store().test(0, 1));  // 0.5 < 1.0: cleared
    EXPECT_TRUE(ri.store().test(0, 2));

    ri.execute(Instruction::clearMarker(0), rules, rs);
    EXPECT_EQ(ri.store().count(0), 0u);
}

TEST(Reference, MarkerMaintenanceCreatesBothDirections)
{
    SemanticNetwork net = makeChainKb(5);
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    RelationType fwd = net.relation("bound-to");
    RelationType rev = net.relation("holds");

    ri.execute(Instruction::searchNode(1, 0, 0.0f), rules, rs);
    ri.execute(Instruction::searchNode(2, 0, 0.0f), rules, rs);
    ri.execute(Instruction::markerCreate(0, fwd, 4, rev), rules, rs);

    EXPECT_TRUE(net.setWeight(1, fwd, 4, 0.0f));  // link exists
    EXPECT_TRUE(net.setWeight(4, rev, 1, 0.0f));
    EXPECT_TRUE(net.setWeight(4, rev, 2, 0.0f));

    ri.execute(Instruction::markerDelete(0, fwd, 4, rev), rules, rs);
    EXPECT_FALSE(net.setWeight(1, fwd, 4, 0.0f));
    EXPECT_FALSE(net.setWeight(4, rev, 1, 0.0f));
}

TEST(Reference, MarkerSetColorAndNodeMaintenance)
{
    SemanticNetwork net = makeChainKb(4);
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    Color act = net.colorNames().intern("active");

    ri.execute(Instruction::searchNode(2, 0, 0.0f), rules, rs);
    ri.execute(Instruction::markerSetColor(0, act), rules, rs);
    EXPECT_EQ(net.color(2), act);
    EXPECT_NE(net.color(1), act);

    RelationType r = net.relation("extra");
    ri.execute(Instruction::create(0, r, 0.7f, 3), rules, rs);
    EXPECT_EQ(net.fanout(0), 2u);
    ri.execute(Instruction::del(0, r, 3), rules, rs);
    EXPECT_EQ(net.fanout(0), 1u);

    ri.execute(Instruction::setColor(1, act), rules, rs);
    EXPECT_EQ(net.color(1), act);
}

TEST(Reference, Collects)
{
    SemanticNetwork net = makeChainKb(6, "next", 2.0f);
    RelationType next = net.relationId("next");
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;

    ri.execute(Instruction::searchNode(1, 0, 4.0f), rules, rs);
    ri.execute(Instruction::searchNode(4, 0, 6.0f), rules, rs);
    ri.execute(Instruction::collectMarker(0), rules, rs);
    ASSERT_EQ(rs.size(), 1u);
    ASSERT_EQ(rs[0].nodes.size(), 2u);
    EXPECT_EQ(rs[0].nodes[0].node, 1u);
    EXPECT_FLOAT_EQ(rs[0].nodes[0].value, 4.0f);
    EXPECT_EQ(rs[0].nodes[1].node, 4u);

    ri.execute(Instruction::collectRelation(0, next), rules, rs);
    ASSERT_EQ(rs.size(), 2u);
    ASSERT_EQ(rs[1].links.size(), 2u);
    EXPECT_EQ(rs[1].links[0].src, 1u);
    EXPECT_EQ(rs[1].links[0].dst, 2u);
    EXPECT_FLOAT_EQ(rs[1].links[0].weight, 2.0f);

    Color c0 = 0;
    ri.execute(Instruction::collectColor(c0), rules, rs);
    ASSERT_EQ(rs.size(), 3u);
    EXPECT_EQ(rs[2].nodes.size(), 6u);
}

TEST(Reference, InstrWorkCountersPopulated)
{
    SemanticNetwork net = makeChainKb(50);
    RelationType next = net.relationId("next");
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    RuleId rid = rules.add(PropRule::chain(next));

    ri.execute(Instruction::setMarker(0, 1.0f), rules, rs);
    // 50 nodes -> 2 status words; complex marker -> 50 value writes.
    EXPECT_EQ(ri.lastWork().wordOps, 2u);
    EXPECT_EQ(ri.lastWork().valueOps, 50u);

    ri.execute(Instruction::clearMarker(0), rules, rs);
    EXPECT_EQ(ri.lastWork().wordOps, 2u);
    EXPECT_EQ(ri.lastWork().valueOps, 0u);

    ri.execute(Instruction::searchNode(0, 0, 0.0f), rules, rs);
    ri.execute(Instruction::propagate(0, 1, rid, MarkerFunc::Count),
               rules, rs);
    const InstrWork &w = ri.lastWork();
    EXPECT_EQ(w.sources, 1u);
    EXPECT_EQ(w.deliveries, 49u);
    // Levels 0..49: the final node still expands (and finds no
    // admissible links).
    EXPECT_EQ(w.levelExpansions.size(), 50u);
    EXPECT_EQ(w.levelExpansions[0], 1u);
}

TEST(Reference, ResetClearsMarkersOnly)
{
    SemanticNetwork net = makeChainKb(4);
    ReferenceInterpreter ri(net);
    ResultSet rs;
    RuleTable rules;
    RelationType r = net.relation("extra");
    ri.execute(Instruction::setMarker(0, 1.0f), rules, rs);
    ri.execute(Instruction::create(0, r, 0.0f, 2), rules, rs);
    ri.reset();
    EXPECT_EQ(ri.store().count(0), 0u);
    EXPECT_EQ(net.fanout(0), 2u);  // network edits persist
    EXPECT_EQ(ri.stats().instructions, 0u);
}

} // namespace
} // namespace snap
