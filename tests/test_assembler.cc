/**
 * @file
 * Tests for the SNAP text assembler, including the paper's Fig. 5
 * program written literally.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "runtime/reference.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

SemanticNetwork
fig1Network()
{
    // A miniature of the paper's Fig. 1 knowledge base: lexical
    // nodes, syntax nodes, and one concept sequence.
    SemanticNetwork net;
    for (const char *n :
         {"we", "see", "a", "plane", "NP", "VP", "DO", "animate",
          "seeing-event", "experiencer", "see-elem", "object"})
        net.addNode(n);
    NodeId we = net.node("we"), np = net.node("NP");
    NodeId see = net.node("see"), vp = net.node("VP");
    NodeId plane = net.node("plane"), dobj = net.node("DO");
    NodeId animate = net.node("animate");
    NodeId root = net.node("seeing-event");
    NodeId e1 = net.node("experiencer"), e2 = net.node("see-elem");
    NodeId e3 = net.node("object");
    net.addLink(we, "is-a", np, 1);
    net.addLink(we, "is-a", animate, 1);
    net.addLink(see, "is-a", vp, 1);
    net.addLink(plane, "is-a", dobj, 1);
    net.addLink(np, "last", e1, 1);
    net.addLink(vp, "last", e2, 1);
    net.addLink(dobj, "last", e3, 1);
    net.addLink(e1, "part-of", root, 1);
    net.addLink(e2, "part-of", root, 1);
    net.addLink(e3, "part-of", root, 1);
    return net;
}

/** Assemble text the test expects to be accepted. */
Program
assembleOk(const std::string &text, SemanticNetwork &net)
{
    Program prog;
    std::string err;
    EXPECT_TRUE(assemble(text, net, prog, err)) << err;
    return prog;
}

/** The message refusing text the test expects to be refused. */
std::string
refusal(const std::string &text, SemanticNetwork &net)
{
    Program prog;
    std::string err;
    EXPECT_FALSE(assemble(text, net, prog, err));
    return err;
}

TEST(Assembler, Fig5StyleProgram)
{
    SemanticNetwork net = fig1Network();
    Program prog = assembleOk(
        "# Fig. 5 of the paper, in assembler syntax\n"
        "rule up spread(is-a, last)\n"
        "rule bind step(part-of)\n"
        "search-node NP m1 0      # L1\n"
        "search-node VP m2 0      # L2\n"
        "search-node DO m2 0      # L3\n"
        "propagate m2 m3 up add-weight   # L4\n"
        "propagate m1 m4 up add-weight   # L5\n"
        "barrier\n"
        "and-marker m3 m4 m5 sum         # L6\n"
        "collect-marker m5               # L7\n",
        net);

    EXPECT_EQ(prog.size(), 8u);
    EXPECT_EQ(prog.rules().size(), 2u);
    EXPECT_EQ(prog[0].op, Opcode::SearchNode);
    EXPECT_EQ(prog[3].op, Opcode::Propagate);
    EXPECT_EQ(prog[3].func, MarkerFunc::AddWeight);

    // And it runs: elements reachable from both marker streams.
    ReferenceInterpreter interp(net);
    ResultSet res = interp.run(prog);
    ASSERT_EQ(res.size(), 1u);
}

TEST(Assembler, AllMnemonics)
{
    SemanticNetwork net = fig1Network();
    Program prog = assembleOk(
        "rule r1 chain(is-a) max=5\n"
        "rule r2 seq(is-a, last)\n"
        "rule r3 comb(is-a, last)\n"
        "rule r4 custom [ {is-a}* {last} ] max=9\n"
        "create we likes plane 0.5\n"
        "delete we likes plane\n"
        "set-color we lexical\n"
        "set-weight we is-a NP 0.9\n"
        "search-node we m0 1.5\n"
        "search-relation is-a m1 0\n"
        "search-color lexical m2 0\n"
        "propagate m0 m3 r4 count\n"
        "barrier\n"
        "marker-create m3 filled-by seeing-event binds\n"
        "marker-delete m3 filled-by seeing-event binds\n"
        "marker-set-color m3 active\n"
        "and-marker m1 m2 m4 min\n"
        "or-marker m1 m2 m5 max\n"
        "not-marker m4 m6\n"
        "set-marker m64 0\n"
        "clear-marker m64\n"
        "func-marker m0 threshold-ge 1.0\n"
        "collect-marker m3\n"
        "collect-relation m3 is-a\n"
        "collect-color lexical\n",
        net);
    EXPECT_EQ(prog.size(), 21u);
    EXPECT_EQ(prog.rules().size(), 4u);
    EXPECT_EQ(prog.rules().rule(0).maxSteps, 5u);
    EXPECT_EQ(prog.rules().rule(3).maxSteps, 9u);
    ASSERT_EQ(prog.rules().rule(3).segments.size(), 2u);
    EXPECT_TRUE(prog.rules().rule(3).segments[0].star);
    EXPECT_FALSE(prog.rules().rule(3).segments[1].star);
}

TEST(Assembler, CustomRuleMultiRelationSegment)
{
    SemanticNetwork net = fig1Network();
    Program prog = assembleOk(
        "rule r custom [ {is-a, last}* {part-of} ]\n", net);
    const PropRule &rule = prog.rules().rule(0);
    ASSERT_EQ(rule.segments.size(), 2u);
    EXPECT_EQ(rule.segments[0].rels.size(), 2u);
}

TEST(Assembler, RepeatUnrolls)
{
    SemanticNetwork net = fig1Network();
    Program prog = assembleOk(
        "repeat 3\n"
        "set-marker m0 1.0\n"
        "clear-marker m0\n"
        "end\n"
        "barrier\n",
        net);
    EXPECT_EQ(prog.size(), 7u);  // 3 x 2 + barrier
    EXPECT_EQ(prog[0].op, Opcode::SetMarker);
    EXPECT_EQ(prog[4].op, Opcode::SetMarker);
    EXPECT_EQ(prog[6].op, Opcode::Barrier);
}

TEST(Assembler, NestedRepeat)
{
    SemanticNetwork net = fig1Network();
    Program prog = assembleOk(
        "repeat 2\n"
        "clear-marker m0\n"
        "repeat 3\n"
        "clear-marker m1\n"
        "end\n"
        "end\n",
        net);
    // Inner: 1 + 3 = 4 per outer iteration; outer x2 = 8.
    EXPECT_EQ(prog.size(), 8u);
}

TEST(AssemblerRefusal, UnterminatedRepeat)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("repeat 2\nclear-marker m0\n", net),
              "1 unterminated repeat block(s)");
}

TEST(AssemblerRefusal, EndWithoutRepeat)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("end\n", net),
              "line 1: 'end' without matching 'repeat'");
}

TEST(AssemblerRefusal, UnknownMnemonic)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("frobnicate m1\n", net),
              "line 1: unknown mnemonic 'frobnicate'");
}

TEST(AssemblerRefusal, UnknownNode)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("search-node ghost m0 0\n", net),
              "line 1: unknown node 'ghost'");
}

TEST(AssemblerRefusal, UnknownRule)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("propagate m0 m1 nope add-weight\n", net),
              "line 1: unknown rule 'nope'");
}

TEST(AssemblerRefusal, BadMarker)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("search-node we m200 0\n", net),
              "line 1: bad marker 'm200' (m0..m127)");
    EXPECT_EQ(refusal("search-node we q1 0\n", net),
              "line 1: bad marker 'q1' (m0..m127)");
}

TEST(AssemblerRefusal, WrongArity)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("search-node we m0\n", net),
              "line 1: usage: search-node <node> <marker> <value>");
}

TEST(AssemblerRefusal, DuplicateRule)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("rule r chain(is-a)\nrule r chain(last)\n", net),
              "line 2: duplicate rule 'r'");
}

TEST(AssemblerRefusal, LineNumberInError)
{
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("rule r chain(is-a)\n\n\nbogus\n", net),
              "line 4: unknown mnemonic 'bogus'");
}

// Text that would reach a fatal further down is refused first.

TEST(AssemblerRefusal, RuleTableOverflow)
{
    SemanticNetwork net = fig1Network();
    std::string text;
    for (std::uint32_t r = 0; r < maxRules; ++r)
        text += "rule r" + std::to_string(r) + " chain(is-a)\n";
    EXPECT_EQ(assembleOk(text, net).rules().size(), maxRules);
    EXPECT_EQ(refusal(text + "rule one-more chain(is-a)\n", net),
              "line 257: more than 256 rules");
}

TEST(AssemblerRefusal, ColorTableOverflow)
{
    SemanticNetwork net = fig1Network();
    std::string text;
    for (std::uint32_t c = net.colorNames().size();
         c <= capacity::numColors; ++c)
        text += "search-color c" + std::to_string(c) + " m0 0\n";
    std::string err = refusal(text, net);
    EXPECT_NE(err.find(": color table full (adding 'c256')"),
              std::string::npos)
        << err;
}

TEST(AssemblerRefusal, NestedRepeatPastTheSequenceSpace)
{
    // 48 bytes that would unroll to 4096 x 4096 instructions: refused
    // at the outer `end`, before anything is copied.
    SemanticNetwork net = fig1Network();
    EXPECT_EQ(refusal("repeat 4096\nrepeat 4096\nclear-marker m1\n"
                      "end\nend\n",
                      net),
              "line 5: repeat unrolls past 65535 instructions");
}

TEST(AssemblerRefusal, ProgramPastTheSequenceSpace)
{
    // 4095 x 16 + 15 = 65535 instructions is the most the controller
    // sequences; one more is refused.
    SemanticNetwork net = fig1Network();
    std::string text = "repeat 4095\n";
    for (int i = 0; i < 16; ++i)
        text += "clear-marker m0\n";
    text += "end\n";
    for (int i = 0; i < 15; ++i)
        text += "clear-marker m1\n";
    EXPECT_EQ(assembleOk(text, net).size(), capacity::maxInstructions);
    EXPECT_EQ(refusal(text + "barrier\n", net),
              "line 34: more than 65535 instructions");
    EXPECT_EQ(refusal("repeat 4096\n" + text.substr(12), net),
              "line 18: repeat unrolls past 65535 instructions");
}

} // namespace
} // namespace snap
