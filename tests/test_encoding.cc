/**
 * @file
 * Tests for the program codec (isa/encoding): the one byte form of a
 * program, shared by the shard wire and the answer-cache key.
 * Round trips, the decode-then-re-encode oracle, typed rejection of
 * every malformed or non-canonical input, and the content-hash pins
 * that ring placement depends on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "isa/encoding.hh"
#include "nlu/corpus.hh"
#include "nlu/kb_factory.hh"
#include "nlu/mb_parser.hh"
#include "runtime/reference.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Field-by-field equality, floats by bit pattern. */
bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.op == b.op && a.node == b.node &&
           a.endNode == b.endNode && a.rel == b.rel &&
           a.rel2 == b.rel2 && a.color == b.color && a.m1 == b.m1 &&
           a.m2 == b.m2 && a.m3 == b.m3 &&
           bitsOf(a.value) == bitsOf(b.value) && a.rule == b.rule &&
           a.func == b.func && a.comb == b.comb &&
           a.sfunc.op == b.sfunc.op &&
           bitsOf(a.sfunc.imm) == bitsOf(b.sfunc.imm);
}

bool
sameRules(const RuleTable &a, const RuleTable &b)
{
    if (a.size() != b.size())
        return false;
    for (std::uint32_t i = 0; i < a.size(); ++i) {
        const PropRule &ra = a.rule(static_cast<RuleId>(i));
        const PropRule &rb = b.rule(static_cast<RuleId>(i));
        if (ra.maxSteps != rb.maxSteps ||
            ra.segments.size() != rb.segments.size())
            return false;
        for (std::size_t s = 0; s < ra.segments.size(); ++s) {
            if (ra.segments[s].star != rb.segments[s].star ||
                ra.segments[s].rels != rb.segments[s].rels)
                return false;
        }
    }
    return true;
}

std::vector<std::uint8_t>
bytesOf(const Program &prog)
{
    WireWriter w;
    encodeProgram(w, prog);
    return w.take();
}

/** Decode @p bytes as exactly one program. */
bool
decodes(const std::vector<std::uint8_t> &bytes, Program *out = nullptr)
{
    WireReader r(bytes);
    Program prog;
    const bool ok = decodeProgram(r, prog) && r.done();
    if (ok && out)
        *out = std::move(prog);
    return ok;
}

/** Decode @p prog's bytes, expect the same program back, and expect
 *  re-encoding to give the same bytes. */
void
expectRoundTrip(const Program &prog)
{
    const std::vector<std::uint8_t> bytes = bytesOf(prog);
    Program back;
    ASSERT_TRUE(decodes(bytes, &back));
    ASSERT_EQ(back.size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i)
        ASSERT_TRUE(sameInstruction(prog[i], back[i]))
            << "instr " << i << ": " << prog[i].toString();
    EXPECT_TRUE(sameRules(prog.rules(), back.rules()));
    EXPECT_EQ(back.contentHash(), prog.contentHash());
    EXPECT_EQ(bytesOf(back), bytes);
}

Program
countQuery(NodeId start, RelationType rel)
{
    Program prog;
    RuleId rule = prog.addRule(PropRule::chain(rel));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule, MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));
    return prog;
}

TEST(ProgramCodec, EveryConstructorRoundTrips)
{
    Program prog;
    prog.addRule(PropRule::seq(1, 2));
    prog.addRule(PropRule::spread(3, 4));
    const RuleId comb = prog.addRule(PropRule::comb(5, 6));
    for (const Instruction &i : {
             Instruction::create(3, 7, 1.5f, 9),
             Instruction::del(3, 7, 9),
             Instruction::setColor(4, 200),
             Instruction::setWeight(1, 2, 3, -0.25f),
             Instruction::searchNode(12345, 63, 3.75f),
             Instruction::searchRelation(65535, 64, 0.0f),
             Instruction::searchColor(255, 127, -1.0f),
             Instruction::propagate(1, 2, comb, MarkerFunc::MulWeight),
             Instruction::markerCreate(5, 100, 42, 200),
             Instruction::markerDelete(5, 100, 42, 200),
             Instruction::markerSetColor(9, 17),
             Instruction::andMarker(1, 2, 3, CombineOp::Diff),
             Instruction::orMarker(4, 5, 6, CombineOp::Max),
             Instruction::notMarker(7, 8),
             Instruction::setMarker(11, 2.25f),
             Instruction::clearMarker(12),
             Instruction::funcMarker(
                 13, ScalarFunc{ScalarFunc::Op::ThresholdLt, 0.125f}),
             Instruction::collectMarker(14),
             Instruction::collectRelation(15, 9),
             Instruction::collectColor(128),
             Instruction::barrier(),
         }) {
        prog.append(i);
    }
    expectRoundTrip(prog);
    // A default operand costs nothing: a BARRIER is its opcode and an
    // empty mask.
    Program barrier;
    barrier.append(Instruction::barrier());
    EXPECT_EQ(bytesOf(barrier).size(), 4u + 4u + 3u);
}

/** A random instruction: each operand holds its default half the
 *  time, otherwise anything in range (floats as raw bit patterns,
 *  NaNs and -0.0f included). */
Instruction
randomInstruction(Rng &rng, std::uint32_t num_rules)
{
    Instruction in;
    in.op = static_cast<Opcode>(
        rng.below(static_cast<std::uint64_t>(Opcode::NumOpcodes)));
    auto pick = [&rng] { return rng.below(2) == 0; };
    auto float_bits = [&rng] {
        const std::uint32_t u = static_cast<std::uint32_t>(rng.next());
        float f;
        std::memcpy(&f, &u, sizeof(f));
        return f;
    };
    if (pick())
        in.node = static_cast<NodeId>(rng.next());
    if (pick())
        in.endNode = static_cast<NodeId>(rng.next());
    if (pick())
        in.rel = static_cast<RelationType>(rng.below(65536));
    if (pick())
        in.rel2 = static_cast<RelationType>(rng.below(65536));
    if (pick())
        in.color = static_cast<Color>(rng.below(256));
    if (pick())
        in.m1 = static_cast<MarkerId>(rng.below(capacity::numMarkers));
    if (pick())
        in.m2 = static_cast<MarkerId>(rng.below(capacity::numMarkers));
    if (pick())
        in.m3 = static_cast<MarkerId>(rng.below(capacity::numMarkers));
    if (pick())
        in.value = rng.below(8) == 0 ? -0.0f : float_bits();
    if (pick())
        in.rule = static_cast<RuleId>(rng.below(256));
    if (pick())
        in.func = static_cast<MarkerFunc>(rng.below(
            static_cast<std::uint64_t>(MarkerFunc::NumFuncs)));
    if (pick())
        in.comb = static_cast<CombineOp>(rng.below(5));
    if (pick())
        in.sfunc.op = static_cast<ScalarFunc::Op>(rng.below(6));
    if (pick())
        in.sfunc.imm = float_bits();
    if (in.op == Opcode::Propagate) {
        if (num_rules == 0)
            in.op = Opcode::Barrier;
        else
            in.rule = static_cast<RuleId>(rng.below(num_rules));
    }
    return in;
}

TEST(ProgramCodec, RandomizedProgramsRoundTrip)
{
    Rng rng(606);
    for (int trial = 0; trial < 2000; ++trial) {
        Program prog;
        const auto num_rules = static_cast<std::uint32_t>(rng.below(4));
        for (std::uint32_t r = 0; r < num_rules; ++r) {
            PropRule rule;
            rule.name = "r" + std::to_string(r);
            rule.maxSteps = static_cast<std::uint32_t>(rng.range(1, 100));
            rule.segments.resize(
                static_cast<std::size_t>(rng.range(1, 3)));
            for (RuleSegment &seg : rule.segments) {
                seg.star = rng.below(2) == 0;
                seg.rels.resize(rng.below(4));
                for (RelationType &rel : seg.rels)
                    rel = static_cast<RelationType>(rng.below(65536));
            }
            prog.addRule(rule);
        }
        const std::uint64_t n = rng.below(40);
        for (std::uint64_t i = 0; i < n; ++i)
            prog.append(randomInstruction(rng, num_rules));
        expectRoundTrip(prog);
        if (HasFatalFailure())
            return;
    }
}

TEST(ProgramCodec, DecodedProgramRunsTheSame)
{
    SemanticNetwork net = makeChainKb(12, "next", 0.5f);
    Program prog;
    RuleId rid = prog.addRule(PropRule::chain(net.relationId("next")));
    prog.append(Instruction::searchNode(0, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rid, MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));

    Program back;
    ASSERT_TRUE(decodes(bytesOf(prog), &back));
    SemanticNetwork net2 = makeChainKb(12, "next", 0.5f);
    ReferenceInterpreter a(net), b(net2);
    ResultSet ra = a.run(prog);
    ResultSet rb = b.run(back);
    ASSERT_EQ(ra.size(), 1u);
    ASSERT_EQ(rb.size(), 1u);
    EXPECT_EQ(ra[0].nodes, rb[0].nodes);
}

TEST(ProgramCodec, EveryStrictPrefixIsRejected)
{
    Program prog = countQuery(5, 3);
    prog.addRule(PropRule::seq(1, 2));
    prog.append(Instruction::funcMarker(
        2, ScalarFunc{ScalarFunc::Op::Mul, 0.5f}));
    const std::vector<std::uint8_t> bytes = bytesOf(prog);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        WireReader r(bytes.data(), cut);
        Program out;
        EXPECT_FALSE(decodeProgram(r, out))
            << "prefix of " << cut << " bytes decoded";
    }
}

// --- typed rejections ---------------------------------------------------

/** Operand mask bits, in operandValues order. */
enum : std::uint16_t
{
    kNode = 1u << 0,
    kM1 = 1u << 5,
    kM2 = 1u << 6,
    kM3 = 1u << 7,
    kValue = 1u << 8,
    kRule = 1u << 9,
    kFunc = 1u << 10,
    kComb = 1u << 11,
    kSfuncOp = 1u << 12,
};

/** A rule in the codec's layout: step bound, then @p segments
 *  segments of @p rels relations each (all relation 1). */
void
putRule(WireWriter &w, std::uint32_t max_steps, std::uint32_t segments,
        std::uint32_t rels = 1, std::uint8_t star = 1)
{
    w.u32(max_steps);
    w.u32(segments);
    for (std::uint32_t s = 0; s < segments; ++s) {
        w.u8(star);
        w.u32(rels);
        for (std::uint32_t k = 0; k < rels; ++k)
            w.u16(1);
    }
}

/** A program of one chain rule and the single instruction @p op with
 *  operand @p mask and raw operand bytes @p operands. */
std::vector<std::uint8_t>
lone(Opcode op, std::uint16_t mask,
     std::vector<std::uint8_t> operands = {})
{
    WireWriter w;
    w.u32(1);
    putRule(w, 64, 1);
    w.u32(1);
    w.u8(static_cast<std::uint8_t>(op));
    w.u16(mask);
    for (std::uint8_t b : operands)
        w.u8(b);
    return w.take();
}

TEST(ProgramCodec, OperandsOutOfRangeAreRejected)
{
    EXPECT_TRUE(decodes(lone(Opcode::Barrier, 0)));
    EXPECT_FALSE(decodes(lone(Opcode::NumOpcodes, 0))) << "opcode";
    EXPECT_FALSE(decodes(lone(static_cast<Opcode>(0xff), 0)));

    // Markers below 128.
    EXPECT_TRUE(decodes(lone(Opcode::SetMarker, kM1, {127})));
    EXPECT_FALSE(decodes(lone(Opcode::SetMarker, kM1, {128})));
    EXPECT_FALSE(decodes(lone(Opcode::AndMarker, kM2, {128})));
    EXPECT_FALSE(decodes(lone(Opcode::AndMarker, kM3, {255})));

    // Marker function, combine op and scalar op in range.
    const auto num_funcs =
        static_cast<std::uint8_t>(MarkerFunc::NumFuncs);
    EXPECT_TRUE(decodes(lone(Opcode::Barrier, kFunc,
                             {static_cast<std::uint8_t>(num_funcs - 1)})));
    EXPECT_FALSE(decodes(lone(Opcode::Barrier, kFunc, {num_funcs})));
    EXPECT_TRUE(decodes(lone(Opcode::OrMarker, kComb, {4})));
    EXPECT_FALSE(decodes(lone(Opcode::OrMarker, kComb, {5})));
    EXPECT_TRUE(decodes(lone(Opcode::FuncMarker, kSfuncOp, {5})));
    EXPECT_FALSE(decodes(lone(Opcode::FuncMarker, kSfuncOp, {6})));

    // A PROPAGATE names a rule the stream carried (here one rule).
    EXPECT_TRUE(decodes(lone(Opcode::Propagate, 0)));
    EXPECT_FALSE(decodes(lone(Opcode::Propagate, kRule, {1})));
    // Other opcodes do not read their rule token.
    EXPECT_TRUE(decodes(lone(Opcode::Barrier, kRule, {9})));
}

TEST(ProgramCodec, NonCanonicalMasksAreRejected)
{
    // Bits 14 and 15 name no operand.
    EXPECT_FALSE(decodes(lone(Opcode::Barrier, 1u << 14)));
    EXPECT_FALSE(decodes(lone(Opcode::Barrier, 1u << 15)));
    // A set bit whose operand holds its default: the encoder would
    // have left the bit clear.
    EXPECT_FALSE(decodes(lone(Opcode::SearchNode, kNode,
                              {0xff, 0xff, 0xff, 0xff})));
    EXPECT_TRUE(decodes(lone(Opcode::SearchNode, kNode, {7, 0, 0, 0})));
    EXPECT_FALSE(decodes(lone(Opcode::SetMarker, kM1, {0})));
    EXPECT_FALSE(decodes(lone(Opcode::SetMarker, kValue, {0, 0, 0, 0})));
    EXPECT_TRUE(decodes(lone(Opcode::SetMarker, kValue,
                             {0, 0, 0, 0x80})))
        << "-0.0f is not the default 0.0f";
}

TEST(ProgramCodec, MalformedRulesAreRejected)
{
    // Two BARRIERs follow the rules, so even a rule with no segments
    // leaves the bytes the rule count's bound asks for: each refusal
    // below comes from the rule check it names.
    auto rules = [](auto body) {
        WireWriter w;
        body(w);
        w.u32(2);
        for (int i = 0; i < 2; ++i) {
            w.u8(static_cast<std::uint8_t>(Opcode::Barrier));
            w.u16(0);
        }
        return w.take();
    };
    EXPECT_TRUE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 1, 1);
    })));
    EXPECT_FALSE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 64, 0);
    }))) << "a rule with no segments";
    EXPECT_FALSE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 0, 1);
    }))) << "maxSteps 0";
    EXPECT_FALSE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 64, 1, 1, 2);
    }))) << "star byte other than 0 or 1";

    // Segments per rule: 255 at most.
    EXPECT_TRUE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 64, 255, 0);
    })));
    EXPECT_FALSE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 64, 256, 0);
    })));

    // Relations per segment: numRelationTypes at most.
    EXPECT_TRUE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 64, 1, capacity::numRelationTypes);
    })));
    EXPECT_FALSE(decodes(rules([](WireWriter &w) {
        w.u32(1);
        putRule(w, 64, 1, capacity::numRelationTypes + 1);
    })));

    // Rules: maxRules at most.
    EXPECT_TRUE(decodes(rules([](WireWriter &w) {
        w.u32(maxRules);
        for (std::uint32_t i = 0; i < maxRules; ++i)
            putRule(w, 64, 1, 0);
    })));
    EXPECT_FALSE(decodes(rules([](WireWriter &w) {
        w.u32(maxRules + 1);
        for (std::uint32_t i = 0; i <= maxRules; ++i)
            putRule(w, 64, 1, 0);
    })));
}

TEST(ProgramCodec, InstructionCountIsCappedAtTheSequenceSpace)
{
    auto barriers = [](std::uint32_t declared, std::uint32_t present) {
        WireWriter w;
        w.u32(0);
        w.u32(declared);
        for (std::uint32_t i = 0; i < present; ++i) {
            w.u8(static_cast<std::uint8_t>(Opcode::Barrier));
            w.u16(0);
        }
        return w.take();
    };
    Program back;
    ASSERT_TRUE(decodes(barriers(capacity::maxInstructions,
                                 capacity::maxInstructions),
                        &back));
    EXPECT_EQ(back.size(), capacity::maxInstructions);
    EXPECT_FALSE(decodes(barriers(capacity::maxInstructions + 1,
                                  capacity::maxInstructions + 1)));
    // A count the bytes cannot hold fails before anything grows.
    EXPECT_FALSE(decodes(barriers(0xffffffffu, 4)));
}

// --- content hash -------------------------------------------------------

TEST(ProgramCodec, ContentHashValuesArePinned)
{
    // Ring placement and fleetbench's Zipf rank dealing depend on
    // these values; contentHash must never change.
    EXPECT_EQ(countQuery(5, 3).contentHash(), 0xcb3d92a6ee1fd240ull);
    EXPECT_EQ(countQuery(2, 1).contentHash(), 0xe1e90788dd520f91ull);

    LinguisticKbParams params;
    params.nonlexicalNodes = 5000;
    params.vocabulary = 700;
    LinguisticKb kb(params);
    MemoryBasedParser parser(kb);
    const std::vector<Sentence> batch =
        makeNewswireBatch(kb.lexicon(), 1, splitmix64(1));
    ASSERT_EQ(batch.size(), 1u);
    const Program parse = parser.buildProgram(batch[0].words);
    EXPECT_EQ(parse.size(), 128u);
    EXPECT_EQ(parse.contentHash(), 0x685a1b9771ddee15ull);
    expectRoundTrip(parse);
}

} // namespace
} // namespace snap
