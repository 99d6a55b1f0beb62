#include "isa/encoding.hh"

#include <cstring>
#include <utility>

namespace snap
{

namespace
{

/** Index of each operand in operandValues order. */
enum Operand : std::size_t
{
    OpNode, OpEndNode, OpRel, OpRel2, OpColor, OpM1, OpM2, OpM3,
    OpValue, OpRule, OpFunc, OpComb, OpSfuncOp, OpSfuncImm
};

/** Bytes each operand takes in the codec, in operandValues order. */
constexpr unsigned kWidth[numOperands] = {4, 4, 2, 2, 1, 1, 1,
                                          1, 4, 1, 1, 1, 1, 4};
/** The mask bits that name an operand. */
constexpr std::uint32_t kOperandMask = (1u << numOperands) - 1;

// Least bytes of one element, for WireReader::count: a segment is its
// star byte and relation count; a rule its step bound, its segment
// count and at least one segment; an instruction its opcode and mask.
constexpr std::size_t kMinSegmentBytes = 5;
constexpr std::size_t kMinRuleBytes = 8 + kMinSegmentBytes;
constexpr std::size_t kMinInstrBytes = 3;
/** Segments per rule: PropRule::numStates is one byte. */
constexpr std::uint32_t kMaxSegments = 255;

std::uint32_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

float
bitsFloat(std::uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

const std::array<std::uint32_t, numOperands> &
defaultOperands()
{
    static const std::array<std::uint32_t, numOperands> kDefaults =
        operandValues(Instruction{});
    return kDefaults;
}

void
writeOperand(WireWriter &w, unsigned width, std::uint32_t v)
{
    switch (width) {
      case 1: w.u8(static_cast<std::uint8_t>(v)); break;
      case 2: w.u16(static_cast<std::uint16_t>(v)); break;
      default: w.u32(v); break;
    }
}

std::uint32_t
readOperand(WireReader &r, unsigned width)
{
    switch (width) {
      case 1: return r.u8();
      case 2: return r.u16();
      default: return r.u32();
    }
}

/** Rebuild an instruction from its opcode byte and operand values;
 *  false when either is out of range. */
bool
instructionOf(std::uint8_t op,
              const std::array<std::uint32_t, numOperands> &v,
              Instruction &in)
{
    if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes) ||
        v[OpM1] >= capacity::numMarkers ||
        v[OpM2] >= capacity::numMarkers ||
        v[OpM3] >= capacity::numMarkers ||
        v[OpFunc] >= static_cast<std::uint32_t>(MarkerFunc::NumFuncs) ||
        v[OpComb] > static_cast<std::uint32_t>(CombineOp::Diff) ||
        v[OpSfuncOp] >
            static_cast<std::uint32_t>(ScalarFunc::Op::ThresholdLt))
        return false;
    in.op = static_cast<Opcode>(op);
    in.node = v[OpNode];
    in.endNode = v[OpEndNode];
    in.rel = static_cast<RelationType>(v[OpRel]);
    in.rel2 = static_cast<RelationType>(v[OpRel2]);
    in.color = static_cast<Color>(v[OpColor]);
    in.m1 = static_cast<MarkerId>(v[OpM1]);
    in.m2 = static_cast<MarkerId>(v[OpM2]);
    in.m3 = static_cast<MarkerId>(v[OpM3]);
    in.value = bitsFloat(v[OpValue]);
    in.rule = static_cast<RuleId>(v[OpRule]);
    in.func = static_cast<MarkerFunc>(v[OpFunc]);
    in.comb = static_cast<CombineOp>(v[OpComb]);
    in.sfunc.op = static_cast<ScalarFunc::Op>(v[OpSfuncOp]);
    in.sfunc.imm = bitsFloat(v[OpSfuncImm]);
    return true;
}

/** One rule; false on bytes RuleTable::add would refuse. */
bool
decodeRule(WireReader &r, PropRule &rule)
{
    rule.maxSteps = r.u32();
    const std::uint32_t num_segs = r.count(kMinSegmentBytes);
    if (r.failed() || rule.maxSteps == 0 || num_segs == 0 ||
        num_segs > kMaxSegments)
        return false;
    rule.segments.resize(num_segs);
    for (RuleSegment &seg : rule.segments) {
        const std::uint8_t star = r.u8();
        const std::uint32_t num_rels = r.count(2);
        if (r.failed() || star > 1 ||
            num_rels > capacity::numRelationTypes)
            return false;
        seg.star = star != 0;
        seg.rels.reserve(num_rels);
        for (std::uint32_t k = 0; k < num_rels; ++k)
            seg.rels.push_back(r.u16());
    }
    return !r.failed();
}

} // namespace

std::array<std::uint32_t, numOperands>
operandValues(const Instruction &in)
{
    return {in.node,
            in.endNode,
            in.rel,
            in.rel2,
            in.color,
            in.m1,
            in.m2,
            in.m3,
            floatBits(in.value),
            in.rule,
            static_cast<std::uint32_t>(in.func),
            static_cast<std::uint32_t>(in.comb),
            static_cast<std::uint32_t>(in.sfunc.op),
            floatBits(in.sfunc.imm)};
}

void
encodeProgram(WireWriter &w, const Program &prog)
{
    const RuleTable &rules = prog.rules();
    w.u32(rules.size());
    for (std::uint32_t i = 0; i < rules.size(); ++i) {
        const PropRule &rule = rules.rule(static_cast<RuleId>(i));
        w.u32(rule.maxSteps);
        w.u32(static_cast<std::uint32_t>(rule.segments.size()));
        for (const RuleSegment &seg : rule.segments) {
            w.u8(seg.star ? 1 : 0);
            w.u32(static_cast<std::uint32_t>(seg.rels.size()));
            for (RelationType rel : seg.rels)
                w.u16(rel);
        }
    }
    const std::array<std::uint32_t, numOperands> &dflt =
        defaultOperands();
    w.u32(static_cast<std::uint32_t>(prog.size()));
    for (const Instruction &in : prog.instructions()) {
        const std::array<std::uint32_t, numOperands> v =
            operandValues(in);
        std::uint32_t mask = 0;
        for (std::size_t f = 0; f < numOperands; ++f)
            if (v[f] != dflt[f])
                mask |= 1u << f;
        w.u8(static_cast<std::uint8_t>(in.op));
        w.u16(static_cast<std::uint16_t>(mask));
        for (std::size_t f = 0; f < numOperands; ++f)
            if (mask & (1u << f))
                writeOperand(w, kWidth[f], v[f]);
    }
}

bool
decodeProgram(WireReader &r, Program &out)
{
    Program prog;
    const std::uint32_t num_rules = r.count(kMinRuleBytes);
    if (r.failed() || num_rules > maxRules)
        return false;
    for (std::uint32_t i = 0; i < num_rules; ++i) {
        PropRule rule;
        if (!decodeRule(r, rule))
            return false;
        prog.addRule(std::move(rule));
    }

    // The controller sequences at most capacity::maxInstructions; the
    // cap is checked before the stream grows.
    const std::uint32_t num_instrs = r.count(kMinInstrBytes);
    if (r.failed() || num_instrs > capacity::maxInstructions)
        return false;
    prog.reserve(num_instrs);
    const std::array<std::uint32_t, numOperands> &dflt =
        defaultOperands();
    for (std::uint32_t i = 0; i < num_instrs; ++i) {
        const std::uint8_t op = r.u8();
        const std::uint16_t mask = r.u16();
        if (r.failed() || (mask & ~kOperandMask) != 0)
            return false;
        std::array<std::uint32_t, numOperands> v = dflt;
        for (std::size_t f = 0; f < numOperands; ++f) {
            if (!(mask & (1u << f)))
                continue;
            v[f] = readOperand(r, kWidth[f]);
            // A set bit names an operand that differs from its
            // default; anything else is not the encoder's output.
            if (v[f] == dflt[f])
                return false;
        }
        Instruction in;
        if (r.failed() || !instructionOf(op, v, in))
            return false;
        // A PROPAGATE must name a rule that the stream carried.
        if (in.op == Opcode::Propagate && in.rule >= num_rules)
            return false;
        prog.append(in);
    }
    out = std::move(prog);
    return true;
}

} // namespace snap
