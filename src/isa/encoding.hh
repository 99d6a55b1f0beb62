/**
 * @file
 * The program codec: the one byte form of a Program.
 *
 * "Application programs are written and compiled on the host ...  To
 * avoid a bottleneck with the VME bus, the object code for an entire
 * application is downloaded to the controller before execution"
 * (paper §II-A).  Here the router downloads a program to a shard in
 * these bytes (shard Request frames), and the answer cache keys a
 * program by them.  The simulated broadcast cost of an instruction is
 * TimingParams::instrWords, not the length of these bytes.
 *
 * Canonical form, little-endian, rules first so that a PROPAGATE's
 * rule token can be checked as it is read:
 *
 *   u32 rule count
 *     per rule:    u32 maxSteps, u32 segment count,
 *       per segment: u8 star (0|1), u32 relation count, u16 relations
 *   u32 instruction count
 *     per instruction: u8 opcode, u16 operand mask, then each operand
 *                      whose mask bit is set, in operandValues order
 *
 * An operand's mask bit is set exactly when it differs from its
 * Instruction{} default, so a typical instruction is a few bytes.
 * Rule names are not encoded: they do not affect execution.
 *
 * The decoder is total over untrusted bytes (typed false, never a
 * crash or a fatal): counts go through WireReader::count and are
 * capped before anything is allocated, every operand is range
 * checked, and non-canonical bytes (unknown or redundant mask bits, a
 * star byte other than 0/1) are rejected.  So on any accepted input,
 * decoding and re-encoding gives back the same bytes.
 */

#ifndef SNAP_ISA_ENCODING_HH
#define SNAP_ISA_ENCODING_HH

#include <array>
#include <cstdint>

#include "common/wire_format.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace snap
{

/** Operands of an instruction, in canonical order. */
constexpr std::size_t numOperands = 14;

/**
 * @p in's operands in canonical order: node, endNode, rel, rel2,
 * color, m1, m2, m3, value, rule, func, comb, sfunc.op, sfunc.imm.
 * Floats are their IEEE-754 bit patterns (so 0.0f and -0.0f differ).
 * Program::contentHash folds exactly these values.
 */
std::array<std::uint32_t, numOperands>
operandValues(const Instruction &in);

/** Append the canonical bytes of @p prog. */
void encodeProgram(WireWriter &w, const Program &prog);

/**
 * Decode one program into @p out (replacing its contents).
 * @return false on truncated, out-of-range or non-canonical bytes;
 * @p out is then unspecified.
 */
bool decodeProgram(WireReader &r, Program &out);

} // namespace snap

#endif // SNAP_ISA_ENCODING_HH
