/**
 * @file
 * Text assembler for SNAP programs.
 *
 * Applications on the real machine were "written and compiled on the
 * host using C language and high-level SNAP instructions" (§II-A).
 * This assembler accepts the instruction mnemonics of Table II in a
 * line-oriented text form so programs like the paper's Fig. 5 example
 * can be written literally:
 *
 *     rule spread-up spread(is-a, last) max=20
 *     search-node NP m1 0
 *     search-node VP m2 0
 *     propagate m2 m3 spread-up add-weight
 *     barrier
 *     and-marker m3 m4 m5 sum
 *     collect-marker m5
 *
 * Node, relation, and color operands are symbolic and resolved against
 * a SemanticNetwork; markers are written m0..m127 (m0..m63 complex,
 * m64..m127 binary); rules are declared before use with the `rule`
 * directive:
 *
 *     rule <name> seq(r1, r2) [max=N]
 *     rule <name> spread(r1, r2) [max=N]
 *     rule <name> comb(r1, r2) [max=N]
 *     rule <name> chain(r) [max=N]
 *     rule <name> step(r) [max=N]
 *     rule <name> custom [ {r,...}* {r,...} ... ] [max=N]
 *
 * Malformed text is refused with a message naming its line; so is a
 * program the machine could not hold (a 257th rule, a full relation
 * or color table, more than capacity::maxInstructions instructions
 * after `repeat` unrolls).  Nothing exits and nothing throws.
 */

#ifndef SNAP_ISA_ASSEMBLER_HH
#define SNAP_ISA_ASSEMBLER_HH

#include <string>

#include "isa/program.hh"
#include "kb/semantic_network.hh"

namespace snap
{

/**
 * Assemble SNAP program text against a knowledge base.
 *
 * @param net network providing node/relation/color symbols; relation
 *            and color names are interned on first use, node names
 *            must already exist.
 * @return false when the text is refused, with "line N: why" in
 *         @p err and @p out untouched.
 */
bool assemble(const std::string &text, SemanticNetwork &net,
              Program &out, std::string &err);

/** Assemble the file at @p path; a refusal's @p err starts with the
 *  path, and an unreadable file is refused as "cannot open". */
bool assembleFile(const std::string &path, SemanticNetwork &net,
                  Program &out, std::string &err);

} // namespace snap

#endif // SNAP_ISA_ASSEMBLER_HH
