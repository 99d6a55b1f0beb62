/**
 * @file
 * SNAP program representation.
 *
 * A Program is the SNAP instruction stream an application downloads to
 * the controller before execution ("the object code for an entire
 * application is downloaded to the controller before execution",
 * §II-A), together with the compiled propagation-rule table
 * ("the microcode table of propagation rules is downloaded at
 * compile-time", §III-B).
 *
 * Ordering semantics: instructions issue in program order.  PROPAGATE
 * initiations may overlap each other (β-parallelism) and marker
 * delivery is asynchronous; an explicit BARRIER drains all in-flight
 * propagation.  Programs must place a BARRIER before any instruction
 * that depends on propagation results (the paper's Fig. 7 dependency).
 */

#ifndef SNAP_ISA_PROGRAM_HH
#define SNAP_ISA_PROGRAM_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/instruction.hh"
#include "isa/prop_rule.hh"

namespace snap
{

/**
 * An executable SNAP program: rule table + instruction stream.
 */
class Program
{
  public:
    /** Register a propagation rule; returns its token. */
    RuleId addRule(PropRule rule) { return rules_.add(std::move(rule)); }

    const RuleTable &rules() const { return rules_; }

    /** Append an instruction. */
    void
    append(const Instruction &instr)
    {
        instrs_.push_back(instr);
    }

    /** Room for @p n instructions (a decoder that knows the count). */
    void reserve(std::size_t n) { instrs_.reserve(n); }

    std::size_t size() const { return instrs_.size(); }
    bool empty() const { return instrs_.empty(); }

    const Instruction &
    operator[](std::size_t i) const
    {
        snap_assert(i < instrs_.size(), "instr %zu out of %zu", i,
                    instrs_.size());
        return instrs_[i];
    }

    const std::vector<Instruction> &instructions() const
    {
        return instrs_;
    }

    /** Append all of @p other's instructions (rule tables must be
     *  shared already — tokens are not remapped). */
    void
    appendProgram(const Program &other)
    {
        for (const auto &i : other.instrs_)
            instrs_.push_back(i);
    }

    /**
     * Content digest over the instruction stream and rule table
     * (FNV-1a over each opcode and its operandValues, then each
     * rule's step bound and segments; rule names excluded — they do
     * not affect execution).  The router places stateless requests
     * by it, so repeats of a query meet on one shard, and the answer
     * cache uses it to pick a bucket.  A 64-bit digest can collide,
     * so equal hashes alone never prove equal programs: the cache
     * compares the program's codec bytes (isa/encoding.hh).
     * Allocation-free.
     */
    std::uint64_t contentHash() const;

    /** Instruction count per profiling category. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(InstrCategory::NumCategories)>
    categoryCounts() const;

    /** Count of one opcode. */
    std::uint64_t countOpcode(Opcode op) const;

    /** Multi-line disassembly. */
    std::string toString() const;

  private:
    RuleTable rules_;
    std::vector<Instruction> instrs_;
};

/**
 * Allocator for marker register indices: complex markers from the
 * low bank (0..63), binary markers from the high bank (64..127).
 */
class MarkerAlloc
{
  public:
    /** Allocate a fresh complex (valued) marker. */
    MarkerId
    complex()
    {
        if (nextComplex_ >= capacity::numComplexMarkers)
            snap_fatal("out of complex markers (64 available)");
        return static_cast<MarkerId>(nextComplex_++);
    }

    /** Allocate a fresh binary marker. */
    MarkerId
    binary()
    {
        if (nextBinary_ >= capacity::numMarkers)
            snap_fatal("out of binary markers (64 available)");
        return static_cast<MarkerId>(nextBinary_++);
    }

    /** Release all allocations (markers are reused program-wide). */
    void
    reset()
    {
        nextComplex_ = 0;
        nextBinary_ = capacity::numComplexMarkers;
    }

    std::uint32_t complexInUse() const { return nextComplex_; }
    std::uint32_t binaryInUse() const
    {
        return nextBinary_ - capacity::numComplexMarkers;
    }

  private:
    std::uint32_t nextComplex_ = 0;
    std::uint32_t nextBinary_ = capacity::numComplexMarkers;
};

} // namespace snap

#endif // SNAP_ISA_PROGRAM_HH
