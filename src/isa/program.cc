#include "isa/program.hh"

#include <sstream>

#include "isa/encoding.hh"

namespace snap
{

namespace
{

inline std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ull;
}

} // namespace

std::uint64_t
Program::contentHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Instruction &i : instrs_) {
        h = fnv1a(h, static_cast<std::uint64_t>(i.op));
        for (std::uint32_t v : operandValues(i))
            h = fnv1a(h, v);
    }
    for (std::uint32_t r = 0; r < rules_.size(); ++r) {
        const PropRule &rule = rules_.rule(static_cast<RuleId>(r));
        h = fnv1a(h, rule.maxSteps);
        h = fnv1a(h, rule.segments.size());
        for (const RuleSegment &seg : rule.segments) {
            h = fnv1a(h, seg.star ? 1u : 0u);
            h = fnv1a(h, seg.rels.size());
            for (RelationType rel : seg.rels)
                h = fnv1a(h, rel);
        }
    }
    return h;
}

std::array<std::uint64_t,
           static_cast<std::size_t>(InstrCategory::NumCategories)>
Program::categoryCounts() const
{
    std::array<std::uint64_t,
               static_cast<std::size_t>(
                   InstrCategory::NumCategories)> counts{};
    for (const auto &i : instrs_)
        ++counts[static_cast<std::size_t>(i.category())];
    return counts;
}

std::uint64_t
Program::countOpcode(Opcode op) const
{
    std::uint64_t n = 0;
    for (const auto &i : instrs_)
        if (i.op == op)
            ++n;
    return n;
}

std::string
Program::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < instrs_.size(); ++i)
        os << i << ": " << instrs_[i].toString() << "\n";
    return os.str();
}

} // namespace snap
