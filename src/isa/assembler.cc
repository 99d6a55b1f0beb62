#include "isa/assembler.hh"

#include <fstream>
#include <map>
#include <sstream>

#include "common/strutil.hh"

namespace snap
{

namespace
{

/** A refused statement; caught by assemble(), never leaves it. */
struct Refusal
{
    std::string why;
};

/** Parse state for one assembly run. */
class Asm
{
  public:
    Asm(SemanticNetwork &net) : net_(net) {}

    Program
    run(std::istream &is)
    {
        std::string line;
        while (std::getline(is, line)) {
            ++lineno_;
            std::string body = trim(stripComment(line));
            if (body.empty())
                continue;
            parseLine(body);
            // A line adds at most one instruction (`end` checks its
            // unroll first), so this bounds the program's size.
            if (prog_.size() > capacity::maxInstructions)
                die("more than " +
                    std::to_string(capacity::maxInstructions) +
                    " instructions");
        }
        if (!repeats_.empty()) {
            throw Refusal{std::to_string(repeats_.size()) +
                          " unterminated repeat block(s)"};
        }
        return std::move(prog_);
    }

  private:
    static std::string
    stripComment(const std::string &s)
    {
        std::size_t pos = s.find('#');
        return pos == std::string::npos ? s : s.substr(0, pos);
    }

    [[noreturn]] void
    die(const std::string &msg) const
    {
        throw Refusal{"line " + std::to_string(lineno_) + ": " + msg};
    }

    void
    need(const std::vector<std::string> &tok, std::size_t n,
         const char *usage) const
    {
        if (tok.size() != n)
            die(std::string("usage: ") + usage);
    }

    MarkerId
    marker(const std::string &s) const
    {
        long long v;
        if (s.size() < 2 || s[0] != 'm' ||
            !parseInt(s.substr(1), v) || v < 0 ||
            v >= static_cast<long long>(capacity::numMarkers)) {
            die("bad marker '" + s + "' (m0..m127)");
        }
        return static_cast<MarkerId>(v);
    }

    NodeId
    node(const std::string &s) const
    {
        NodeId id;
        if (!net_.tryNode(s, id))
            die("unknown node '" + s + "'");
        return id;
    }

    /** Intern @p s, refusing a new name when @p table is full. */
    template <typename Id>
    Id
    intern(SymbolTable<Id> &table, const std::string &s)
    {
        if (table.full() && !table.contains(s))
            die(table.kind() + " table full (adding '" + s + "')");
        return table.intern(s);
    }

    RelationType
    rel(const std::string &s) { return intern(net_.relations(), s); }

    Color color(const std::string &s) { return intern(net_.colorNames(), s); }

    float
    num(const std::string &s) const
    {
        double v;
        if (!parseDouble(s, v))
            die("bad number '" + s + "'");
        return static_cast<float>(v);
    }

    RuleId
    ruleId(const std::string &s) const
    {
        auto it = ruleIds_.find(s);
        if (it == ruleIds_.end())
            die("unknown rule '" + s + "'");
        return it->second;
    }

    MarkerFunc
    mfunc(const std::string &s) const
    {
        MarkerFunc f;
        if (!markerFuncFromName(s, f))
            die("bad marker function '" + s + "'");
        return f;
    }

    CombineOp
    cop(const std::string &s) const
    {
        CombineOp op;
        if (!combineOpFromName(s, op))
            die("bad combine op '" + s + "'");
        return op;
    }

    /** Parse "rule <name> <shape>(args) [max=N]" or custom form. */
    void
    parseRule(const std::string &body)
    {
        // Shape: rule NAME SPEC [max=N]; SPEC may contain spaces in
        // the custom form, so handle max= suffix first.
        std::string text = body;
        std::uint32_t max_steps = 64;
        std::size_t maxpos = text.rfind("max=");
        if (maxpos != std::string::npos) {
            long long v;
            if (!parseInt(trim(text.substr(maxpos + 4)), v) || v <= 0 ||
                v > UINT32_MAX)
                die("bad max= value");
            max_steps = static_cast<std::uint32_t>(v);
            text = trim(text.substr(0, maxpos));
        }

        std::vector<std::string> head = tokenize(text);
        if (head.size() < 3)
            die("usage: rule <name> <shape>(r1[,r2]) [max=N]");
        const std::string &name = head[1];
        if (ruleIds_.count(name))
            die("duplicate rule '" + name + "'");
        if (prog_.rules().size() >= maxRules)
            die("more than " + std::to_string(maxRules) + " rules");

        // Re-join the spec (everything after the name; search past
        // the "rule" keyword so a short name like "r" is not found
        // inside it).
        std::size_t name_pos = text.find(name, 4);
        std::string spec = trim(text.substr(name_pos + name.size()));

        PropRule rule;
        if (startsWith(spec, "custom")) {
            rule = parseCustomRule(trim(spec.substr(6)));
        } else {
            std::size_t lp = spec.find('(');
            std::size_t rp = spec.rfind(')');
            if (lp == std::string::npos || rp == std::string::npos ||
                rp < lp) {
                die("bad rule spec '" + spec + "'");
            }
            std::string shape = trim(spec.substr(0, lp));
            std::vector<std::string> args;
            for (auto &a : split(spec.substr(lp + 1, rp - lp - 1), ','))
                args.push_back(trim(a));

            auto need_args = [&](std::size_t n) {
                if (args.size() != n) {
                    die("rule shape '" + shape + "' takes " +
                        std::to_string(n) + " relation(s)");
                }
            };
            if (shape == "seq") {
                need_args(2);
                rule = PropRule::seq(rel(args[0]), rel(args[1]));
            } else if (shape == "spread") {
                need_args(2);
                rule = PropRule::spread(rel(args[0]), rel(args[1]));
            } else if (shape == "comb") {
                need_args(2);
                rule = PropRule::comb(rel(args[0]), rel(args[1]));
            } else if (shape == "chain") {
                need_args(1);
                rule = PropRule::chain(rel(args[0]));
            } else if (shape == "step") {
                need_args(1);
                rule = PropRule::step1(rel(args[0]));
            } else {
                die("unknown rule shape '" + shape + "'");
            }
        }
        rule.name = name;
        rule.maxSteps = max_steps;
        ruleIds_[name] = prog_.addRule(std::move(rule));
    }

    /** Parse "[ {r,...}* {r,...} ... ]". */
    PropRule
    parseCustomRule(const std::string &spec)
    {
        if (spec.empty() || spec.front() != '[' || spec.back() != ']')
            die("custom rule needs [ {...} ... ]");
        std::string inner = spec.substr(1, spec.size() - 2);

        PropRule rule;
        rule.name = "custom";
        std::size_t i = 0;
        while (i < inner.size()) {
            while (i < inner.size() &&
                   std::isspace(static_cast<unsigned char>(inner[i])))
                ++i;
            if (i >= inner.size())
                break;
            if (inner[i] != '{')
                die("expected '{' in custom rule");
            std::size_t close = inner.find('}', i);
            if (close == std::string::npos)
                die("missing '}' in custom rule");
            RuleSegment seg;
            for (auto &r : split(inner.substr(i + 1, close - i - 1),
                                 ',')) {
                std::string t = trim(r);
                if (!t.empty())
                    seg.rels.push_back(rel(t));
            }
            if (seg.rels.empty())
                die("empty relation set in custom rule");
            i = close + 1;
            if (i < inner.size() && inner[i] == '*') {
                seg.star = true;
                ++i;
            }
            rule.segments.push_back(std::move(seg));
        }
        if (rule.segments.empty())
            die("custom rule with no segments");
        return rule;
    }

    void
    parseLine(const std::string &body)
    {
        if (startsWith(body, "rule ") || body == "rule") {
            if (!repeats_.empty())
                die("rule declarations cannot appear inside repeat");
            parseRule(body);
            return;
        }

        std::vector<std::string> tok = tokenize(body);
        const std::string &opname = tok[0];

        // PCP loop flow: `repeat N` ... `end` unrolls at assembly
        // time — the program control processor "executes the
        // application code to handle the loop and branch flow".
        if (opname == "repeat") {
            need(tok, 2, "repeat <count>");
            long long n;
            if (!parseInt(tok[1], n) || n < 1 || n > 4096)
                die("repeat count must be 1..4096");
            repeats_.push_back(
                RepeatBlock{static_cast<std::uint32_t>(n),
                            prog_.size()});
            return;
        }
        if (opname == "end") {
            need(tok, 1, "end");
            if (repeats_.empty())
                die("'end' without matching 'repeat'");
            RepeatBlock block = repeats_.back();
            repeats_.pop_back();
            std::size_t body_end = prog_.size();
            // Refuse before unrolling: nested repeats multiply.
            if ((body_end - block.bodyStart) * (block.count - 1) >
                capacity::maxInstructions - body_end)
                die("repeat unrolls past " +
                    std::to_string(capacity::maxInstructions) +
                    " instructions");
            for (std::uint32_t rep = 1; rep < block.count; ++rep) {
                for (std::size_t i = block.bodyStart; i < body_end;
                     ++i) {
                    prog_.append(prog_[i]);
                }
            }
            return;
        }

        if (opname == "create") {
            need(tok, 5, "create <src> <rel> <dst> <weight>");
            prog_.append(Instruction::create(node(tok[1]), rel(tok[2]),
                                             num(tok[4]),
                                             node(tok[3])));
        } else if (opname == "delete") {
            need(tok, 4, "delete <src> <rel> <dst>");
            prog_.append(Instruction::del(node(tok[1]), rel(tok[2]),
                                          node(tok[3])));
        } else if (opname == "set-color") {
            need(tok, 3, "set-color <node> <color>");
            prog_.append(Instruction::setColor(node(tok[1]),
                                               color(tok[2])));
        } else if (opname == "set-weight") {
            need(tok, 5, "set-weight <src> <rel> <dst> <weight>");
            prog_.append(Instruction::setWeight(node(tok[1]),
                                                rel(tok[2]),
                                                node(tok[3]),
                                                num(tok[4])));
        } else if (opname == "search-node") {
            need(tok, 4, "search-node <node> <marker> <value>");
            prog_.append(Instruction::searchNode(node(tok[1]),
                                                 marker(tok[2]),
                                                 num(tok[3])));
        } else if (opname == "search-relation") {
            need(tok, 4, "search-relation <rel> <marker> <value>");
            prog_.append(Instruction::searchRelation(rel(tok[1]),
                                                     marker(tok[2]),
                                                     num(tok[3])));
        } else if (opname == "search-color") {
            need(tok, 4, "search-color <color> <marker> <value>");
            prog_.append(Instruction::searchColor(color(tok[1]),
                                                  marker(tok[2]),
                                                  num(tok[3])));
        } else if (opname == "propagate") {
            need(tok, 5, "propagate <m1> <m2> <rule> <func>");
            prog_.append(Instruction::propagate(marker(tok[1]),
                                                marker(tok[2]),
                                                ruleId(tok[3]),
                                                mfunc(tok[4])));
        } else if (opname == "marker-create") {
            need(tok, 5,
                 "marker-create <marker> <fwd-rel> <end> <rev-rel>");
            prog_.append(Instruction::markerCreate(marker(tok[1]),
                                                   rel(tok[2]),
                                                   node(tok[3]),
                                                   rel(tok[4])));
        } else if (opname == "marker-delete") {
            need(tok, 5,
                 "marker-delete <marker> <fwd-rel> <end> <rev-rel>");
            prog_.append(Instruction::markerDelete(marker(tok[1]),
                                                   rel(tok[2]),
                                                   node(tok[3]),
                                                   rel(tok[4])));
        } else if (opname == "marker-set-color") {
            need(tok, 3, "marker-set-color <marker> <color>");
            prog_.append(Instruction::markerSetColor(marker(tok[1]),
                                                     color(tok[2])));
        } else if (opname == "and-marker") {
            need(tok, 5, "and-marker <m1> <m2> <m3> <combine>");
            prog_.append(Instruction::andMarker(marker(tok[1]),
                                                marker(tok[2]),
                                                marker(tok[3]),
                                                cop(tok[4])));
        } else if (opname == "or-marker") {
            need(tok, 5, "or-marker <m1> <m2> <m3> <combine>");
            prog_.append(Instruction::orMarker(marker(tok[1]),
                                               marker(tok[2]),
                                               marker(tok[3]),
                                               cop(tok[4])));
        } else if (opname == "not-marker") {
            need(tok, 3, "not-marker <m1> <m3>");
            prog_.append(Instruction::notMarker(marker(tok[1]),
                                                marker(tok[2])));
        } else if (opname == "set-marker") {
            need(tok, 3, "set-marker <marker> <value>");
            prog_.append(Instruction::setMarker(marker(tok[1]),
                                                num(tok[2])));
        } else if (opname == "clear-marker") {
            need(tok, 2, "clear-marker <marker>");
            prog_.append(Instruction::clearMarker(marker(tok[1])));
        } else if (opname == "func-marker") {
            need(tok, 4, "func-marker <marker> <op> <imm>");
            ScalarFunc f;
            if (!scalarOpFromName(tok[2], f.op))
                die("bad scalar op '" + tok[2] + "'");
            f.imm = num(tok[3]);
            prog_.append(Instruction::funcMarker(marker(tok[1]), f));
        } else if (opname == "collect-marker") {
            need(tok, 2, "collect-marker <marker>");
            prog_.append(Instruction::collectMarker(marker(tok[1])));
        } else if (opname == "collect-relation") {
            need(tok, 3, "collect-relation <marker> <rel>");
            prog_.append(Instruction::collectRelation(marker(tok[1]),
                                                      rel(tok[2])));
        } else if (opname == "collect-color") {
            need(tok, 2, "collect-color <color>");
            prog_.append(Instruction::collectColor(color(tok[1])));
        } else if (opname == "barrier") {
            need(tok, 1, "barrier");
            prog_.append(Instruction::barrier());
        } else {
            die("unknown mnemonic '" + opname + "'");
        }
    }

    struct RepeatBlock
    {
        std::uint32_t count;
        std::size_t bodyStart;
    };

    SemanticNetwork &net_;
    Program prog_;
    std::map<std::string, RuleId> ruleIds_;
    std::vector<RepeatBlock> repeats_;
    int lineno_ = 0;
};

} // namespace

bool
assemble(const std::string &text, SemanticNetwork &net, Program &out,
         std::string &err)
{
    std::istringstream is(text);
    try {
        out = Asm(net).run(is);
    } catch (const Refusal &r) {
        err = r.why;
        return false;
    }
    err.clear();
    return true;
}

bool
assembleFile(const std::string &path, SemanticNetwork &net,
             Program &out, std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << is.rdbuf();
    if (!assemble(text.str(), net, out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

} // namespace snap
