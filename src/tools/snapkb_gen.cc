/**
 * @file
 * snapkb-gen — generate synthetic knowledge bases in .snapkb format.
 *
 *   snapkb-gen tree <nodes> [branching] [options]
 *   snapkb-gen random <nodes> <avg-fanout> <rel-types> [seed] [options]
 *   snapkb-gen linguistic <nonlexical-nodes> [vocabulary] [seed] [opts]
 *   snapkb-gen chain <length> [options]
 *
 * Options:
 *   --out FILE       write to FILE instead of stdout
 *   --pack           write a binary .kbimg snapshot instead of text:
 *                    the KB is compiled (partitioned + relation
 *                    tables) and serialized via arch/kb_image_io.
 *                    Requires --out; bounded by machine capacity.
 *   --clusters N     (--pack) replica array size, 1..32 (default 16)
 *   --partition P    (--pack) seq|rr|sem allocation (default sem)
 *   --relax-capacity (--pack) lift the 1024 nodes/cluster cap
 *
 * The linguistic generator builds the paper's Fig. 1 layering
 * (lexical layer, syntactic/semantic constraints, concept sequences
 * with the 75/15/5/5 budget).  Every kind builds its network in
 * memory, so a KB over capacity::maxNodes (32,768) nodes is a user
 * error: no tool could load it.  Every positional value is checked
 * before anything is generated; one that is not a number in its
 * range is bad input.
 *
 * Exit status follows the tools' convention (tools/cli.hh).
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/kb_image.hh"
#include "arch/kb_image_io.hh"
#include "common/strutil.hh"
#include "kb/kb_io.hh"
#include "nlu/kb_factory.hh"
#include "tools/cli.hh"
#include "workload/kb_gen.hh"

using namespace snap;

namespace
{

const char *const kUsage =
    "usage: snapkb-gen tree <nodes> [branching] [options]\n"
    "       snapkb-gen random <nodes> <avg-fanout> <rel-types> "
    "[seed] [options]\n"
    "       snapkb-gen linguistic <nonlexical> [vocab] [seed] "
    "[options]\n"
    "       snapkb-gen chain <length> [options]\n"
    "options:\n"
    "  --out FILE        write to FILE\n"
    "  --pack            write a binary .kbimg snapshot "
    "(requires --out)\n"
    "  --clusters N      (--pack) clusters 1..32 (default 16)\n"
    "  --partition P     (--pack) seq|rr|sem (default sem)\n"
    "  --relax-capacity  (--pack) lift the nodes/cluster cap\n"
    "writes .snapkb text to stdout when --out is absent\n";

struct Options
{
    std::string outPath;
    bool pack = false;
    MachineConfig machine = MachineConfig::paperSetup();
};

/** Positional argument @p i (the kind is 0), the generator's
 *  @p what, as an integer in [@p lo, @p hi], or @p fallback when it
 *  is absent. */
long long
argInt(const cli::Args &args, std::size_t i, const char *what,
       long long lo, long long hi, long long fallback)
{
    const std::vector<std::string> &pos = args.positional();
    if (i >= pos.size())
        return fallback;
    long long v;
    if (!parseInt(pos[i], v) || v < lo || v > hi) {
        args.inputError(formatString(
            "%s: %s must be an integer in [%lld, %lld], not '%s'",
            pos[0].c_str(), what, lo, hi, pos[i].c_str()));
    }
    return v;
}

/** Emit a fully built network as text or as a packed .kbimg. */
void
emitNetwork(SemanticNetwork net, const Options &opt)
{
    if (opt.pack) {
        KbImage image(net, opt.machine);
        saveKbImageFile(net, image, opt.machine.partition,
                        opt.outPath);
        return;
    }
    if (opt.outPath.empty()) {
        saveNetwork(net, std::cout);
        return;
    }
    saveNetworkFile(net, opt.outPath);
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args("snapkb-gen", kUsage, argc, argv);
    Options opt;
    while (args.nextFlag()) {
        if (cli::machineFlag(args, opt.machine))
            continue;
        if (args.is("--out"))
            opt.outPath = args.value();
        else if (args.is("--pack"))
            opt.pack = true;
        else
            args.unknownFlag();
    }
    if (opt.pack && opt.outPath.empty())
        args.usageError("--pack requires --out FILE");
    const std::vector<std::string> &pos = args.positional();
    if (pos.size() < 2)
        args.usage();
    const std::string &kind = pos[0];

    constexpr long long kMaxNodes = capacity::maxNodes;
    constexpr long long kMaxU32 = 0xffffffffll;
    constexpr long long kAnySeed = std::numeric_limits<long long>::max();
    if (kind == "tree") {
        const auto nodes = static_cast<std::uint32_t>(
            argInt(args, 1, "nodes", 1, kMaxNodes, 0));
        const auto branching = static_cast<std::uint32_t>(
            argInt(args, 2, "branching", 1, kMaxU32, 4));
        emitNetwork(makeTreeKb(nodes, branching), opt);
    } else if (kind == "random") {
        if (pos.size() < 4)
            args.usage();
        const auto nodes = static_cast<std::uint32_t>(
            argInt(args, 1, "nodes", 2, kMaxNodes, 0));
        double fanout = 0.0;
        if (!parseDouble(pos[2], fanout) || !std::isfinite(fanout) ||
            fanout <= 0.0) {
            args.inputError("random: avg-fanout must be a number "
                            "above 0, not '" + pos[2] + "'");
        }
        const auto rels = static_cast<std::uint32_t>(argInt(
            args, 3, "rel-types", 1, capacity::numRelationTypes, 2));
        const auto seed = static_cast<std::uint64_t>(
            argInt(args, 4, "seed", -kAnySeed - 1, kAnySeed, 42));
        emitNetwork(makeRandomKb(nodes, fanout, rels, seed), opt);
    } else if (kind == "linguistic") {
        LinguisticKbParams params;
        params.nonlexicalNodes = static_cast<std::uint32_t>(
            argInt(args, 1, "nonlexical", 200, kMaxNodes, 0));
        params.vocabulary = static_cast<std::uint32_t>(
            argInt(args, 2, "vocabulary", 1, kMaxNodes, 700));
        params.seed = static_cast<std::uint64_t>(
            argInt(args, 3, "seed", -kAnySeed - 1, kAnySeed, 42));
        LinguisticKb kb(params);
        emitNetwork(kb.net(), opt);
    } else if (kind == "chain") {
        emitNetwork(makeChainKb(static_cast<std::uint32_t>(argInt(
                        args, 1, "length", 1, kMaxNodes, 0))),
                    opt);
    } else {
        args.usage();
    }
    return 0;
}
