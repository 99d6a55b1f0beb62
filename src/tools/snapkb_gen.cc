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
 * error: no tool could load it.
 *
 * Exit status: 0 on success, 1 on user error (bad parameter values —
 * the snap_fatal path), 2 on a command-line usage error.  This
 * convention is shared by snapvm, snapsh, snapserve, snapkb-pack,
 * and snaprouter.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/kb_image.hh"
#include "arch/kb_image_io.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "kb/kb_io.hh"
#include "nlu/kb_factory.hh"
#include "workload/kb_gen.hh"

using namespace snap;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
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
        "writes .snapkb text to stdout when --out is absent\n");
    std::exit(2);
}

long long
argInt(int argc, char **argv, int i, long long fallback)
{
    if (i >= argc)
        return fallback;
    long long v;
    if (!parseInt(argv[i], v))
        usage();
    return v;
}

struct Options
{
    std::string outPath;
    bool pack = false;
    MachineConfig machine = MachineConfig::paperSetup();
};

/** Split flags (from the first "--" argument on) from positionals. */
Options
parseOptions(int &argc, char **argv)
{
    Options opt;
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--out") {
            opt.outPath = next();
        } else if (arg == "--pack") {
            opt.pack = true;
        } else if (arg == "--clusters") {
            long long n;
            if (!parseInt(next(), n) || n < 1 || n > 32)
                usage();
            opt.machine.numClusters =
                static_cast<std::uint32_t>(n);
        } else if (arg == "--partition") {
            std::string p = next();
            if (p == "seq")
                opt.machine.partition = PartitionStrategy::Sequential;
            else if (p == "rr")
                opt.machine.partition = PartitionStrategy::RoundRobin;
            else if (p == "sem")
                opt.machine.partition = PartitionStrategy::Semantic;
            else
                usage();
        } else if (arg == "--relax-capacity") {
            opt.machine.maxNodesPerCluster = capacity::maxNodes;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage();
        } else {
            argv[keep++] = argv[i];
        }
    }
    argc = keep;
    if (opt.pack && opt.outPath.empty()) {
        std::fprintf(stderr, "--pack requires --out FILE\n");
        usage();
    }
    return opt;
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
    Options opt = parseOptions(argc, argv);
    if (argc < 3)
        usage();
    std::string kind = argv[1];

    if (kind == "tree") {
        emitNetwork(makeTreeKb(static_cast<std::uint32_t>(
                                   argInt(argc, argv, 2, 0)),
                               static_cast<std::uint32_t>(
                                   argInt(argc, argv, 3, 4))),
                    opt);
    } else if (kind == "random") {
        if (argc < 5)
            usage();
        auto nodes = static_cast<std::uint32_t>(
            argInt(argc, argv, 2, 0));
        double fanout = std::atof(argv[3]);
        auto rels = static_cast<std::uint32_t>(
            argInt(argc, argv, 4, 2));
        auto seed = static_cast<std::uint64_t>(
            argInt(argc, argv, 5, 42));
        emitNetwork(makeRandomKb(nodes, fanout, rels, seed), opt);
    } else if (kind == "linguistic") {
        LinguisticKbParams params;
        params.nonlexicalNodes = static_cast<std::uint32_t>(
            argInt(argc, argv, 2, 0));
        params.vocabulary = static_cast<std::uint32_t>(
            argInt(argc, argv, 3, 700));
        params.seed = static_cast<std::uint64_t>(
            argInt(argc, argv, 4, 42));
        LinguisticKb kb(params);
        emitNetwork(kb.net(), opt);
    } else if (kind == "chain") {
        emitNetwork(makeChainKb(static_cast<std::uint32_t>(
                        argInt(argc, argv, 2, 0))),
                    opt);
    } else {
        usage();
    }
    return 0;
}
