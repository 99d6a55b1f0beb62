/**
 * @file
 * snapsh — an interactive shell on the simulated SNAP-1.
 *
 *   snapsh <kb.snapkb|kb.kbimg> [--clusters N]
 *          [--partition seq|rr|sem] [--relax-capacity]
 *
 * Each input line is one SNAP assembler statement, executed
 * immediately against persistent marker state (every statement runs
 * to quiescence, so no explicit `barrier` is needed interactively).
 * A `repeat N` line opens a statement that runs once its matching
 * `end` is typed.  `rule` declarations persist for the session.
 * Collect results print as they return.  A statement the assembler
 * refuses prints its message, with line numbers counted within the
 * statement; the shell keeps its prompt, its rules and its marker
 * state.
 *
 * Builtins:
 *   .markers <m>       count (and sample) nodes holding marker m
 *   .node <name>       show a node's color and outgoing links
 *   .time              cumulative simulated machine time
 *   .stats             component statistics
 *   .save <file>       checkpoint marker state
 *   .load <file>       restore marker state
 *   .help              this list
 *   .quit              exit
 *
 * A checkpoint is runtime/snapshot's checkpoint file, the marker-state
 * codec that the shard wire's session frames also carry; `snapserve
 * --sessions-out` writes one per session.  To inspect one, .load it
 * and ask .markers.  .load refuses a missing, malformed or truncated
 * file, or one from a KB of another size, with a message and keeps
 * the current marker state.
 *
 * Exit status follows the tools' convention (tools/cli.hh).
 */

#include <cstdio>
#include <unistd.h>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "arch/machine.hh"
#include "common/metrics_registry.hh"
#include "common/strutil.hh"
#include "isa/assembler.hh"
#include "runtime/snapshot.hh"
#include "tools/cli.hh"

using namespace snap;

namespace
{

const char *const kUsage =
    "usage: snapsh <kb.snapkb|kb.kbimg> [--clusters N] "
    "[--partition seq|rr|sem] [--relax-capacity]\n";

void
printHelp()
{
    std::printf(
        "SNAP statements: rule / search-node / propagate / barrier /\n"
        "  and-marker / or-marker / not-marker / set-marker /\n"
        "  clear-marker / func-marker / collect-* / create / delete /\n"
        "  marker-create / ...  (see docs/ISA.md)\n"
        "builtins: .markers <m>  .node <name>  .time  .stats\n"
        "          .save <file>  .load <file>  .help  .quit\n");
}

/** @p err with its "line N: " prefix counted from the statement's
 *  first line, when the assembler counted @p rule_lines session rule
 *  lines ahead of it. */
std::string
statementError(const std::string &err, long long rule_lines)
{
    const std::size_t colon = err.find(':');
    long long n;
    if (!startsWith(err, "line ") || colon == std::string::npos ||
        !parseInt(err.substr(5, colon - 5), n) || n <= rule_lines)
        return err;
    return "line " + std::to_string(n - rule_lines) + err.substr(colon);
}

/** How far @p line opens (+1, `repeat N`) or closes (-1, `end`) a
 *  repeat block. */
int
blockStep(const std::string &line)
{
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty())
        return 0;
    if (tok[0] == "repeat")
        return 1;
    return tok[0] == "end" ? -1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args("snapsh", kUsage, argc, argv);
    MachineConfig cfg = MachineConfig::paperSetup();
    while (args.nextFlag()) {
        if (!cli::machineFlag(args, cfg))
            args.unknownFlag();
    }
    if (args.positional().size() != 1)
        args.usage();

    KbImageFile kb = cli::loadKb(args, args.positional()[0]);
    SemanticNetwork &net = kb.net;
    std::unique_ptr<SnapMachine> machine_ptr = cli::machineFor(kb, cfg);
    SnapMachine &machine = *machine_ptr;
    std::printf("snapsh: %u nodes, %llu links on %u clusters "
                "(%u processors).  .help for help.\n",
                net.numNodes(),
                static_cast<unsigned long long>(net.numLinks()),
                cfg.numClusters, cfg.numProcessors());

    // Rule declarations accumulate for the session.
    std::string rules_text;
    long long rule_lines = 0;
    // The lines of a statement still inside a repeat block, and how
    // many blocks are open.
    std::string block;
    int depth = 0;
    std::string line;
    bool tty = isatty(0);

    while (true) {
        if (tty) {
            std::printf(depth > 0 ? "....> " : "snap> ");
            std::fflush(stdout);
        }
        const bool more = static_cast<bool>(std::getline(std::cin, line));
        if (!more && depth == 0)
            break;
        std::string body = more ? trim(line) : std::string();
        if (more && (body.empty() || body[0] == '#'))
            continue;
        if (depth > 0 || (more && blockStep(body) > 0)) {
            // Inside a repeat block: buffer until its end (or the end
            // of input, which the assembler reports as unterminated).
            if (more) {
                block += body + "\n";
                depth += blockStep(body);
                if (depth > 0)
                    continue;
            }
            body = std::move(block);
            block.clear();
            depth = 0;
        }

        // --- builtins ------------------------------------------------
        if (body[0] == '.') {
            std::vector<std::string> tok = tokenize(body);
            if (tok[0] == ".quit" || tok[0] == ".exit")
                break;
            if (tok[0] == ".help") {
                printHelp();
            } else if (tok[0] == ".time") {
                std::printf("simulated machine time: %.3f ms\n",
                            ticksToMs(machine.now()));
            } else if (tok[0] == ".stats") {
                MetricsRegistry reg;
                machine.exportMetrics(reg);
                std::ostringstream os;
                reg.writePrometheus(os);
                std::printf("%s", os.str().c_str());
            } else if (tok[0] == ".markers" && tok.size() == 2) {
                long long m;
                if (!parseInt(tok[1].substr(tok[1][0] == 'm' ? 1 : 0),
                              m) ||
                    m < 0 ||
                    m >= static_cast<long long>(
                        capacity::numMarkers)) {
                    std::printf("bad marker '%s'\n", tok[1].c_str());
                    continue;
                }
                auto mid = static_cast<MarkerId>(m);
                std::uint32_t count = 0;
                std::uint32_t shown = 0;
                for (NodeId n = 0; n < net.numNodes(); ++n) {
                    if (!machine.markerSet(mid, n))
                        continue;
                    ++count;
                    if (shown < 8) {
                        ++shown;
                        std::printf("  %-20s value %.4f\n",
                                    net.nodeName(n).c_str(),
                                    machine.markerValue(mid, n));
                    }
                }
                std::printf("marker m%lld set at %u node(s)\n", m,
                            count);
            } else if (tok[0] == ".node" && tok.size() == 2) {
                NodeId n;
                if (!net.tryNode(tok[1], n)) {
                    std::printf("unknown node '%s'\n",
                                tok[1].c_str());
                    continue;
                }
                std::printf("%s (color %s)\n", tok[1].c_str(),
                            net.colorNames()
                                .name(net.color(n))
                                .c_str());
                for (const Link &l : net.links(n)) {
                    std::printf("  -%s-> %s (w %.3f)\n",
                                net.relations().name(l.rel).c_str(),
                                net.nodeName(l.dst).c_str(),
                                l.weight);
                }
            } else if (tok[0] == ".save" && tok.size() == 2) {
                std::string err;
                if (!saveMarkersFile(machine.image().flatten(), tok[1],
                                     err)) {
                    std::printf("%s\n", err.c_str());
                    continue;
                }
                std::printf("saved marker state to %s\n",
                            tok[1].c_str());
            } else if (tok[0] == ".load" && tok.size() == 2) {
                MarkerStore flat(0);
                std::string err;
                if (!loadMarkersFile(tok[1], flat, err)) {
                    std::printf("%s\n", err.c_str());
                    continue;
                }
                if (flat.numNodes() != net.numNodes()) {
                    std::printf("'%s' holds %u nodes but the knowledge "
                                "base has %u\n",
                                tok[1].c_str(), flat.numNodes(),
                                net.numNodes());
                    continue;
                }
                machine.image().restoreMarkers(flat);
                std::printf("restored marker state from %s\n",
                            tok[1].c_str());
            } else {
                std::printf("unknown builtin; .help for help\n");
            }
            continue;
        }

        // --- SNAP statements, assembled after the session's rules ----
        Program prog;
        std::string err;
        if (!assemble(rules_text + body + "\n", net, prog, err)) {
            std::printf("%s\n", statementError(err, rule_lines).c_str());
            continue;
        }
        if (startsWith(body, "rule ")) {
            rules_text += body + "\n";
            ++rule_lines;
            std::printf("ok (%lld rule(s) in session)\n", rule_lines);
            continue;
        }

        if (prog.empty())
            continue;
        RunResult run = machine.run(prog);
        for (const CollectResult &res : run.results) {
            for (const CollectedNode &c : res.nodes) {
                std::printf("  %-20s value %-10.4f origin %s\n",
                            net.nodeName(c.node).c_str(), c.value,
                            c.origin == invalidNode
                                ? "-"
                                : net.nodeName(c.origin).c_str());
            }
            for (const CollectedLink &l : res.links) {
                std::printf("  %s -%s-> %s (w %.4f)\n",
                            net.nodeName(l.src).c_str(),
                            net.relations().name(l.rel).c_str(),
                            net.nodeName(l.dst).c_str(), l.weight);
            }
            std::printf("  (%zu item(s))\n",
                        res.nodes.size() + res.links.size());
        }
        std::printf("[%.1f us]\n", run.wallUs());
    }
    return 0;
}
