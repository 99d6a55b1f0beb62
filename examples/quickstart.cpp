/**
 * @file
 * Quickstart: build a miniature of the paper's Fig. 1 knowledge base,
 * write the Fig. 5 marker-propagation program in SNAP assembler, run
 * it on the simulated SNAP-1, and print what came back.
 *
 *   ./quickstart
 */

#include <cstdio>
#include <string>

#include "arch/machine.hh"
#include "isa/assembler.hh"
#include "runtime/validate.hh"

using namespace snap;

int
main()
{
    // --- 1. the knowledge base (Fig. 1, miniature) ---------------------
    // Lexical layer at the bottom, syntactic/semantic constraints in
    // the middle, one "seeing-event" concept sequence on top.
    SemanticNetwork net;
    for (const char *name :
         {"we", "see", "a", "plane",            // lexical layer
          "NP", "VP", "DO", "animate",          // constraints
          "experiencer", "see-act", "object",   // sequence elements
          "seeing-event"})                      // sequence root
        net.addNode(name);

    auto link = [&](const char *a, const char *rel, const char *b,
                    float w) {
        net.addLink(net.node(a), rel, net.node(b), w);
    };
    link("we", "is-a", "NP", 0.2f);
    link("we", "is-a", "animate", 0.2f);
    link("see", "is-a", "VP", 0.2f);
    link("a", "is-a", "DO", 0.4f);
    link("plane", "is-a", "DO", 0.2f);
    link("NP", "last", "experiencer", 0.5f);
    link("animate", "last", "experiencer", 0.3f);
    link("VP", "last", "see-act", 0.5f);
    link("DO", "last", "object", 0.5f);
    link("experiencer", "part-of", "seeing-event", 1.0f);
    link("see-act", "part-of", "seeing-event", 1.0f);
    link("object", "part-of", "seeing-event", 1.0f);

    // --- 2. the program (Fig. 5, literally) --------------------------------
    Program prog;
    std::string err;
    if (!assemble(
            // Climb is-a links, step onto a sequence element via last,
            // then bind to the sequence root via part-of.
            "rule up custom [ {is-a}* {last} {part-of} ]\n"
            "search-node NP m1 0             # L1\n"
            "search-node VP m2 0             # L2\n"
            "search-node DO m2 0             # L3\n"
            "propagate m2 m3 up add-weight   # L4\n"
            "propagate m1 m4 up add-weight   # L5\n"
            "barrier\n"
            "and-marker m3 m4 m5 sum         # L6\n"
            "collect-marker m5               # L7\n",
            net, prog, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    requireRaceFree(prog);

    // --- 3. the machine ------------------------------------------------------
    // The paper's experimental setup: 16 clusters, 72 processors,
    // 32 MHz controller, 25 MHz array PEs.
    SnapMachine machine(MachineConfig::paperSetup());
    machine.loadKb(net);
    RunResult run = machine.run(prog);

    // --- 4. results ---------------------------------------------------------
    std::printf("executed %zu SNAP instructions in %.1f us of "
                "simulated machine time\n",
                prog.size(), run.wallUs());
    std::printf("%llu inter-cluster marker messages, %llu barrier "
                "synchronizations\n\n",
                static_cast<unsigned long long>(
                    run.stats.messagesSent),
                static_cast<unsigned long long>(run.stats.barriers));

    std::printf("nodes holding m5 (reachable from both marker "
                "streams):\n");
    for (const CollectedNode &c : run.results.back().nodes) {
        std::printf("  %-12s value %.2f (origin %s)\n",
                    net.nodeName(c.node).c_str(), c.value,
                    c.origin == invalidNode
                        ? "-"
                        : net.nodeName(c.origin).c_str());
    }
    return 0;
}
