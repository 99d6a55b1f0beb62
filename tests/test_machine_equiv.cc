/**
 * @file
 * Randomized equivalence: for race-free programs, the SNAP machine
 * model and the sequential golden-model interpreter must produce
 * bit-identical marker state and collection results, for every
 * cluster count and partitioning strategy.
 *
 * This is the central correctness property of the reproduction: the
 * distributed, message-passing, multi-MU execution (with bursts,
 * blocking queues, and arbitrary event interleavings) converges to
 * the same unique fixpoint as sequential execution, because marker
 * merging is a monotone relaxation under a deterministic total order
 * (DESIGN.md §5.2).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "arch/machine.hh"
#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "runtime/validate.hh"
#include "tests/test_helpers.hh"
#include "workload/alpha_beta.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

/** Random race-free program over a random knowledge base. */
Program
makeRandomProgram(SemanticNetwork &net, std::uint64_t seed,
                  std::uint32_t length)
{
    Rng rng(seed);
    Program prog;

    // A pool of rules over the network's relation types.
    std::vector<RelationType> rels;
    for (RelationType r = 0; r < net.relations().size(); ++r)
        rels.push_back(r);
    snap_assert(rels.size() >= 2, "need >= 2 relation types");

    std::vector<RuleId> rules;
    for (int i = 0; i < 8; ++i) {
        RelationType r1 = rels[rng.below(rels.size())];
        RelationType r2 = rels[rng.below(rels.size())];
        PropRule rule;
        switch (rng.below(4)) {
          case 0: rule = PropRule::chain(r1); break;
          case 1: rule = PropRule::spread(r1, r2); break;
          case 2: rule = PropRule::seq(r1, r2); break;
          default: rule = PropRule::comb(r1, r2); break;
        }
        // Mix ample and *binding* step limits: the Pareto frontier
        // must keep the fixpoint order-independent even when the
        // bound cuts paths mid-cycle.
        rule.maxSteps = (i % 2 == 0) ? 40 : 2 + i / 2;
        rules.push_back(prog.addRule(std::move(rule)));
    }

    const MarkerFunc funcs[] = {MarkerFunc::AddWeight,
                                MarkerFunc::None, MarkerFunc::Count,
                                MarkerFunc::MaxWeight,
                                MarkerFunc::MinWeight};
    const CombineOp combs[] = {CombineOp::Sum, CombineOp::Min,
                               CombineOp::Max, CombineOp::First};

    auto rand_marker = [&] {
        // Mix complex (0..9) and binary (64..69) markers.
        return static_cast<MarkerId>(
            rng.chance(0.7) ? rng.below(10) : 64 + rng.below(6));
    };
    auto rand_node = [&] {
        return static_cast<NodeId>(rng.below(net.numNodes()));
    };

    std::uint32_t emitted = 0;
    while (emitted < length) {
        switch (rng.below(14)) {
          case 0:
          case 1: {  // barrier + propagate batch + barrier
            // The leading barrier closes the epoch so earlier
            // instructions touching the batch's m2 markers cannot
            // race with remote deliveries (backward hazard).
            prog.append(Instruction::barrier());
            ++emitted;
            std::uint32_t batch = 1 + rng.below(3);
            std::vector<MarkerId> used;
            bool any = false;
            for (std::uint32_t b = 0; b < batch; ++b) {
                MarkerId m1 = rand_marker();
                MarkerId m2 = rand_marker();
                bool clash = m1 == m2;
                // Overlapped propagates must be fully independent:
                // neither marker may appear in any earlier propagate
                // of the batch (Fig. 7 discipline).
                for (MarkerId u : used)
                    if (u == m1 || u == m2)
                        clash = true;
                if (clash)
                    continue;
                used.push_back(m1);
                used.push_back(m2);
                any = true;
                prog.append(Instruction::propagate(
                    m1, m2, rules[rng.below(rules.size())],
                    funcs[rng.below(5)]));
                ++emitted;
            }
            if (any) {
                prog.append(Instruction::barrier());
                ++emitted;
            }
            break;
          }
          case 2:
            prog.append(Instruction::searchNode(
                rand_node(), rand_marker(),
                static_cast<float>(rng.uniform(0, 4))));
            ++emitted;
            break;
          case 3:
            prog.append(Instruction::searchColor(
                0, rand_marker(),
                static_cast<float>(rng.uniform(0, 2))));
            ++emitted;
            break;
          case 4:
            prog.append(Instruction::searchRelation(
                rels[rng.below(rels.size())], rand_marker(), 1.0f));
            ++emitted;
            break;
          case 5: {
            MarkerId m1 = rand_marker();
            MarkerId m2 = rand_marker();
            MarkerId m3 = rand_marker();
            if (rng.chance(0.5)) {
                prog.append(Instruction::andMarker(
                    m1, m2, m3, combs[rng.below(4)]));
            } else {
                prog.append(Instruction::orMarker(
                    m1, m2, m3, combs[rng.below(4)]));
            }
            ++emitted;
            break;
          }
          case 6:
            prog.append(Instruction::notMarker(rand_marker(),
                                               rand_marker()));
            ++emitted;
            break;
          case 7:
            if (rng.chance(0.5)) {
                prog.append(Instruction::setMarker(
                    rand_marker(),
                    static_cast<float>(rng.uniform(0, 3))));
            } else {
                prog.append(
                    Instruction::clearMarker(rand_marker()));
            }
            ++emitted;
            break;
          case 8: {
            ScalarFunc f;
            f.op = rng.chance(0.5) ? ScalarFunc::Op::Add
                                   : ScalarFunc::Op::ThresholdGe;
            f.imm = static_cast<float>(rng.uniform(0, 2));
            prog.append(
                Instruction::funcMarker(rand_marker(), f));
            ++emitted;
            break;
          }
          case 10: {
            // Node maintenance: create / delete / re-weight a link,
            // or recolor a node.  A barrier first keeps the edit out
            // of any in-flight propagation epoch.
            prog.append(Instruction::barrier());
            NodeId src = rand_node();
            NodeId dst = rand_node();
            RelationType rel = rels[rng.below(rels.size())];
            switch (rng.below(4)) {
              case 0:
                prog.append(Instruction::create(
                    src, rel, static_cast<float>(rng.uniform(0.1, 2)),
                    dst));
                break;
              case 1:
                prog.append(Instruction::del(src, rel, dst));
                break;
              case 2:
                prog.append(Instruction::setWeight(
                    src, rel, dst,
                    static_cast<float>(rng.uniform(0.1, 2))));
                break;
              default:
                prog.append(Instruction::setColor(
                    src, static_cast<Color>(rng.below(3))));
                break;
            }
            emitted += 2;
            break;
          }
          case 11: {
            // Marker maintenance: bind marked nodes to an end node
            // (spawns LinkCreate/LinkDelete messages), bracketed by
            // barriers so the link edits are race free.
            prog.append(Instruction::barrier());
            MarkerId m = rand_marker();
            RelationType fwd = rels[0];
            RelationType rev = rels[1];
            NodeId end = rand_node();
            if (rng.chance(0.6)) {
                prog.append(
                    Instruction::markerCreate(m, fwd, end, rev));
            } else {
                prog.append(
                    Instruction::markerDelete(m, fwd, end, rev));
            }
            prog.append(Instruction::barrier());
            emitted += 3;
            break;
          }
          case 12:
            prog.append(Instruction::markerSetColor(
                rand_marker(), static_cast<Color>(rng.below(3))));
            ++emitted;
            break;
          case 13:
            prog.append(Instruction::collectColor(
                static_cast<Color>(rng.below(3))));
            ++emitted;
            break;
          default:
            if (rng.chance(0.6)) {
                prog.append(
                    Instruction::collectMarker(rand_marker()));
            } else {
                prog.append(Instruction::collectRelation(
                    rand_marker(), rels[rng.below(rels.size())]));
            }
            ++emitted;
            break;
        }
    }
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(0));
    prog.append(Instruction::collectMarker(64));
    return prog;
}

struct EquivCase
{
    std::uint32_t clusters;
    PartitionStrategy strategy;
    std::uint64_t seed;
};

class MachineEquiv : public ::testing::TestWithParam<EquivCase>
{
};

TEST_P(MachineEquiv, MatchesGolden)
{
    const EquivCase &c = GetParam();

    SemanticNetwork net_machine =
        makeRandomKb(120, 3.0, 4, c.seed);
    SemanticNetwork net_golden = makeRandomKb(120, 3.0, 4, c.seed);

    Program prog = makeRandomProgram(net_machine, c.seed * 17 + 3,
                                     60);
    ASSERT_TRUE(validateProgram(prog).empty());

    MachineConfig cfg;
    cfg.numClusters = c.clusters;
    cfg.partition = c.strategy;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(net_machine);
    RunResult run = machine.run(prog);

    ReferenceInterpreter golden(net_golden);
    ResultSet gres = golden.run(prog);

    test::expectSameResults(run.results, gres);
    test::expectSameMarkers(machine.image(), golden.store(),
                            net_golden.numNodes());
}

std::vector<EquivCase>
makeCases()
{
    std::vector<EquivCase> cases;
    for (std::uint32_t clusters : {1u, 2u, 3u, 4u, 8u, 16u, 32u}) {
        for (PartitionStrategy s : {PartitionStrategy::Sequential,
                                    PartitionStrategy::RoundRobin,
                                    PartitionStrategy::Semantic}) {
            cases.push_back(EquivCase{clusters, s,
                                      1000 + clusters * 7 +
                                          static_cast<std::uint64_t>(
                                              s)});
        }
    }
    // Extra seeds on the paper configuration.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        cases.push_back(
            EquivCase{16, PartitionStrategy::Semantic, seed});
    }
    // And on the full prototype.
    for (std::uint64_t seed = 20; seed <= 23; ++seed) {
        cases.push_back(
            EquivCase{32, PartitionStrategy::RoundRobin, seed});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineEquiv, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<EquivCase> &info) {
        return "c" + std::to_string(info.param.clusters) + "_p" +
               std::to_string(
                   static_cast<int>(info.param.strategy)) +
               "_s" + std::to_string(info.param.seed);
    });

// --- seeded golden regression ------------------------------------------
//
// Exact values (wallTicks, ExecBreakdown totals, and an FNV-1a digest
// of the retrieval results) captured from the seed revision on fixed
// workloads.  Any change to the simulated-time semantics of the host
// hot path — event ordering, marker kernels, frontier bookkeeping —
// shows up here as a hard failure, not just a statistical drift.

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ull;
}

std::uint64_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

std::uint64_t
digestResults(const ResultSet &rs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const CollectResult &r : rs) {
        h = fnv(h, static_cast<std::uint64_t>(r.op));
        h = fnv(h, r.marker);
        h = fnv(h, r.color);
        h = fnv(h, r.rel);
        for (const CollectedNode &n : r.nodes) {
            h = fnv(h, n.node);
            h = fnv(h, floatBits(n.value));
            h = fnv(h, n.origin);
        }
        for (const CollectedLink &l : r.links) {
            h = fnv(h, l.src);
            h = fnv(h, l.rel);
            h = fnv(h, l.dst);
            h = fnv(h, floatBits(l.weight));
        }
    }
    return h;
}

/** Fig. 17-style workload: β=8 overlapped PROPAGATEs + retrieval. */
Workload
makeFig17Golden()
{
    Workload w = makeBetaWorkload(8, 8, 8, 2, true, 11);
    for (std::uint32_t j = 0; j < 8; ++j) {
        w.prog.append(Instruction::searchRelation(
            w.net.relation("hop" + std::to_string(j)),
            static_cast<MarkerId>(2 * j), 1.0f));
    }
    for (std::uint32_t j = 0; j < 8; ++j) {
        w.prog.append(Instruction::propagate(
            static_cast<MarkerId>(2 * j),
            static_cast<MarkerId>(2 * j + 1),
            static_cast<RuleId>(j), MarkerFunc::AddWeight));
    }
    w.prog.append(Instruction::barrier());
    for (std::uint32_t j = 0; j < 8; ++j) {
        w.prog.append(Instruction::collectMarker(
            static_cast<MarkerId>(2 * j + 1)));
    }
    return w;
}

TEST(MachineGolden, Fig17SeededRegression)
{
    Workload w = makeFig17Golden();
    MachineConfig cfg = MachineConfig::paperSetup();
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);
    RunResult r = machine.run(w.prog);

    EXPECT_EQ(r.wallTicks, 8050947500ull);
    EXPECT_EQ(r.stats.messagesSent, 2688ull);
    EXPECT_EQ(r.stats.expansions, 3072ull);
    EXPECT_EQ(r.stats.arrivalsProcessed, 2688ull);
    EXPECT_EQ(r.stats.localDeliveries, 0ull);
    EXPECT_EQ(r.stats.linkTraversals, 2688ull);
    EXPECT_EQ(r.stats.muBusyTicks, 129277680000ull);
    EXPECT_EQ(r.stats.puBusyTicks, 17132800000ull);
    EXPECT_EQ(r.stats.commTicks, 4270080000ull);
    EXPECT_EQ(digestResults(r.results), 0xa7addb5c77c8e3d5ull);
}

TEST(MachineGolden, Fig16SeededRegression)
{
    Workload w = makeAlphaWorkload(448, 64, 6, 2, 71);
    w.prog.append(Instruction::searchRelation(
        w.net.relation("hop"), 0, 1.0f));
    w.prog.append(
        Instruction::propagate(0, 1, 0, MarkerFunc::AddWeight));
    w.prog.append(Instruction::barrier());
    w.prog.append(Instruction::collectMarker(0));
    w.prog.append(Instruction::collectMarker(1));

    MachineConfig cfg;
    cfg.numClusters = 16;
    cfg.partition = PartitionStrategy::Semantic;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);
    RunResult r = machine.run(w.prog);

    EXPECT_EQ(r.wallTicks, 2601067500ull);
    EXPECT_EQ(r.stats.messagesSent, 0ull);
    EXPECT_EQ(r.stats.expansions, 2432ull);
    EXPECT_EQ(r.stats.localDeliveries, 2112ull);
    EXPECT_EQ(r.stats.linkTraversals, 2112ull);
    EXPECT_EQ(r.stats.muBusyTicks, 56218880000ull);
    EXPECT_EQ(r.stats.puBusyTicks, 3027200000ull);
    EXPECT_EQ(r.stats.commTicks, 0ull);
    EXPECT_EQ(digestResults(r.results), 0x6f0edaeb4ac41b8aull);
}

// --- fault-run golden regression ---------------------------------------
//
// Fault runs take the watchdog loop instead of draining the queue,
// and every fault draw after a run depends on where that run stopped.
// These values pin the full observable outcome of two back-to-back
// runs on one machine per fault plan: simulated time, the results
// digest, and every FaultReport field.  The plans cover clean,
// perturbed-but-completing, wedged, and watchdog-aborted runs.

/** Four overlapped PROPAGATEs, a barrier, and a collect per
 *  destination marker. */
Workload
makeFaultGolden()
{
    Workload w = makeBetaWorkload(6, 4, 6, 1, true, 29);
    for (std::uint32_t j = 0; j < 4; ++j) {
        w.prog.append(Instruction::collectMarker(
            static_cast<MarkerId>(2 * j + 1)));
    }
    return w;
}

/** One run's pinned fields as a line: wall ticks, results digest,
 *  the injection counts (drop/corrupt/delay/sem/flip/stick/wedge/
 *  dead), and the flag bits enabled, wedged, watchdog fired, integrity
 *  checked, integrity failed. */
std::string
describeFaultRun(const RunResult &r)
{
    const FaultReport &f = r.fault;
    auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    return formatString(
        "wall %llu res %016llx inj %llu/%llu/%llu/%llu/%llu/%llu/%llu/"
        "%llu flag %d%d%d%d%d",
        u(r.wallTicks), u(digestResults(r.results)), u(f.icnDropped),
        u(f.icnCorrupted), u(f.icnDelayed), u(f.semStalls),
        u(f.markerFlips), u(f.markerSticks), u(f.syncWedges),
        u(f.deadClusters), f.enabled, f.wedged, f.watchdogFired,
        f.integrityChecked, f.integrityFailed);
}

/** Two runs of @p w on one fault-armed machine with the integrity
 *  shadow on; the second follows repair() when the first aborted. */
std::pair<std::string, std::string>
runFaultPair(const Workload &w, const FaultSpec &spec)
{
    MachineConfig cfg;
    cfg.numClusters = 16;
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);
    machine.installFaults(spec);
    machine.setIntegrityShadow(&w.net);
    std::string first = describeFaultRun(machine.run(w.prog));
    if (machine.poisoned())
        machine.repair();
    std::string second = describeFaultRun(machine.run(w.prog));
    return {first, second};
}

TEST(MachineGolden, FaultRunsSeededRegression)
{
    using Pair = std::pair<std::string, std::string>;
    Workload w = makeFaultGolden();

    // Message faults plus every per-run fault kind, seeds 1..12.
    const Pair sweep[] = {
        {"wall 494667500 res ee6aa85c9d66970d inj 1/0/0/0/0/1/0/0 flag 10011",
         "wall 166767500 res cbf29ce484222325 inj 0/1/0/0/0/0/1/0 flag 11000"},
        {"wall 494667500 res ee6aa85c9d66970d inj 1/1/0/0/1/0/0/0 flag 10011",
         "wall 494667500 res ee6aa85c9d66970d inj 0/0/0/0/0/1/0/0 flag 10011"},
        {"wall 166127500 res cbf29ce484222325 inj 0/1/1/0/0/1/1/0 flag 11000",
         "wall 492587500 res ee6aa85c9d66970d inj 0/1/0/0/1/0/0/0 flag 10011"},
        {"wall 171767500 res cbf29ce484222325 inj 1/0/0/0/1/0/1/0 flag 11000",
         "wall 287767500 res cbf29ce484222325 inj 0/1/0/0/0/0/0/1 flag 11000"},
        {"wall 494667500 res ee6aa85c9d66970d inj 0/3/0/0/0/1/0/0 flag 10011",
         "wall 166767500 res cbf29ce484222325 inj 0/1/0/0/0/0/0/1 flag 11000"},
        {"wall 166767500 res cbf29ce484222325 inj 0/0/0/0/0/1/1/0 flag 11000",
         "wall 492107500 res ee6aa85c9d66970d inj 1/0/0/0/1/0/0/0 flag 10011"},
        {"wall 494667500 res ee6aa85c9d66970d inj 1/1/0/0/1/1/0/0 flag 10011",
         "wall 494667500 res ee6aa85c9d66970d inj 0/0/1/0/0/1/0/0 flag 10010"},
        {"wall 167687500 res cbf29ce484222325 inj 1/1/0/0/0/0/1/0 flag 11000",
         "wall 492107500 res ee6aa85c9d66970d inj 0/0/0/0/1/1/0/0 flag 10011"},
        {"wall 494667500 res ee6aa85c9d66970d inj 0/1/0/0/1/0/0/0 flag 10011",
         "wall 494667500 res ee6aa85c9d66970d inj 2/0/0/0/0/0/0/0 flag 10010"},
        {"wall 166127500 res cbf29ce484222325 inj 0/1/0/0/1/0/0/1 flag 11000",
         "wall 493107500 res ee6aa85c9d66970d inj 1/0/0/0/1/0/0/0 flag 10011"},
        {"wall 494667500 res ee6aa85c9d66970d inj 2/0/0/0/0/1/0/0 flag 10011",
         "wall 494667500 res ee6aa85c9d66970d inj 0/0/2/0/0/0/0/0 flag 10010"},
        {"wall 492307500 res ee6aa85c9d66970d inj 2/1/0/0/0/0/0/0 flag 10010",
         "wall 166767500 res cbf29ce484222325 inj 0/0/1/0/0/1/1/0 flag 11000"},
    };
    auto sweepSpec = [](std::uint64_t seed) {
        FaultSpec spec = FaultSpec::messageFaults(seed, 0.01);
        spec.markerFlipRate = 0.3;
        spec.markerStickRate = 0.3;
        spec.syncWedgeRate = 0.2;
        spec.deadClusterRate = 0.2;
        return spec;
    };
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("fault seed " + std::to_string(seed));
        EXPECT_EQ(runFaultPair(w, sweepSpec(seed)), sweep[seed - 1]);
    }

    // A rate low enough that nothing fires: clean, checked runs.
    EXPECT_EQ(runFaultPair(w, FaultSpec::messageFaults(1, 1e-4)),
              Pair("wall 494667500 res ee6aa85c9d66970d inj "
                   "0/0/0/0/0/0/0/0 flag 10010",
                   "wall 494667500 res ee6aa85c9d66970d inj "
                   "0/0/0/0/0/0/0/0 flag 10010"));

    // A 100 us watchdog over the same sweep: most runs abort, and an
    // aborted run's wall is where the watchdog's check grid stopped
    // it — the grid steps to the next pending event or slot release.
    const Pair sweep100us[] = {
        {"wall 100327500 res cbf29ce484222325 inj 0/0/0/0/0/0/0/0 flag 11100",
         "wall 99647500 res cbf29ce484222325 inj 1/0/0/0/0/0/1/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 0/1/0/0/0/0/0/0 flag 11100",
         "wall 100167500 res cbf29ce484222325 inj 1/0/0/0/0/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 0/0/1/0/0/1/1/0 flag 11100",
         "wall 100727500 res cbf29ce484222325 inj 0/1/0/0/1/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 0/0/0/0/1/0/1/0 flag 11100",
         "wall 100607500 res cbf29ce484222325 inj 1/0/0/0/0/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 0/3/0/0/0/1/0/0 flag 11100",
         "wall 99647500 res cbf29ce484222325 inj 0/0/0/0/0/0/0/1 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 0/0/0/0/0/1/1/0 flag 11100",
         "wall 100727500 res cbf29ce484222325 inj 0/0/0/0/0/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 0/1/0/0/0/1/0/0 flag 11100",
         "wall 100727500 res cbf29ce484222325 inj 1/0/0/0/0/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 1/1/0/0/0/0/0/0 flag 11100",
         "wall 99647500 res cbf29ce484222325 inj 0/0/0/0/0/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 0/0/0/0/0/0/0/0 flag 11100",
         "wall 100727500 res cbf29ce484222325 inj 0/0/0/0/0/0/0/0 flag 11100"},
        {"wall 101167500 res cbf29ce484222325 inj 0/0/0/0/1/0/0/1 flag 11100",
         "wall 99947500 res cbf29ce484222325 inj 0/1/0/0/1/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 1/0/0/0/0/1/0/0 flag 11100",
         "wall 99647500 res cbf29ce484222325 inj 1/0/0/0/0/0/0/0 flag 11100"},
        {"wall 100327500 res cbf29ce484222325 inj 1/1/0/0/0/0/0/0 flag 11100",
         "wall 99647500 res cbf29ce484222325 inj 1/0/0/0/0/1/1/0 flag 11100"},
    };
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("100 us watchdog, fault seed " +
                     std::to_string(seed));
        FaultSpec spec = sweepSpec(seed);
        spec.watchdogTicks = 100'000'000;
        EXPECT_EQ(runFaultPair(w, spec), sweep100us[seed - 1]);
    }

    // A 200 us watchdog: the first run wedges before the budget runs
    // out, the second trips the watchdog mid-run.
    FaultSpec watchdog = sweepSpec(3);
    watchdog.watchdogTicks = 200'000'000;
    EXPECT_EQ(runFaultPair(w, watchdog),
              Pair("wall 166127500 res cbf29ce484222325 inj "
                   "0/1/1/0/0/1/1/0 flag 11000",
                   "wall 201087500 res cbf29ce484222325 inj "
                   "0/1/0/0/1/0/0/0 flag 11100"));
}

} // namespace
} // namespace snap
