/**
 * @file
 * Bit-exactness of sharded multi-threaded execution.
 *
 * The single-threaded run is the oracle: at every tested thread
 * count the machine must produce the identical RunResult — results,
 * final marker state, simulated wall time, and the full statistics
 * breakdown — because cfg.hostThreads is a host-performance knob
 * with zero simulated-behaviour surface.  The same holds for repeated
 * stateless runs and through fault-injecting runs (same injections,
 * same detection outcomes).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machine.hh"
#include "fault/fault_plan.hh"
#include "isa/instruction.hh"
#include "test_helpers.hh"
#include "workload/alpha_beta.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

/** A propagation-heavy program exercising every cross-cluster path:
 *  searches, overlapped propagates, a barrier, and collects. */
Workload
makeExerciser(std::uint32_t beta, std::uint64_t seed)
{
    Workload w = makeBetaWorkload(6, beta, 6, 1, true, seed);
    for (std::uint32_t j = 0; j < beta; ++j) {
        w.prog.append(Instruction::collectMarker(
            static_cast<MarkerId>(2 * j + 1)));
    }
    return w;
}

/** Everything a run observably produced. */
struct Observed
{
    RunResult r;
    MarkerStore markers;
    std::string componentStats;
};

Observed
runAt(const Workload &w, std::uint32_t clusters,
      std::uint32_t threads, const FaultSpec *faults = nullptr)
{
    MachineConfig cfg;
    cfg.numClusters = clusters;
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    cfg.hostThreads = threads;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);
    if (faults)
        machine.installFaults(*faults);
    EXPECT_EQ(machine.numShards(),
              std::min(threads, clusters));
    Observed o{machine.run(w.prog), machine.image().flatten(),
               machine.formatComponentStats()};
    return o;
}

void
expectSameBreakdown(const ExecBreakdown &a, const ExecBreakdown &b)
{
    EXPECT_EQ(a.wallTicks, b.wallTicks);
    for (std::size_t c = 0; c < ExecBreakdown::numCats; ++c) {
        auto cat = static_cast<InstrCategory>(c);
        EXPECT_EQ(a.categoryTicks(cat), b.categoryTicks(cat))
            << "categoryTicks " << c;
        EXPECT_EQ(a.categoryBusy[c], b.categoryBusy[c])
            << "categoryBusy " << c;
        EXPECT_EQ(a.categoryCounts[c], b.categoryCounts[c])
            << "categoryCounts " << c;
    }
    for (std::size_t o = 0; o < ExecBreakdown::numOps; ++o)
        EXPECT_EQ(a.opcodeCounts[o], b.opcodeCounts[o])
            << "opcode " << o;
    EXPECT_EQ(a.broadcastTicks, b.broadcastTicks);
    EXPECT_EQ(a.commTicks, b.commTicks);
    EXPECT_EQ(a.syncTicks, b.syncTicks);
    EXPECT_EQ(a.collectTicks, b.collectTicks);
    EXPECT_EQ(a.messagesSent, b.messagesSent);
    EXPECT_EQ(a.messageHops, b.messageHops);
    EXPECT_EQ(a.arrivalsProcessed, b.arrivalsProcessed);
    EXPECT_EQ(a.localDeliveries, b.localDeliveries);
    EXPECT_EQ(a.expansions, b.expansions);
    EXPECT_EQ(a.linkTraversals, b.linkTraversals);
    EXPECT_EQ(a.barriers, b.barriers);
    EXPECT_EQ(a.collects, b.collects);
    EXPECT_EQ(a.collectedItems, b.collectedItems);
    EXPECT_EQ(a.puBusyTicks, b.puBusyTicks);
    EXPECT_EQ(a.muBusyTicks, b.muBusyTicks);
    EXPECT_EQ(a.msgsPerEpoch, b.msgsPerEpoch);
    EXPECT_EQ(a.maxDepth, b.maxDepth);

    // Bit-exact: the distributions fold in canonical cluster order
    // at every thread count, so even the FP accumulators match ==.
    EXPECT_EQ(a.alphaDist.count(), b.alphaDist.count());
    EXPECT_EQ(a.alphaDist.sum(), b.alphaDist.sum());
    EXPECT_EQ(a.alphaDist.variance(), b.alphaDist.variance());
    EXPECT_EQ(a.msgLatency.count(), b.msgLatency.count());
    EXPECT_EQ(a.msgLatency.sum(), b.msgLatency.sum());
    EXPECT_EQ(a.msgLatency.variance(), b.msgLatency.variance());
    EXPECT_EQ(a.msgLatency.min(), b.msgLatency.min());
    EXPECT_EQ(a.msgLatency.max(), b.msgLatency.max());
}

void
expectSameFaultReport(const FaultReport &a, const FaultReport &b)
{
    EXPECT_EQ(a.enabled, b.enabled);
    EXPECT_EQ(a.icnDropped, b.icnDropped);
    EXPECT_EQ(a.icnCorrupted, b.icnCorrupted);
    EXPECT_EQ(a.icnDelayed, b.icnDelayed);
    EXPECT_EQ(a.semStalls, b.semStalls);
    EXPECT_EQ(a.markerFlips, b.markerFlips);
    EXPECT_EQ(a.markerSticks, b.markerSticks);
    EXPECT_EQ(a.syncWedges, b.syncWedges);
    EXPECT_EQ(a.deadClusters, b.deadClusters);
    EXPECT_EQ(a.wedged, b.wedged);
    EXPECT_EQ(a.watchdogFired, b.watchdogFired);
    EXPECT_EQ(a.integrityChecked, b.integrityChecked);
    EXPECT_EQ(a.integrityFailed, b.integrityFailed);
}

void
expectSameObserved(const Observed &oracle, const Observed &got,
                   std::uint32_t num_nodes)
{
    EXPECT_EQ(got.r.wallTicks, oracle.r.wallTicks);
    test::expectSameResults(oracle.r.results, got.r.results);
    expectSameBreakdown(oracle.r.stats, got.r.stats);
    expectSameFaultReport(oracle.r.fault, got.r.fault);
    // Final marker planes, including value registers and origins.
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        for (NodeId n = 0; n < num_nodes; ++n) {
            ASSERT_EQ(got.markers.test(mid, n),
                      oracle.markers.test(mid, n))
                << "m" << m << " node " << n;
            if (oracle.markers.test(mid, n) && isComplexMarker(mid)) {
                EXPECT_EQ(got.markers.value(mid, n),
                          oracle.markers.value(mid, n));
                EXPECT_EQ(got.markers.origin(mid, n),
                          oracle.markers.origin(mid, n));
            }
        }
    }
    // ICN / perf-net / sync / queue-high-water component stats,
    // via their canonical text rendering.
    EXPECT_EQ(got.componentStats, oracle.componentStats);
}

class ParallelExact
    : public ::testing::TestWithParam<std::uint32_t>
{
};

/** Sharded runs reproduce the single-threaded oracle exactly, over
 *  several seeds and cluster counts (including counts that do not
 *  divide evenly and a thread count above the cluster count). */
TEST_P(ParallelExact, MatchesSingleThreadOracle)
{
    const std::uint32_t threads = GetParam();
    for (std::uint64_t seed : {3ull, 17ull}) {
        for (std::uint32_t clusters : {5u, 16u, 32u}) {
            Workload w = makeExerciser(6, seed);
            Observed oracle = runAt(w, clusters, 1);
            Observed got = runAt(w, clusters, threads);
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         " clusters " + std::to_string(clusters) +
                         " threads " + std::to_string(threads));
            expectSameObserved(oracle, got, w.net.numNodes());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelExact,
                         ::testing::Values(2u, 4u, 8u));

/** Marker state persists across runs and the shard clocks realign:
 *  a two-program sequence matches the oracle program for program. */
TEST(ParallelExactTest, BackToBackRunsStayExact)
{
    Workload w = makeExerciser(4, 23);
    auto runTwice = [&](std::uint32_t threads) {
        MachineConfig cfg;
        cfg.numClusters = 16;
        cfg.partition = PartitionStrategy::RoundRobin;
        cfg.maxNodesPerCluster = capacity::maxNodes;
        cfg.hostThreads = threads;
        SnapMachine machine(cfg);
        machine.loadKb(w.net);
        RunResult r1 = machine.run(w.prog);
        RunResult r2 = machine.run(w.prog);
        return std::pair<RunResult, RunResult>(std::move(r1),
                                               std::move(r2));
    };
    auto [a1, a2] = runTwice(1);
    auto [b1, b2] = runTwice(4);
    EXPECT_EQ(b1.wallTicks, a1.wallTicks);
    EXPECT_EQ(b2.wallTicks, a2.wallTicks);
    test::expectSameResults(a1.results, b1.results);
    test::expectSameResults(a2.results, b2.results);
    expectSameBreakdown(a1.stats, b1.stats);
    expectSameBreakdown(a2.stats, b2.stats);
}

/** Stateless re-runs under threads: a machine that has already run
 *  the program, with its markers reset, answers exactly like a fresh
 *  one at every thread count — the property the serving engine's
 *  answer cache stands on. */
TEST(ParallelExactTest, RepeatedStatelessRunsAgree)
{
    Workload w = makeExerciser(4, 5);
    for (std::uint32_t threads : {1u, 4u}) {
        MachineConfig cfg;
        cfg.numClusters = 16;
        cfg.partition = PartitionStrategy::RoundRobin;
        cfg.maxNodesPerCluster = capacity::maxNodes;
        cfg.hostThreads = threads;
        SnapMachine fresh(cfg);
        fresh.loadKb(w.net);
        RunResult first = fresh.run(w.prog);

        SnapMachine reused(cfg);
        reused.loadKb(w.net);
        reused.run(w.prog);
        reused.image().resetMarkers();
        RunResult again = reused.run(w.prog);

        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(again.wallTicks, first.wallTicks);
        test::expectSameResults(first.results, again.results);
        expectSameBreakdown(first.stats, again.stats);
    }
}

/** Fault-injecting runs shard exactly too: the same faults fire at
 *  the same simulated ticks and the detection outcome (wedge /
 *  watchdog / integrity) is identical — over a seed sweep that
 *  covers clean, perturbed-but-completing, and wedged runs. */
TEST(ParallelExactTest, FaultDetectionMatchesSingleThread)
{
    Workload w = makeExerciser(4, 29);
    bool sawInjection = false;
    bool sawNotOk = false;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        FaultSpec spec = FaultSpec::messageFaults(seed, 0.01);
        spec.markerFlipRate = 0.3;
        spec.markerStickRate = 0.3;
        spec.syncWedgeRate = 0.2;
        spec.deadClusterRate = 0.2;

        Observed oracle = runAt(w, 16, 1, &spec);
        Observed got = runAt(w, 16, 4, &spec);
        SCOPED_TRACE("fault seed " + std::to_string(seed));
        expectSameFaultReport(oracle.r.fault, got.r.fault);
        EXPECT_EQ(got.r.wallTicks, oracle.r.wallTicks);
        if (oracle.r.fault.ok()) {
            test::expectSameResults(oracle.r.results, got.r.results);
            expectSameBreakdown(oracle.r.stats, got.r.stats);
        }
        sawInjection |= oracle.r.fault.injected() > 0;
        sawNotOk |= !oracle.r.fault.ok();
    }
    // The sweep must actually exercise the fault machinery.
    EXPECT_TRUE(sawInjection);
    EXPECT_TRUE(sawNotOk);
}

/** An all-zero spec arms the detection path (windowed execution) but
 *  must stay bit-identical to an unarmed machine at any thread
 *  count. */
TEST(ParallelExactTest, ZeroRatePlanIsFreeAtEveryThreadCount)
{
    Workload w = makeExerciser(4, 41);
    Observed unarmed = runAt(w, 16, 1);
    FaultSpec zero;
    for (std::uint32_t threads : {1u, 4u}) {
        Observed armed = runAt(w, 16, threads, &zero);
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(armed.r.wallTicks, unarmed.r.wallTicks);
        test::expectSameResults(unarmed.r.results, armed.r.results);
        expectSameBreakdown(unarmed.r.stats, armed.r.stats);
    }
}

} // namespace
} // namespace snap
