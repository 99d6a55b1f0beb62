/**
 * @file
 * Tests for the deterministic fault-injection subsystem and the
 * serving layer's recovery machinery: spec round-trips, rate-zero
 * bit-identity, seed reproducibility, detection soundness (no
 * corrupted answer survives), wedge repair, and the engine's
 * retry / quarantine / shed policies and answer-cache admission
 * under faults.
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "arch/machine.hh"
#include "fault/fault_plan.hh"
#include "serve/engine.hh"
#include "tests/test_helpers.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

using serve::Request;
using serve::RequestStatus;
using serve::Response;
using serve::ServeConfig;
using serve::ServeEngine;

Program
countQuery(NodeId start, RelationType rel)
{
    Program prog;
    RuleId rule = prog.addRule(PropRule::chain(rel));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));
    return prog;
}

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.numClusters = 8;
    cfg.perfNetEnabled = false;
    return cfg;
}

// --- spec ----------------------------------------------------------------

TEST(FaultSpec, JsonRoundTrip)
{
    FaultSpec spec;
    spec.seed = 0xdeadbeefcafef00dull;
    spec.icnDropRate = 0.125;
    spec.icnCorruptRate = 0.25;
    spec.icnDelayRate = 0.0625;
    spec.semStallRate = 0.03125;
    spec.markerFlipRate = 0.5;
    spec.markerStickRate = 0.015625;
    spec.syncWedgeRate = 0.75;
    spec.deadClusterRate = 0.875;
    spec.icnDelayTicks = 1234567;
    spec.semStallTicks = 7654321;
    spec.scheduleWindowTicks = 99999999;
    spec.watchdogTicks = 4200000000;

    FaultSpec back;
    ASSERT_TRUE(FaultSpec::fromJson(spec.toJson(), back));
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_DOUBLE_EQ(back.icnDropRate, spec.icnDropRate);
    EXPECT_DOUBLE_EQ(back.icnCorruptRate, spec.icnCorruptRate);
    EXPECT_DOUBLE_EQ(back.icnDelayRate, spec.icnDelayRate);
    EXPECT_DOUBLE_EQ(back.semStallRate, spec.semStallRate);
    EXPECT_DOUBLE_EQ(back.markerFlipRate, spec.markerFlipRate);
    EXPECT_DOUBLE_EQ(back.markerStickRate, spec.markerStickRate);
    EXPECT_DOUBLE_EQ(back.syncWedgeRate, spec.syncWedgeRate);
    EXPECT_DOUBLE_EQ(back.deadClusterRate, spec.deadClusterRate);
    EXPECT_EQ(back.icnDelayTicks, spec.icnDelayTicks);
    EXPECT_EQ(back.semStallTicks, spec.semStallTicks);
    EXPECT_EQ(back.scheduleWindowTicks, spec.scheduleWindowTicks);
    EXPECT_EQ(back.watchdogTicks, spec.watchdogTicks);

    FaultSpec junk;
    EXPECT_FALSE(FaultSpec::fromJson("not json at all", junk));

    // A negative integer is malformed, not wrapped to 2^64 - n, and a
    // rejected spec leaves the output untouched.
    EXPECT_FALSE(FaultSpec::fromJson(
        "{\"watchdog_ticks\": -1, \"icn_delay_ticks\": -5}", back));
    EXPECT_FALSE(FaultSpec::fromJson("{\"icn_delay_ticks\": -5}", back));
    EXPECT_FALSE(FaultSpec::fromJson("{\"seed\":\n -2}", back));
    EXPECT_EQ(back.watchdogTicks, spec.watchdogTicks);
    EXPECT_EQ(back.icnDelayTicks, spec.icnDelayTicks);
    EXPECT_EQ(back.seed, spec.seed);

    // Keys are strict: a misspelled key used to arm nothing, silently.
    // Each refusal says why and leaves the output untouched.
    std::string why;
    EXPECT_FALSE(FaultSpec::fromJson(
        "{\"seed\": 3, \"icn_drop_rate\": 0.5}", back, &why));
    EXPECT_EQ(why, "unknown key \"icn_drop_rate\"");
    EXPECT_FALSE(FaultSpec::fromJson(
        "{\"icn_drop\": 0.5, \"icn_drop\": 0.25}", back, &why));
    EXPECT_EQ(why, "repeated key \"icn_drop\"");
    EXPECT_FALSE(FaultSpec::fromJson("{\"icn_drop\" 0.5}", back, &why));
    EXPECT_EQ(why, "missing ':' after \"icn_drop\"");
    EXPECT_FALSE(
        FaultSpec::fromJson("{\"icn_drop\": 0.5} x", back, &why));
    EXPECT_EQ(why, "bytes after the closing '}'");
    EXPECT_DOUBLE_EQ(back.icnDropRate, spec.icnDropRate);
    EXPECT_EQ(back.seed, spec.seed);
    // Absent keys keep their defaults; an empty object is no faults.
    ASSERT_TRUE(FaultSpec::fromJson(" {\n}\n", back));
    EXPECT_FALSE(back.any());
}

TEST(FaultSpec, MessageFaultsSplitsAggregateRate)
{
    FaultSpec spec = FaultSpec::messageFaults(7, 0.05);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_TRUE(spec.any());
    EXPECT_DOUBLE_EQ(spec.icnDropRate + spec.icnCorruptRate +
                         spec.icnDelayRate,
                     0.05);
    EXPECT_DOUBLE_EQ(spec.semStallRate, 0.0);
    EXPECT_DOUBLE_EQ(spec.syncWedgeRate, 0.0);
    EXPECT_FALSE(FaultSpec{}.any());
}

// --- rate zero == no plan ------------------------------------------------

TEST(FaultInjection, RateZeroIsBitIdenticalToNoPlan)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    SnapMachine bare(smallConfig());
    bare.loadKb(net);

    SnapMachine armed(smallConfig());
    armed.loadKb(net);
    FaultSpec zero;
    zero.seed = 42;  // a seed but no rates: the plan can never fire
    armed.installFaults(zero);

    // Repeated stateless runs on both machines: every one must match.
    for (int round = 0; round < 4; ++round) {
        bare.image().resetMarkers();
        armed.image().resetMarkers();
        const std::uint64_t bare_before = bare.eventsProcessed();
        const std::uint64_t armed_before = armed.eventsProcessed();
        RunResult a = bare.run(q);
        RunResult b = armed.run(q);
        test::expectSameResults(a.results, b.results);
        EXPECT_EQ(a.wallTicks, b.wallTicks) << "round " << round;
        EXPECT_EQ(bare.eventsProcessed() - bare_before,
                  armed.eventsProcessed() - armed_before)
            << "round " << round;
        EXPECT_FALSE(b.fault.enabled)
            << "zero-rate plan must take the fault-free fast path";
        test::expectSameMarkers(armed.image(), bare.image().flatten(),
                                net.numNodes());
    }
}

// --- determinism ---------------------------------------------------------

TEST(FaultInjection, SameSeedSameFaultsSameResults)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);
    FaultSpec spec = FaultSpec::messageFaults(1234, 0.02);

    auto runSequence = [&](std::vector<FaultReport> &reports,
                           std::vector<RunResult> &runs) {
        SnapMachine m(smallConfig());
        m.loadKb(net);
        m.installFaults(spec);
        for (int i = 0; i < 4; ++i) {
            m.image().resetMarkers();
            if (m.poisoned())
                m.repair();
            RunResult r = m.run(q);
            reports.push_back(r.fault);
            runs.push_back(std::move(r));
        }
    };

    std::vector<FaultReport> ra, rb;
    std::vector<RunResult> xa, xb;
    runSequence(ra, xa);
    runSequence(rb, xb);

    std::uint64_t injected = 0;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].icnDropped, rb[i].icnDropped) << "run " << i;
        EXPECT_EQ(ra[i].icnCorrupted, rb[i].icnCorrupted)
            << "run " << i;
        EXPECT_EQ(ra[i].icnDelayed, rb[i].icnDelayed) << "run " << i;
        EXPECT_EQ(ra[i].wedged, rb[i].wedged) << "run " << i;
        EXPECT_EQ(xa[i].wallTicks, xb[i].wallTicks) << "run " << i;
        test::expectSameResults(xa[i].results, xb[i].results);
        injected += ra[i].injected();
    }
    EXPECT_GT(injected, 0u)
        << "a 2% message-fault plan over an ICN-heavy program must "
           "actually inject";
}

// --- detection soundness -------------------------------------------------

// The contract the serving layer relies on: whenever a run reports
// ok(), its answer equals the fault-free answer.  Detection may
// over-reject (a harmless injection flagged by a conservative check)
// but must never under-reject.
TEST(FaultDetection, OkRunsAreAlwaysCorrect)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    SnapMachine clean(smallConfig());
    clean.loadKb(net);
    RunResult golden = clean.run(q);

    std::uint64_t injected = 0, rejected = 0, accepted = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SnapMachine m(smallConfig());
        m.loadKb(net);
        m.installFaults(FaultSpec::messageFaults(seed, 0.01));
        m.setIntegrityShadow(&net);
        RunResult r = m.run(q);
        injected += r.fault.injected();
        if (!r.fault.ok()) {
            ++rejected;
            continue;
        }
        ++accepted;
        EXPECT_TRUE(r.fault.integrityChecked) << "seed " << seed;
        test::expectSameResults(r.results, golden.results);
    }
    EXPECT_GT(injected, 0u);
    EXPECT_GT(rejected, 0u)
        << "1% message faults over 20 seeds should corrupt at least "
           "one run — otherwise the battery proves nothing";
}

TEST(FaultDetection, DelayOnlyFaultsKeepAnswersAndPassIntegrity)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    SnapMachine clean(smallConfig());
    clean.loadKb(net);
    RunResult golden = clean.run(q);

    FaultSpec spec;
    spec.seed = 5;
    spec.icnDelayRate = 0.5;
    SnapMachine m(smallConfig());
    m.loadKb(net);
    m.installFaults(spec);
    m.setIntegrityShadow(&net);
    RunResult r = m.run(q);

    EXPECT_GT(r.fault.icnDelayed, 0u);
    EXPECT_TRUE(r.fault.ok())
        << "delays perturb timing, never answers";
    EXPECT_TRUE(r.fault.integrityChecked);
    test::expectSameResults(r.results, golden.results);
    EXPECT_GT(r.wallTicks, golden.wallTicks)
        << "stalled transfers must cost simulated time";
}

TEST(FaultDetection, MarkerFaultsAreCaughtByTheShadow)
{
    SemanticNetwork net = makeTreeKb(120, 3);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    FaultSpec spec;
    spec.markerFlipRate = 1.0;  // armed once per run, seed-placed
    // Land the flip early in the run: a tick past run end would be
    // descheduled and never fire.
    spec.scheduleWindowTicks = 5'000'000;  // first 5 us
    bool caught = false;
    std::uint64_t flips = 0;
    for (std::uint64_t seed = 1; seed <= 10 && !caught; ++seed) {
        spec.seed = seed;
        SnapMachine m(smallConfig());
        m.loadKb(net);
        m.installFaults(spec);
        m.setIntegrityShadow(&net);
        RunResult r = m.run(q);
        EXPECT_LE(r.fault.markerFlips, 1u) << "seed " << seed;
        flips += r.fault.markerFlips;
        if (r.fault.integrityFailed)
            caught = true;
    }
    EXPECT_GT(flips, 0u);
    EXPECT_TRUE(caught)
        << "ten seeded single-bit marker flips with none detected";
}

TEST(FaultDetection, MarkersEquivalentSeesEverySingleDifference)
{
    // 130 nodes: two full status words and a last word of two nodes.
    constexpr std::uint32_t n = 130;
    const MarkerId bin = capacity::numComplexMarkers + 6;
    MarkerStore base(n);
    base.set(3, 5, 1.5f, 40);
    base.set(3, 70, -2.0f, 7);
    base.set(3, 129, 4.0f, 129);
    base.setBit(bin, 1);
    base.setBit(bin, 128);

    // A difference must show whichever store comes first.
    auto differs = [&base](auto mutate) {
        MarkerStore other = base;
        mutate(other);
        return !markersEquivalent(base, other) &&
               !markersEquivalent(other, base);
    };

    MarkerStore same = base;
    EXPECT_TRUE(markersEquivalent(base, same));
    // A value register under a clear bit is not marker state.
    same.setValue(3, 10, 9.0f, 10);
    EXPECT_TRUE(markersEquivalent(base, same));
    EXPECT_TRUE(markersEquivalent(same, base));

    EXPECT_TRUE(differs([&](MarkerStore &s) { s.setBit(bin, 2); }))
        << "binary bit";
    EXPECT_TRUE(differs([&](MarkerStore &s) { s.set(3, 6, 1.5f, 40); }))
        << "complex bit";
    EXPECT_TRUE(differs([&](MarkerStore &s) { s.clear(3, 70); }))
        << "complex bit cleared";
    EXPECT_TRUE(differs([&](MarkerStore &s) {
        s.setValue(3, 70, -2.5f, 7);
    })) << "value only";
    EXPECT_TRUE(differs([&](MarkerStore &s) {
        s.setValue(3, 70, -2.0f, 8);
    })) << "origin only";
    EXPECT_TRUE(differs([&](MarkerStore &s) { s.setBit(bin, 129); }))
        << "bit in the last partial word";
    EXPECT_TRUE(differs([&](MarkerStore &s) {
        s.setValue(3, 129, 4.0f, 128);
    })) << "origin in the last partial word";
    EXPECT_FALSE(markersEquivalent(MarkerStore(n), MarkerStore(n + 1)))
        << "node count";
}

// --- wedges, watchdog, repair --------------------------------------------

TEST(FaultRecovery, WedgeIsDetectedAndRepairable)
{
    SemanticNetwork net = makeTreeKb(120, 3);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    SnapMachine clean(smallConfig());
    clean.loadKb(net);
    RunResult golden = clean.run(q);

    FaultSpec spec;
    spec.seed = 9;
    spec.syncWedgeRate = 1.0;  // swallow a completion credit
    spec.scheduleWindowTicks = 1'000'000;  // fire within 1 us
    SnapMachine m(smallConfig());
    m.loadKb(net);
    m.installFaults(spec);
    RunResult r = m.run(q);

    EXPECT_FALSE(r.fault.ok());
    EXPECT_TRUE(r.fault.wedged || r.fault.watchdogFired);
    EXPECT_EQ(r.fault.syncWedges, 1u);
    EXPECT_TRUE(m.poisoned());
    // A wedge abort leaves units mid-work; the run must still hand
    // back a closed ActiveTimer (closeAll on the abort path) or the
    // serving layer's stats merge would assert.
    EXPECT_TRUE(r.stats.categoryTimer.allClosed());

    // repair() + a zero-rate plan: the machine must serve correct
    // answers again on the same image.
    m.repair();
    EXPECT_FALSE(m.poisoned());
    m.clearFaults();
    m.image().resetMarkers();
    RunResult again = m.run(q);
    test::expectSameResults(again.results, golden.results);
    EXPECT_EQ(again.wallTicks, golden.wallTicks);
}

TEST(FaultRecovery, DeadClusterStallsTheRunNotTheHost)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    FaultSpec spec;
    spec.seed = 3;
    spec.deadClusterRate = 1.0;
    spec.scheduleWindowTicks = 1'000'000;  // fire within 1 us
    SnapMachine m(smallConfig());
    m.loadKb(net);
    m.installFaults(spec);
    RunResult r = m.run(q);

    EXPECT_EQ(r.fault.deadClusters, 1u);
    EXPECT_FALSE(r.fault.ok())
        << "a cluster that stops participating must wedge or trip "
           "the watchdog, not return a partial answer";
    EXPECT_TRUE(r.stats.categoryTimer.allClosed());
    if (m.poisoned())
        m.repair();
    EXPECT_FALSE(m.poisoned());
}

// --- the serving layer ---------------------------------------------------

ServeConfig
faultEngineConfig(std::uint32_t workers, std::uint64_t seed,
                  double rate)
{
    ServeConfig cfg;
    cfg.numWorkers = workers;
    cfg.machine.numClusters = 8;
    cfg.faults = FaultSpec::messageFaults(seed, rate);
    return cfg;
}

TEST(ServeFaults, OkResponsesAlwaysMatchTheCleanAnswer)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    MachineConfig mcfg = smallConfig();
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    RunResult golden = direct.run(q);

    ServeConfig cfg = faultEngineConfig(2, 77, 0.002);
    cfg.maxRetries = 10;
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 16; ++i) {
        Request req;
        req.prog = q;
        futures.push_back(engine.submit(std::move(req)));
    }
    std::uint64_t ok = 0;
    for (auto &f : futures) {
        Response resp = f.get();
        ASSERT_TRUE(resp.status == RequestStatus::Ok ||
                    resp.status == RequestStatus::Failed)
            << "unexpected status "
            << serve::requestStatusName(resp.status);
        if (resp.status == RequestStatus::Ok) {
            ++ok;
            test::expectSameResults(resp.results, golden.results);
            EXPECT_EQ(resp.wallTicks, golden.wallTicks)
                << "a recovered run must be a clean run, timing "
                   "included";
        } else {
            EXPECT_TRUE(resp.results.empty())
                << "a Failed response must never carry results";
        }
    }
    EXPECT_GT(ok, 0u);
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.completed + m.failed, 16u);
    EXPECT_GE(m.retries, m.recovered)
        << "every recovery costs at least one retry";
}

TEST(ServeFaults, QuarantineRestampsAfterConsecutiveFaults)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    // A rate high enough that nearly every attempt faults: health
    // hits the quarantine threshold quickly on the single worker.
    ServeConfig cfg = faultEngineConfig(1, 5, 0.05);
    cfg.maxRetries = 6;
    cfg.quarantineThreshold = 3;
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        Request req;
        req.prog = q;
        futures.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futures)
        f.get();
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_GT(m.faultsDetected, 0u);
    EXPECT_GT(m.quarantines, 0u)
        << "sustained faults on one replica must trigger quarantine";
}

TEST(ServeFaults, StatelessLoadIsShedDuringAStorm)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    ServeConfig cfg = faultEngineConfig(1, 5, 0.05);
    cfg.maxRetries = 0;   // fail fast: one fault = one storm tick
    cfg.shedThreshold = 1;
    ServeEngine engine(net, cfg);

    // First request fails (5% message faults make a clean pass over
    // this program astronomically unlikely) and arms the storm.
    Request first;
    first.prog = q;
    Response r1 = engine.submit(std::move(first)).get();
    engine.drain();
    ASSERT_EQ(r1.status, RequestStatus::Failed);

    // With the storm armed, the next stateless admission is shed.
    Request second;
    second.prog = q;
    Response r2 = engine.submit(std::move(second)).get();
    EXPECT_EQ(r2.status, RequestStatus::Rejected);
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.shed, 1u);

    // Sessions are exempt from shedding.
    Request sess;
    sess.prog = q;
    sess.sessionId = "s1";
    Response r3 = engine.submit(std::move(sess)).get();
    EXPECT_NE(r3.status, RequestStatus::Rejected)
        << "session requests must never be shed";
}

TEST(ServeFaults, RunsWithInjectedFaultsNeverEnterTheAnswerCache)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    SnapMachine direct(smallConfig());
    direct.loadKb(net);
    RunResult golden = direct.run(q);

    // Delay-only faults pass the integrity shadow (the results are
    // right) but stretch simulated time: an Ok answer that is not
    // the fault-free answer, so it must never be cached.
    ServeConfig cfg;
    cfg.numWorkers = 1;
    cfg.machine.numClusters = 8;
    cfg.faults.seed = 5;
    cfg.faults.icnDelayRate = 0.5;
    ServeEngine engine(net, cfg);

    constexpr int kRepeats = 6;
    for (int i = 0; i < kRepeats; ++i) {
        Request req;
        req.prog = q;
        Response resp = engine.submit(std::move(req)).get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        test::expectSameResults(resp.results, golden.results);
        EXPECT_GT(resp.wallTicks, golden.wallTicks)
            << "request " << i << " was not a delayed run";
    }
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.answerCache.misses, static_cast<std::uint64_t>(kRepeats));
    EXPECT_EQ(m.answerCache.hits, 0u);
    EXPECT_EQ(m.answerCache.admitted, 0u);
}

} // namespace
} // namespace snap
