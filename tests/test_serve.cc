/**
 * @file
 * Tests for the concurrent query-serving subsystem: the bounded MPMC
 * queue, the latency histogram, thread-safe logging, shared-image
 * replication, the answer cache, and the engine's determinism /
 * session / admission semantics.  The concurrency tests double as the
 * TSan CI workload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "isa/encoding.hh"
#include "nlu/corpus.hh"
#include "nlu/kb_factory.hh"
#include "nlu/mb_parser.hh"
#include "serve/answer_cache.hh"
#include "serve/engine.hh"
#include "serve/request_queue.hh"
#include "shard/protocol.hh"
#include "tests/test_helpers.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

using serve::BoundedQueue;
using serve::Request;
using serve::RequestStatus;
using serve::Response;
using serve::ServeConfig;
using serve::ServeEngine;

// --- bounded queue ------------------------------------------------------

TEST(BoundedQueue, FifoAndBackpressure)
{
    BoundedQueue<int> q(3);
    EXPECT_EQ(q.capacity(), 3u);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_TRUE(q.tryPush(3));
    EXPECT_FALSE(q.tryPush(4)) << "full queue must reject";
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_EQ(q.highWater(), 3u);

    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_TRUE(q.tryPush(5));
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_EQ(q.pop().value(), 5);

    q.close();
    EXPECT_FALSE(q.tryPush(6)) << "closed queue must reject";
    EXPECT_FALSE(q.pop().has_value())
        << "pop on a closed empty queue signals consumer exit";
}

TEST(BoundedQueue, DrainsAfterClose)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryPush(7));
    ASSERT_TRUE(q.tryPush(8));
    q.close();
    EXPECT_EQ(q.pop().value(), 7);
    EXPECT_EQ(q.pop().value(), 8);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, ConcurrentProducersConsumers)
{
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 500;
    BoundedQueue<int> q(64);

    std::mutex mu;
    std::set<int> received;
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c) {
        consumers.emplace_back([&] {
            while (auto v = q.pop()) {
                std::lock_guard<std::mutex> lock(mu);
                received.insert(*v);
            }
        });
    }

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = p * kPerProducer + i;
                // Spin through transient fullness: the queue is
                // intentionally smaller than the item count.
                while (!q.tryPush(v))
                    std::this_thread::yield();
            }
        });
    }
    for (auto &t : producers)
        t.join();
    // Wait for the consumers to drain the queue, then release them.
    while (q.depth() > 0)
        std::this_thread::yield();
    q.close();
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(received.size(),
              static_cast<std::size_t>(kProducers * kPerProducer))
        << "every item delivered exactly once";
}

// --- histogram ----------------------------------------------------------

TEST(Histogram, ExactStatsAndQuantileBounds)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);

    // Log-linear buckets bound the relative error at ~1/8.
    EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 / 8.0);
    EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 / 8.0);
    EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 / 8.0);
    EXPECT_LE(h.quantile(1.0), 1000.0);
}

TEST(Histogram, MergeAndEdges)
{
    Histogram a, b;
    a.record(0.0);      // clamps into the bottom bucket
    a.record(1e-9);
    b.record(1e12);     // clamps into the top bucket
    b.record(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 1e12);

    Histogram empty;
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

// --- thread-safe logging ------------------------------------------------

std::mutex g_cap_mu;
std::vector<std::string> g_captured;

void
captureHook(LogLevel, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_cap_mu);
    g_captured.push_back(msg);
}

TEST(Logging, ConcurrentEmitAndHookSwap)
{
    {
        std::lock_guard<std::mutex> lock(g_cap_mu);
        g_captured.clear();
    }
    Logger::Hook old = Logger::setHook(&captureHook);

    constexpr int kThreads = 4;
    constexpr int kEach = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kEach; ++i)
                snap_warn("serve-log-test t%d i%d", t, i);
        });
    }
    // Swap the sink while writers are live: setHook must serialize
    // against in-flight emits (no torn reads of the hook pointer).
    for (int s = 0; s < 20; ++s) {
        Logger::Hook h = Logger::setHook(&captureHook);
        EXPECT_EQ(h, &captureHook);
        std::this_thread::yield();
    }
    for (auto &t : threads)
        t.join();
    Logger::setHook(old);

    std::lock_guard<std::mutex> lock(g_cap_mu);
    EXPECT_EQ(g_captured.size(),
              static_cast<std::size_t>(kThreads * kEach));
    for (const std::string &msg : g_captured) {
        EXPECT_EQ(msg.rfind("serve-log-test t", 0), 0u)
            << "interleaved/torn message: " << msg;
    }
}

// --- shared image replication -------------------------------------------

Program
countQuery(NodeId start, RelationType rel, float threshold)
{
    Program prog;
    RuleId rule = prog.addRule(PropRule::chain(rel));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    if (threshold > 0) {
        prog.append(Instruction::funcMarker(
            1, ScalarFunc{ScalarFunc::Op::ThresholdGe, threshold}));
    }
    prog.append(Instruction::collectMarker(1));
    return prog;
}

TEST(SharedImage, ReplicaMatchesDirectLoad)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    MachineConfig cfg;
    cfg.numClusters = 8;
    cfg.perfNetEnabled = false;

    KbImage master(net, cfg);

    SnapMachine direct(cfg);
    direct.loadKb(net);
    SnapMachine replica(cfg);
    replica.loadKb(master);

    Program q = countQuery(0, inc, 0.0f);
    RunResult a = direct.run(q);
    RunResult b = replica.run(q);
    test::expectSameResults(a.results, b.results);
    EXPECT_EQ(a.wallTicks, b.wallTicks);

    // The replica's marker state is private: running on it must not
    // leak into the master image.
    EXPECT_GT(replica.image().flatten().count(1), 0u);
    EXPECT_EQ(master.flatten().count(1), 0u);
}

TEST(SharedImage, ResetMarkersClearsEverything)
{
    SemanticNetwork net = makeTreeKb(120, 3);
    RelationType inc = net.relationId("includes");
    MachineConfig cfg = MachineConfig::singleCluster(2);
    SnapMachine machine(cfg);
    machine.loadKb(net);
    machine.run(countQuery(0, inc, 0.0f));
    ASSERT_GT(machine.image().flatten().count(1), 0u);

    machine.image().resetMarkers();
    MarkerStore flat = machine.image().flatten();
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m)
        EXPECT_EQ(flat.count(static_cast<MarkerId>(m)), 0u);
}

// --- the engine ---------------------------------------------------------

ServeConfig
smallEngineConfig(std::uint32_t workers)
{
    ServeConfig cfg;
    cfg.numWorkers = workers;
    cfg.machine.numClusters = 8;
    return cfg;
}

TEST(ServeEngine, MatchesDirectExecutionAndIsDeterministic)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    RelationType isa = net.relationId("is-a");

    std::vector<Program> mix;
    for (NodeId n = 0; n < 8; ++n)
        mix.push_back(countQuery(n * 37 % 300,
                                 n % 2 ? inc : isa, 0.0f));

    // Direct reference: one machine, markers cleared per query.
    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    std::vector<RunResult> expect;
    for (const Program &p : mix) {
        direct.image().resetMarkers();
        expect.push_back(direct.run(p));
    }

    for (std::uint32_t workers : {1u, 2u, 3u, 4u, 8u}) {
        ServeEngine engine(net, smallEngineConfig(workers));
        std::vector<std::future<Response>> futures;
        for (const Program &p : mix) {
            Request req;
            req.prog = p;
            futures.push_back(engine.submit(std::move(req)));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
            Response resp = futures[i].get();
            ASSERT_EQ(resp.status, RequestStatus::Ok);
            EXPECT_EQ(resp.id, i);
            EXPECT_NE(resp.rngSeed, 0u);
            test::expectSameResults(resp.results,
                                    expect[i].results);
            EXPECT_EQ(resp.wallTicks, expect[i].wallTicks)
                << "simulated time must not depend on worker "
                   "count (query " << i << ", workers "
                << workers << ")";
        }
        serve::MetricsSnapshot m = engine.metricsSnapshot();
        EXPECT_EQ(m.completed, mix.size());
        EXPECT_EQ(m.rejected, 0u);
        EXPECT_EQ(m.totalMs.count(), mix.size());
    }
}

/** Simulated farm makespan: list-schedule the per-query machine
 *  times onto @p workers replicas, earliest-free-first, in
 *  submission order. */
Tick
farmMakespan(const std::vector<Tick> &ticks, std::uint32_t workers)
{
    std::vector<Tick> freeAt(workers, 0);
    for (Tick t : ticks)
        *std::min_element(freeAt.begin(), freeAt.end()) += t;
    return *std::max_element(freeAt.begin(), freeAt.end());
}

TEST(ServeEngine, SimulatedCapacityScalesWithWorkers)
{
    // Serving capacity is measured in simulated time, so it is
    // deterministic: the makespan of the modeled W-machine farm over
    // a fixed mix of inheritance and classification queries.
    SemanticNetwork net = makeTreeKb(2000, 4);
    RelationType down = net.relationId("includes");
    RelationType up = net.relationId("is-a");
    std::vector<Program> mix;
    for (std::uint64_t i = 0; i < 48; ++i) {
        Rng rng(serve::requestSeed(0x5e471ce, i));
        auto start = static_cast<NodeId>(rng.below(net.numNodes()));
        mix.push_back(countQuery(start, rng.chance(0.5) ? down : up,
                                 0.0f));
    }

    double makespan[2] = {0.0, 0.0};
    const std::uint32_t pools[2] = {1, 4};
    for (std::size_t k = 0; k < 2; ++k) {
        ServeConfig cfg;
        cfg.numWorkers = pools[k];
        ServeEngine engine(net, cfg);
        std::vector<std::future<Response>> futures;
        for (const Program &p : mix) {
            Request req;
            req.prog = p;
            futures.push_back(engine.submit(std::move(req)));
        }
        std::vector<Tick> ticks;
        for (auto &f : futures) {
            Response resp = f.get();
            ASSERT_EQ(resp.status, RequestStatus::Ok);
            ticks.push_back(resp.wallTicks);
        }
        makespan[k] =
            static_cast<double>(farmMakespan(ticks, pools[k]));
    }
    EXPECT_GE(makespan[0] / makespan[1], 3.0)
        << "simulated capacity must scale >= 3x from 1 to 4 workers";
}

TEST(ServeEngine, SessionCarriesMarkerState)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");

    Program first = countQuery(0, inc, 0.0f);
    Program second;
    second.append(Instruction::funcMarker(
        1, ScalarFunc{ScalarFunc::Op::ThresholdGe, 3.0f}));
    second.append(Instruction::collectMarker(1));

    // Reference: uninterrupted run on one machine.
    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine straight(mcfg);
    straight.loadKb(net);
    straight.run(first);
    RunResult expect = straight.run(second);

    ServeEngine engine(net, smallEngineConfig(2));
    Request r1;
    r1.sessionId = "parse-1";
    r1.prog = first;
    Request r2;
    r2.sessionId = "parse-1";
    r2.prog = second;
    auto f1 = engine.submit(std::move(r1));
    auto f2 = engine.submit(std::move(r2));

    ASSERT_EQ(f1.get().status, RequestStatus::Ok);
    Response resp = f2.get();
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    test::expectSameResults(resp.results, expect.results);

    // The session's checkpointable state survives the requests.
    EXPECT_EQ(engine.sessionIds(),
              std::vector<std::string>{"parse-1"});
    EXPECT_GT(engine.sessionMarkers("parse-1").count(1), 0u);
}

TEST(ServeEngine, ProgramNamingANodeOutsideTheImageIsFailedUnrun)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    const RelationType inc = net.relationId("includes");
    const NodeId past = net.numNodes();

    // Every node operand the machine places or the reference
    // interpreter indexes, one past the image's last node.
    std::vector<Instruction> hostile = {
        Instruction::create(past, inc, 1.0f, 0),
        Instruction::create(0, inc, 1.0f, past),
        Instruction::del(past, inc, 0),
        Instruction::setColor(past, 1),
        Instruction::setWeight(past, inc, 0, 1.0f),
        Instruction::searchNode(past, 0, 0.0f),
        Instruction::markerCreate(0, inc, past, inc),
        Instruction::markerDelete(0, inc, past, inc),
    };
    // Fault-armed, so every replica has an integrity shadow: neither
    // the replica nor the shadow may see these programs.
    ServeConfig cfg = smallEngineConfig(2);
    cfg.faults = FaultSpec::messageFaults(3, 0.001);
    ServeEngine engine(net, cfg);
    for (const Instruction &in : hostile) {
        for (const char *sid : {"", "s"}) {
            Request req;
            req.sessionId = sid;
            req.prog.append(in);
            Response resp = engine.submit(std::move(req)).get();
            EXPECT_EQ(resp.status, RequestStatus::Failed)
                << in.toString();
            EXPECT_EQ(resp.retries, 0u);
            EXPECT_FALSE(resp.faultDetected);
        }
    }
    // The refused turns gave their slots up: the session's next turn
    // runs, and so do in-range edits and searches.
    Request turn;
    turn.sessionId = "s";
    turn.prog.append(Instruction::setColor(past - 1, 1));
    turn.prog.append(Instruction::searchNode(past - 1, 0, 0.0f));
    turn.prog.append(Instruction::collectMarker(0));
    Response resp = engine.submit(std::move(turn)).get();
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    ASSERT_EQ(resp.results.size(), 1u);
    EXPECT_EQ(resp.results[0].nodes.size(), 1u);
    EXPECT_EQ(engine.metricsSnapshot().failed, 2 * hostile.size());
}

TEST(ServeEngine, SessionRequestsExecuteInSubmissionOrder)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    constexpr int kRounds = 12;

    // Request j: collect m0 (observing round j-1's value), then
    // overwrite m0 at node 0 with value j.  Any reordering or lost
    // update shows up as a wrong observed value.
    std::vector<Program> progs;
    for (int j = 0; j < kRounds; ++j) {
        Program p;
        p.append(Instruction::collectMarker(0));
        p.append(Instruction::searchNode(
            0, 0, static_cast<float>(j + 1)));
        progs.push_back(std::move(p));
    }

    ServeEngine engine(net, smallEngineConfig(3));
    std::vector<std::future<Response>> futures;
    for (int j = 0; j < kRounds; ++j) {
        Request req;
        req.sessionId = "ordered";
        req.prog = progs[j];
        futures.push_back(engine.submit(std::move(req)));
    }
    for (int j = 0; j < kRounds; ++j) {
        Response resp = futures[j].get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        ASSERT_EQ(resp.results.size(), 1u);
        const CollectResult &c = resp.results[0];
        if (j == 0) {
            EXPECT_TRUE(c.nodes.empty())
                << "round 0 must observe pristine state";
        } else {
            ASSERT_EQ(c.nodes.size(), 1u);
            EXPECT_EQ(c.nodes[0].node, 0u);
            EXPECT_FLOAT_EQ(c.nodes[0].value,
                            static_cast<float>(j));
        }
    }
    EXPECT_FLOAT_EQ(engine.sessionMarkers("ordered").value(0, 0),
                    static_cast<float>(kRounds));
}

TEST(ServeEngine, RejectsWhenQueueFull)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(1);
    cfg.queueCapacity = 2;
    cfg.startPaused = true;
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        Request req;
        req.prog = countQuery(0, inc, 0.0f);
        futures.push_back(engine.submit(std::move(req)));
    }
    // Paused engine: exactly queueCapacity admissions succeed.
    EXPECT_EQ(futures[2].get().status, RequestStatus::Rejected);
    EXPECT_EQ(futures[3].get().status, RequestStatus::Rejected);

    engine.start();
    engine.drain();
    EXPECT_EQ(futures[0].get().status, RequestStatus::Ok);
    EXPECT_EQ(futures[1].get().status, RequestStatus::Ok);

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.submitted, 4u);
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.rejected, 2u);
    EXPECT_EQ(m.queueHighWater, 2u);
}

TEST(ServeEngine, RejectedSessionTurnDoesNotBlockSuccessors)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(1);
    cfg.queueCapacity = 1;
    cfg.startPaused = true;
    ServeEngine engine(net, cfg);

    Request a;
    a.sessionId = "s";
    a.prog = countQuery(0, inc, 0.0f);
    Request b;
    b.sessionId = "s";
    b.prog = countQuery(0, inc, 0.0f);
    auto fa = engine.submit(std::move(a));
    auto fb = engine.submit(std::move(b));  // rejected: queue full
    EXPECT_EQ(fb.get().status, RequestStatus::Rejected);

    // A third request in the same session must still run even
    // though its predecessor's turn was cancelled.
    Request c;
    c.sessionId = "s";
    c.prog = countQuery(0, inc, 0.0f);
    engine.start();
    ASSERT_EQ(fa.get().status, RequestStatus::Ok);
    auto fc = engine.submit(std::move(c));
    EXPECT_EQ(fc.get().status, RequestStatus::Ok);
}

TEST(ServeEngine, QueueDeadlineTimesOut)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;
    ServeEngine engine(net, cfg);

    Request doomed;
    doomed.prog = countQuery(0, inc, 0.0f);
    doomed.timeoutMs = 1.0;
    Request fine;
    fine.prog = countQuery(0, inc, 0.0f);
    auto f1 = engine.submit(std::move(doomed));
    auto f2 = engine.submit(std::move(fine));

    // Let the deadline lapse while the engine is still paused, so
    // the outcome does not depend on scheduling.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine.start();

    Response r1 = f1.get();
    EXPECT_EQ(r1.status, RequestStatus::TimedOut);
    EXPECT_TRUE(r1.results.empty());
    EXPECT_EQ(f2.get().status, RequestStatus::Ok)
        << "deadline-free request is unaffected";

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.timedOut, 1u);
    EXPECT_EQ(m.completed, 1u);
}

TEST(ServeEngine, MetricsJsonIsWellFormed)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeEngine engine(net, smallEngineConfig(2));
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.prog = countQuery(0, inc, 0.0f);
        futures.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futures)
        ASSERT_EQ(f.get().status, RequestStatus::Ok);

    MetricsRegistry reg;
    engine.exportMetrics(reg);
    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    for (const char *key :
         {"\"snap_serve_submitted_total\", \"kind\": \"counter\", "
          "\"value\": 6}",
          "\"snap_serve_completed_total\", \"kind\": \"counter\", "
          "\"value\": 6}",
          "\"snap_serve_rejected_total\", \"kind\": \"counter\", "
          "\"value\": 0}",
          // Every completion feeds the four latency histograms.
          "\"snap_serve_queue_wait_ms_count\", \"kind\": \"counter\", "
          "\"value\": 6}",
          "\"snap_serve_service_ms_count\", \"kind\": \"counter\", "
          "\"value\": 6}",
          "\"snap_serve_total_ms_count\", \"kind\": \"counter\", "
          "\"value\": 6}",
          "\"snap_serve_sim_us_count\", \"kind\": \"counter\", "
          "\"value\": 6}",
          "\"snap_serve_total_ms_p95\"",
          "\"snap_serve_worker_served_total\", \"kind\": \"counter\", "
          "\"labels\": {\"worker\": \"1\"}",
          "\"snap_serve_sim_makespan_us\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key << " in:\n" << json;
    }
    // Balanced braces/brackets as a cheap well-formedness probe.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

// --- answer cache ---------------------------------------------------------

using serve::AnswerCache;

/** One-result answer whose size depends only on @p nodes. */
ResultSet
answerOf(std::uint32_t nodes, float value)
{
    CollectResult r;
    for (std::uint32_t n = 0; n < nodes; ++n)
        r.nodes.push_back(CollectedNode{n, value, invalidNode});
    return ResultSet{r};
}

/** @p prog's program codec bytes: what a hit must match. */
std::vector<std::uint8_t>
codecBytes(const Program &prog)
{
    WireWriter w;
    encodeProgram(w, prog);
    return w.take();
}

/** Offer @p prog's answer twice under bucket @p hash: the second
 *  offer admits it while the budget has room. */
void
admit(AnswerCache &cache, const Program &prog, std::uint64_t hash,
      const ResultSet &answer, Tick wall)
{
    cache.insert(prog, hash, answer, wall);
    cache.insert(prog, hash, answer, wall);
}

/** Whether @p cache holds @p prog (the lookup counts as a sighting). */
bool
holds(AnswerCache &cache, const Program &prog)
{
    ResultSet out;
    Tick wall = 0;
    return cache.lookup(prog, prog.contentHash(), out, wall);
}

/** One request as ServeEngine::serveOne handles it: a lookup, and on
 *  a miss the offer of the run's answer. */
void
lookupThenOffer(AnswerCache &cache, const Program &prog,
                const ResultSet &answer, Tick wall)
{
    if (!holds(cache, prog))
        cache.insert(prog, prog.contentHash(), answer, wall);
}

/** Budget bytes one admitted @p prog / @p answer entry takes. */
std::size_t
entryBytes(const Program &prog, const ResultSet &answer)
{
    AnswerCache probe;
    admit(probe, prog, prog.contentHash(), answer, 1);
    return probe.stats().bytes;
}

TEST(AnswerCache, SameHashDifferentBytesNeverCrossHit)
{
    Program a = countQuery(0, 1, 0.0f);
    Program b = countQuery(1, 1, 0.0f);
    // Force both programs into one bucket, as a hash collision (or a
    // program crafted to collide) would.
    const std::uint64_t h = a.contentHash();
    ASSERT_NE(codecBytes(a), codecBytes(b));

    AnswerCache cache;
    admit(cache, a, h, answerOf(3, 1.0f), 111);
    ResultSet out;
    Tick wall = 0;
    EXPECT_FALSE(cache.lookup(b, h, out, wall))
        << "a colliding program must not see another's answer";

    admit(cache, b, h, answerOf(5, 2.0f), 222);
    ASSERT_TRUE(cache.lookup(a, h, out, wall));
    EXPECT_EQ(wall, 111u);
    EXPECT_EQ(out[0].nodes.size(), 3u);
    ASSERT_TRUE(cache.lookup(b, h, out, wall));
    EXPECT_EQ(wall, 222u);
    EXPECT_EQ(out[0].nodes.size(), 5u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(AnswerCache, EveryFieldIsPartOfTheKey)
{
    Program base = countQuery(7, 1, 0.0f);

    Program neg_zero;  // -0.0f search value: a different bit pattern
    {
        RuleId rule = neg_zero.addRule(PropRule::chain(1));
        neg_zero.append(Instruction::searchNode(7, 0, -0.0f));
        neg_zero.append(Instruction::propagate(0, 1, rule,
                                               MarkerFunc::Count));
        neg_zero.append(Instruction::barrier());
        neg_zero.append(Instruction::collectMarker(1));
    }
    Program steps;  // same instructions, a tighter rule step bound
    {
        PropRule r = PropRule::chain(1);
        r.maxSteps = 63;
        RuleId rule = steps.addRule(r);
        steps.append(Instruction::searchNode(7, 0, 0.0f));
        steps.append(Instruction::propagate(0, 1, rule,
                                            MarkerFunc::Count));
        steps.append(Instruction::barrier());
        steps.append(Instruction::collectMarker(1));
    }
    Program renamed;  // rule names do not affect execution
    {
        PropRule r = PropRule::chain(1);
        r.name = "another-name";
        RuleId rule = renamed.addRule(r);
        renamed.append(Instruction::searchNode(7, 0, 0.0f));
        renamed.append(Instruction::propagate(0, 1, rule,
                                              MarkerFunc::Count));
        renamed.append(Instruction::barrier());
        renamed.append(Instruction::collectMarker(1));
    }

    AnswerCache cache;
    auto put = [&](const Program &p, const ResultSet &answer, Tick wall) {
        admit(cache, p, p.contentHash(), answer, wall);
    };
    put(base, answerOf(2, 1.0f), 10);
    ResultSet out;
    Tick wall = 0;
    for (const Program *p : {&neg_zero, &steps}) {
        EXPECT_NE(codecBytes(*p), codecBytes(base));
        EXPECT_NE(p->contentHash(), base.contentHash());
        EXPECT_FALSE(cache.lookup(*p, p->contentHash(), out, wall));
    }
    EXPECT_EQ(codecBytes(renamed), codecBytes(base));
    EXPECT_TRUE(cache.lookup(renamed, renamed.contentHash(), out, wall));

    put(neg_zero, answerOf(2, 2.0f), 20);
    put(steps, answerOf(2, 3.0f), 30);
    EXPECT_EQ(cache.stats().entries, 3u);
    ASSERT_TRUE(cache.lookup(steps, steps.contentHash(), out, wall));
    EXPECT_EQ(wall, 30u);
}

TEST(AnswerCache, SecondCleanRunAdmits)
{
    Program p = countQuery(0, 1, 0.0f);
    const std::uint64_t h = p.contentHash();
    AnswerCache cache;
    ResultSet out;
    Tick wall = 0;
    cache.insert(p, h, answerOf(1, 1.0f), 5);
    EXPECT_FALSE(cache.lookup(p, h, out, wall)) << "first sighting only";
    EXPECT_EQ(cache.stats().admitted, 0u);
    cache.insert(p, h, answerOf(1, 1.0f), 5);
    EXPECT_TRUE(cache.lookup(p, h, out, wall));
    EXPECT_EQ(cache.stats().admitted, 1u);
    cache.insert(p, h, answerOf(1, 1.0f), 5);
    EXPECT_EQ(cache.stats().entries, 1u) << "no duplicate entries";

    cache.clear();
    EXPECT_FALSE(cache.lookup(p, h, out, wall));
    EXPECT_EQ(cache.stats().bytes, 0u);
    cache.insert(p, h, answerOf(1, 1.0f), 5);
    EXPECT_EQ(cache.stats().entries, 0u)
        << "clear() forgets first sightings too";
}

TEST(AnswerCache, LruEvictionStaysWithinTheByteBudget)
{
    std::vector<Program> progs;
    for (NodeId n = 0; n < 4; ++n)
        progs.push_back(countQuery(n, 1, 0.0f));
    const ResultSet answer = answerOf(16, 1.0f);
    const std::size_t entry_bytes = entryBytes(progs[0], answer);
    ASSERT_GT(entry_bytes, 0u);

    // Room for three entries of this size.  Each program is served
    // as the engine serves it, a lookup before each offer, and is
    // admitted on its second run while there is room.
    AnswerCache cache(3 * entry_bytes + entry_bytes / 2);
    for (int i = 0; i < 3; ++i) {
        lookupThenOffer(cache, progs[i], answer, 1);
        lookupThenOffer(cache, progs[i], answer, 1);
    }
    EXPECT_EQ(cache.stats().bytes, 3 * entry_bytes);
    ASSERT_TRUE(holds(cache, progs[0]));  // 1 is now oldest
    // Program 3 needs room.  On its second run it ties program 1 (two
    // lookups each) and is refused; on its third it out-counts it.
    lookupThenOffer(cache, progs[3], answer, 1);
    lookupThenOffer(cache, progs[3], answer, 1);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    lookupThenOffer(cache, progs[3], answer, 1);
    AnswerCache::Stats st = cache.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.entries, 3u);
    EXPECT_LE(st.bytes, 3 * entry_bytes + entry_bytes / 2);
    EXPECT_FALSE(holds(cache, progs[1]))
        << "the least recently used entry is the one evicted";
    EXPECT_TRUE(holds(cache, progs[0]));
    EXPECT_TRUE(holds(cache, progs[2]));
    EXPECT_TRUE(holds(cache, progs[3]));

    // An answer bigger than the whole budget is never stored, and is
    // not a refusal by frequency.
    AnswerCache tiny(entry_bytes / 2);
    lookupThenOffer(tiny, progs[0], answer, 1);
    lookupThenOffer(tiny, progs[0], answer, 1);
    EXPECT_EQ(tiny.stats().admitted, 0u);
    EXPECT_EQ(tiny.stats().bytes, 0u);
    EXPECT_EQ(tiny.stats().rejected, 0u);
}

TEST(AnswerCache, ScanDoesNotFlushAHotSet)
{
    std::vector<Program> hot, scan;
    for (NodeId n = 0; n < 4; ++n)
        hot.push_back(countQuery(n, 1, 0.0f));
    for (NodeId n = 100; n < 120; ++n)
        scan.push_back(countQuery(n, 1, 0.0f));
    const ResultSet answer = answerOf(16, 1.0f);
    const std::size_t entry_bytes = entryBytes(hot[0], answer);

    // Room for the hot set alone, which is looked up five times.
    AnswerCache cache(4 * entry_bytes + entry_bytes / 2);
    for (int round = 0; round < 5; ++round)
        for (const Program &p : hot)
            lookupThenOffer(cache, p, answer, 1);
    ASSERT_EQ(cache.stats().entries, hot.size());

    // Each scanned program runs twice, so it passes the doorkeeper,
    // but two sightings do not out-count a hot entry.
    for (const Program &p : scan) {
        lookupThenOffer(cache, p, answer, 2);
        lookupThenOffer(cache, p, answer, 2);
    }
    AnswerCache::Stats st = cache.stats();
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.rejected, scan.size());
    for (const Program &p : hot)
        EXPECT_TRUE(holds(cache, p)) << "the scan flushed a hot entry";
}

TEST(AnswerCache, TiesKeepTheIncumbent)
{
    const Program incumbent = countQuery(0, 1, 0.0f);
    const Program newcomer = countQuery(1, 1, 0.0f);
    const ResultSet answer = answerOf(16, 1.0f);
    const std::size_t entry_bytes = entryBytes(incumbent, answer);

    // Room for one entry.  The incumbent misses twice (admitted on
    // the second run) and then hits: three lookups.
    AnswerCache cache(entry_bytes + entry_bytes / 2);
    for (int i = 0; i < 3; ++i)
        lookupThenOffer(cache, incumbent, answer, 1);
    ASSERT_EQ(cache.stats().admitted, 1u);

    lookupThenOffer(cache, newcomer, answer, 2);  // first sighting
    lookupThenOffer(cache, newcomer, answer, 2);  // 2 < 3 lookups
    EXPECT_EQ(cache.stats().rejected, 1u);
    lookupThenOffer(cache, newcomer, answer, 2);  // 3 = 3: a tie
    AnswerCache::Stats st = cache.stats();
    EXPECT_EQ(st.rejected, 2u) << "a tie must keep the incumbent";
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.admitted, 1u);

    lookupThenOffer(cache, newcomer, answer, 2);  // 4 > 3
    st = cache.stats();
    EXPECT_EQ(st.rejected, 2u);
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.admitted, 2u);
    EXPECT_TRUE(holds(cache, newcomer));
    EXPECT_FALSE(holds(cache, incumbent));
}

TEST(AnswerCache, SeededZipfReplay)
{
    // A fixed-seed Zipf(1) stream over 256 programs through a cache
    // with room for 16 answers, each request served as the engine
    // serves it.  Every hit must return the answer stored for its
    // program (its wall time is the program's rank).
    constexpr std::size_t kPrograms = 256;
    constexpr int kRequests = 20000;
    std::vector<Program> progs;
    std::vector<double> cdf;
    double acc = 0.0;
    for (std::size_t k = 0; k < kPrograms; ++k) {
        progs.push_back(countQuery(static_cast<NodeId>(k), 1, 0.0f));
        acc += 1.0 / static_cast<double>(k + 1);
        cdf.push_back(acc);
    }
    const ResultSet answer = answerOf(16, 1.0f);
    const std::size_t entry_bytes = entryBytes(progs[1], answer);
    AnswerCache cache(16 * entry_bytes + entry_bytes / 2);
    Rng rng(2024);
    for (int i = 0; i < kRequests; ++i) {
        const std::size_t rank = std::min<std::size_t>(
            static_cast<std::size_t>(
                std::upper_bound(cdf.begin(), cdf.end(),
                                 rng.uniform() * cdf.back()) -
                cdf.begin()),
            kPrograms - 1);
        const Program &p = progs[rank];
        ResultSet out;
        Tick wall = 0;
        if (cache.lookup(p, p.contentHash(), out, wall)) {
            ASSERT_EQ(wall, rank) << "request " << i;
            continue;
        }
        cache.insert(p, p.contentHash(), answer, rank);
    }
    const AnswerCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits + st.misses, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(st.hits, 10736u);
    EXPECT_EQ(st.admitted, 130u);
    EXPECT_EQ(st.evictions, 114u);
    EXPECT_EQ(st.rejected, 8809u);
    EXPECT_EQ(st.entries, 16u);
    // Admission on second sighting with LRU eviction alone (the
    // cache before its frequency sketch) hit 7826 times on this
    // stream, with 11833 evictions.
    EXPECT_GT(st.hits, 7826u);
}

/** Canonical wire bytes of a result set: "byte-identical" made
 *  literal. */
std::vector<std::uint8_t>
resultBytes(const ResultSet &results)
{
    shard::WireWriter w;
    shard::encodeResults(w, results);
    return w.take();
}

/** A float from raw bits (NaN payloads and -0.0f included). */
float
floatOfBits(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

/** A random answer: up to 4 results, some with no nodes and some
 *  with links; node ids from a few apart to anywhere in 32 bits,
 *  invalidNode origins, and values drawn as raw bit patterns. */
ResultSet
randomAnswer(Rng &rng)
{
    ResultSet out(rng.below(5));
    for (CollectResult &cr : out) {
        cr.op = rng.chance(0.5) ? Opcode::CollectMarker
                                : Opcode::CollectRelation;
        cr.marker = static_cast<MarkerId>(rng.below(128));
        cr.color = static_cast<Color>(rng.below(256));
        cr.rel = static_cast<RelationType>(rng.below(65536));
        const std::size_t nodes = rng.chance(0.2) ? 0 : rng.below(300);
        NodeId id = static_cast<NodeId>(rng.below(6000));
        for (std::size_t k = 0; k < nodes; ++k) {
            id = rng.chance(0.1) ? static_cast<NodeId>(rng.next())
                                 : id + static_cast<NodeId>(
                                            rng.range(-3, 12));
            CollectedNode n;
            n.node = id;
            n.origin = rng.chance(0.3)
                           ? invalidNode
                           : id + static_cast<NodeId>(rng.range(-8, 8));
            n.value = floatOfBits(static_cast<std::uint32_t>(rng.next()));
            cr.nodes.push_back(n);
        }
        const std::size_t links = rng.chance(0.5) ? 0 : rng.below(20);
        for (std::size_t k = 0; k < links; ++k) {
            cr.links.push_back(CollectedLink{
                static_cast<NodeId>(rng.next()),
                static_cast<RelationType>(rng.below(65536)),
                static_cast<NodeId>(rng.next()),
                floatOfBits(static_cast<std::uint32_t>(rng.next()))});
        }
    }
    return out;
}

TEST(AnswerCache, RecordsDecodeBitIdentical)
{
    // Edge values first: the ends of the id range, steps that wrap,
    // -0.0f and NaNs with payloads (quiet, signalling, negative).
    CollectResult edge;
    edge.op = Opcode::CollectColor;
    edge.marker = 127;
    edge.color = 255;
    edge.rel = 65535;
    for (std::uint32_t bits : {0x80000000u, 0x7fc00001u, 0x7f800001u,
                               0xffbfffffu, 0x00000001u}) {
        edge.nodes.push_back(
            CollectedNode{0xfffffffeu, floatOfBits(bits), 0});
        edge.nodes.push_back(
            CollectedNode{0, floatOfBits(bits), invalidNode});
    }
    edge.links.push_back(CollectedLink{invalidNode, 65535, 0,
                                       floatOfBits(0x7fc0beefu)});
    std::vector<ResultSet> answers = {ResultSet{}, ResultSet{edge},
                                      ResultSet{CollectResult{}}};
    Rng rng(77);
    for (int i = 0; i < 300; ++i)
        answers.push_back(randomAnswer(rng));

    AnswerCache cache(64u << 20);
    for (std::size_t i = 0; i < answers.size(); ++i) {
        const Program p = countQuery(static_cast<NodeId>(i), 1, 0.0f);
        const Tick wall = rng.next();
        admit(cache, p, p.contentHash(), answers[i], wall);
        ResultSet out = answerOf(3, 1.0f);  // replaced, not appended to
        Tick got = 0;
        ASSERT_TRUE(cache.lookup(p, p.contentHash(), out, got))
            << "answer " << i;
        EXPECT_EQ(got, wall) << "answer " << i;
        EXPECT_EQ(resultBytes(out), resultBytes(answers[i]))
            << "answer " << i;
    }
    EXPECT_EQ(cache.stats().entries, answers.size());
}

TEST(AnswerCache, NewswireParseEntryIsCompact)
{
    // One sentence parse on the 5K-node knowledge base the parse
    // workloads serve: its entry, the program's codec bytes and the
    // compact answer, costs at most 2.7 KB and decodes bit for bit.
    LinguisticKbParams params;
    params.nonlexicalNodes = 5000;
    params.vocabulary = 700;
    LinguisticKb kb(params);
    MemoryBasedParser parser(kb);
    const Sentence s = makeNewswireBatch(kb.lexicon(), 1, 11).at(0);
    const Program p = parser.buildProgram(s.words);
    MachineConfig cfg;
    cfg.perfNetEnabled = false;
    SnapMachine machine(cfg);
    machine.loadKb(kb.net());
    const RunResult run = machine.run(p);
    std::size_t collected = 0;
    for (const CollectResult &cr : run.results)
        collected += cr.nodes.size();
    ASSERT_GT(collected, 100u);

    AnswerCache cache;
    admit(cache, p, p.contentHash(), run.results, run.wallTicks);
    ASSERT_EQ(cache.stats().entries, 1u);
    EXPECT_LE(cache.stats().bytes, 2700u);
    ResultSet out;
    Tick wall = 0;
    ASSERT_TRUE(cache.lookup(p, p.contentHash(), out, wall));
    EXPECT_EQ(wall, run.wallTicks);
    EXPECT_EQ(resultBytes(out), resultBytes(run.results));
}

TEST(AnswerCache, ProbeCountsAndRecordsOnlyAHit)
{
    const Program p = countQuery(3, 1, 0.0f);
    const std::uint64_t h = p.contentHash();
    AnswerCache cache;
    ResultSet out;
    Tick wall = 0;
    EXPECT_FALSE(cache.probe(p, h, out, wall));
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.frequency(h), 0u);
    lookupThenOffer(cache, p, answerOf(4, 2.0f), 9);
    lookupThenOffer(cache, p, answerOf(4, 2.0f), 9);
    EXPECT_EQ(cache.frequency(h), 2u);
    ASSERT_TRUE(cache.probe(p, h, out, wall));
    EXPECT_EQ(wall, 9u);
    EXPECT_EQ(resultBytes(out), resultBytes(answerOf(4, 2.0f)));
    const AnswerCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(cache.frequency(h), 3u);
}

TEST(ServeEngine, FirstCacheHitIsTheThirdServe)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    Program prog = countQuery(0, net.relationId("includes"), 0.0f);
    SnapMachine direct(smallEngineConfig(1).machine);
    direct.loadKb(net);
    RunResult ref = direct.run(prog);

    ServeEngine engine(net, smallEngineConfig(1));
    const std::uint64_t want_hits[] = {0, 0, 1, 2};
    const std::uint64_t want_admitted[] = {0, 1, 1, 1};
    for (int i = 0; i < 4; ++i) {
        Request req;
        req.prog = prog;
        Response resp = engine.submit(std::move(req)).get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.wallTicks, ref.wallTicks) << "serve " << i;
        EXPECT_EQ(resultBytes(resp.results), resultBytes(ref.results))
            << "serve " << i;
        serve::MetricsSnapshot m = engine.metricsSnapshot();
        EXPECT_EQ(m.answerCache.hits, want_hits[i]) << "serve " << i;
        EXPECT_EQ(m.answerCache.admitted, want_admitted[i])
            << "serve " << i;
    }
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.completed, 4u);
    EXPECT_EQ(m.answerCache.misses, 2u);
    EXPECT_EQ(m.workers[0].busyTicks, 2 * ref.wallTicks)
        << "hits bill no simulated busy time";
}

TEST(ServeEngine, CacheHitsAreByteIdenticalToSoloRuns)
{
    // Sentence parses on a linguistic KB, plus inheritance probes.
    LinguisticKbParams params;
    params.nonlexicalNodes = 1200;
    params.vocabulary = 200;
    params.seed = 17;
    LinguisticKb kb(params);
    MemoryBasedParser parser(kb);
    std::vector<Program> progs;
    for (const Sentence &s : makeNewswireBatch(kb.lexicon(), 4, 7))
        progs.push_back(parser.buildProgram(s.words));
    const SemanticNetwork &net = kb.net();
    for (NodeId n = 0; n < 3; ++n)
        progs.push_back(countQuery(n * 11, 0, 0.0f));

    ServeConfig cfg = smallEngineConfig(2);
    SnapMachine direct(cfg.machine);
    direct.loadKb(net);
    std::vector<RunResult> ref;
    for (const Program &p : progs) {
        ASSERT_TRUE(programIsPure(p));
        direct.image().resetMarkers();
        ref.push_back(direct.run(p));
    }

    ServeEngine engine(net, cfg);
    constexpr int kRounds = 4;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<Response>> futures;
        for (const Program &p : progs) {
            Request req;
            req.prog = p;
            futures.push_back(engine.submit(std::move(req)));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
            Response resp = futures[i].get();
            ASSERT_EQ(resp.status, RequestStatus::Ok);
            EXPECT_EQ(resp.wallTicks, ref[i].wallTicks)
                << "round " << round << " program " << i;
            EXPECT_EQ(resultBytes(resp.results),
                      resultBytes(ref[i].results))
                << "round " << round << " program " << i;
        }
    }
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.answerCache.admitted, progs.size());
    EXPECT_GE(m.answerCache.hits, progs.size())
        << "the last round must be all hits";
    EXPECT_EQ(m.answerCache.hits + m.answerCache.misses,
              kRounds * progs.size());
}

TEST(ServeEngine, SessionsAndImpureProgramsBypassTheCache)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    // Re-colouring a node with its own colour leaves the KB as it
    // was, but is a maintenance opcode: not a pure program.
    Program impure = countQuery(0, inc, 0.0f);
    impure.append(Instruction::setColor(5, net.color(5)));
    ASSERT_FALSE(programIsPure(impure));

    ServeEngine engine(net, smallEngineConfig(1));
    for (int i = 0; i < 3; ++i) {
        Request sess;
        sess.sessionId = "s";
        sess.prog = countQuery(0, inc, 0.0f);
        ASSERT_EQ(engine.submit(std::move(sess)).get().status,
                  RequestStatus::Ok);
        Request req;
        req.prog = impure;
        ASSERT_EQ(engine.submit(std::move(req)).get().status,
                  RequestStatus::Ok);
    }
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.completed, 6u);
    EXPECT_EQ(m.answerCache.hits, 0u);
    EXPECT_EQ(m.answerCache.misses, 0u);
    EXPECT_EQ(m.answerCache.admitted, 0u);
}

TEST(ServeEngine, SwapImageFlushesTheCache)
{
    SemanticNetwork before = makeTreeKb(300, 4);
    SemanticNetwork after = makeTreeKb(300, 3);
    ASSERT_EQ(before.relationId("includes"),
              after.relationId("includes"));
    Program prog = countQuery(0, before.relationId("includes"), 0.0f);

    ServeConfig cfg = smallEngineConfig(1);
    SnapMachine direct(cfg.machine);
    direct.loadKb(after);
    RunResult ref_after = direct.run(prog);

    ServeEngine engine(before, cfg);
    auto serveOnce = [&] {
        Request req;
        req.prog = prog;
        return engine.submit(std::move(req)).get();
    };
    for (int i = 0; i < 3; ++i)
        serveOnce();
    ASSERT_EQ(engine.metricsSnapshot().answerCache.hits, 1u);
    ASSERT_NE(serveOnce().wallTicks, ref_after.wallTicks)
        << "the two images must answer differently for this test";

    std::string err;
    ASSERT_TRUE(engine.swapImage(
        after, std::make_unique<KbImage>(after, cfg.machine), err))
        << err;
    EXPECT_EQ(engine.metricsSnapshot().answerCache.bytes, 0u);
    for (int i = 0; i < 3; ++i) {
        Response resp = serveOnce();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.wallTicks, ref_after.wallTicks) << "serve " << i;
        EXPECT_EQ(resultBytes(resp.results),
                  resultBytes(ref_after.results))
            << "serve " << i;
    }
}

TEST(ServeEngine, HitIsAnsweredWhileAMissHoldsTheOnlyWorker)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    const RelationType inc = net.relationId("includes");
    const Program hot = countQuery(0, inc, 0.0f);
    ServeEngine engine(net, smallEngineConfig(1));
    auto serveOnce = [&](const Program &prog) {
        Request req;
        req.prog = prog;
        return engine.submit(std::move(req)).get();
    };
    const Response ref = serveOnce(hot);
    serveOnce(hot);  // the second clean run admits it
    ASSERT_EQ(engine.metricsSnapshot().answerCache.entries, 1u);

    // A miss whose delivery holds the only worker until released,
    // and another miss queued behind it.
    std::promise<void> entered, release;
    std::shared_future<void> released = release.get_future().share();
    Request slow;
    slow.prog = countQuery(1, inc, 0.0f);
    engine.submit(std::move(slow), [&entered, released](Response &&) {
        entered.set_value();
        released.wait();
    });
    entered.get_future().wait();
    Request queued;
    queued.prog = countQuery(2, inc, 0.0f);
    std::future<Response> behind = engine.submit(std::move(queued));

    // The hit is answered on this thread, inside submit().
    bool answered = false;
    Request req;
    req.prog = hot;
    const std::thread::id self = std::this_thread::get_id();
    engine.submit(std::move(req), [&](Response &&resp) {
        answered = true;
        EXPECT_EQ(std::this_thread::get_id(), self);
        EXPECT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.queueMs, 0.0);
        EXPECT_EQ(resp.wallTicks, ref.wallTicks);
        EXPECT_EQ(resultBytes(resp.results), resultBytes(ref.results));
    });
    EXPECT_TRUE(answered);
    EXPECT_EQ(behind.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "the queued miss must still be waiting for the worker";
    release.set_value();
    EXPECT_EQ(behind.get().status, RequestStatus::Ok);
    const serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.answerCache.hits, 1u);
    EXPECT_EQ(m.workers[0].served, 4u) << "the hit is no worker's";
    EXPECT_EQ(m.completed, 5u);
}

TEST(ServeEngine, SwapNeverReturnsBeforeAnOldImageHitIsDelivered)
{
    SemanticNetwork before = makeTreeKb(300, 4);
    SemanticNetwork after = makeTreeKb(300, 3);
    const Program prog =
        countQuery(0, before.relationId("includes"), 0.0f);
    ServeConfig cfg = smallEngineConfig(1);
    SnapMachine direct(cfg.machine);
    direct.loadKb(before);
    const Tick old_wall = direct.run(prog).wallTicks;

    for (int round = 0; round < 4; ++round) {
        ServeEngine engine(before, cfg);
        for (int i = 0; i < 2; ++i) {
            Request req;
            req.prog = prog;
            engine.submit(std::move(req)).get();
        }
        // An old-image delivery lingers in its callback, so one that
        // overlapped swapImage's return would see the flag set.
        std::atomic<bool> swapped{false}, stop{false};
        std::atomic<std::uint64_t> old_hits{0}, late_old{0};
        auto submitter = [&] {
            while (!stop.load()) {
                Request req;
                req.prog = prog;
                engine.submit(std::move(req), [&](Response &&resp) {
                    if (resp.wallTicks != old_wall)
                        return;
                    ++old_hits;
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(500));
                    if (swapped.load())
                        ++late_old;
                });
            }
        };
        std::thread a(submitter), b(submitter);
        while (old_hits.load() < 20)
            std::this_thread::yield();
        std::string err;
        ASSERT_TRUE(engine.swapImage(
            after, std::make_unique<KbImage>(after, cfg.machine), err))
            << err;
        swapped.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        stop.store(true);
        a.join();
        b.join();
        engine.drain();
        EXPECT_EQ(late_old.load(), 0u)
            << "round " << round << ": an old-image answer was "
            << "delivered after swapImage returned";
    }
}

TEST(ServeEngine, EachRequestIsCountedAndRecordedOnce)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    const RelationType inc = net.relationId("includes");
    const Program p = countQuery(0, inc, 0.0f);
    const Program q = countQuery(5, inc, 0.0f);
    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;
    ServeEngine engine(net, cfg);

    // Queued before anything ran: each misses at admission, and its
    // worker looks it up again.  p's third copy finds the answer its
    // second admitted while it waited.
    std::vector<std::future<Response>> queued;
    for (const Program *prog : {&p, &p, &p, &q}) {
        Request req;
        req.prog = *prog;
        queued.push_back(engine.submit(std::move(req)));
    }
    engine.start();
    for (auto &f : queued)
        ASSERT_EQ(f.get().status, RequestStatus::Ok);
    // Answered at admission.
    for (int i = 0; i < 2; ++i) {
        Request req;
        req.prog = p;
        const Response resp = engine.submit(std::move(req)).get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.queueMs, 0.0);
    }
    engine.drain();

    const serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.submitted, 6u);
    EXPECT_EQ(m.completed, 6u);
    EXPECT_EQ(m.answerCache.hits, 3u);
    EXPECT_EQ(m.answerCache.misses, 3u);
    EXPECT_EQ(m.answerCache.admitted, 1u);
    EXPECT_EQ(m.workers[0].served, 4u);
    EXPECT_EQ(engine.answerCache().frequency(p.contentHash()), 5u)
        << "each of p's five requests is recorded once";
    EXPECT_EQ(engine.answerCache().frequency(q.contentHash()), 1u);
}

TEST(RequestSeed, DeterministicAndSpread)
{
    EXPECT_EQ(serve::requestSeed(1, 0), serve::requestSeed(1, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(serve::requestSeed(42, i));
    EXPECT_EQ(seeds.size(), 1000u) << "seed chain must not collide";
    EXPECT_NE(serve::requestSeed(1, 5), serve::requestSeed(2, 5));
}

} // namespace
} // namespace snap
