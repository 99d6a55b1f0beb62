/**
 * @file
 * Fleet-level chaos soak: the full replicated serving stack under
 * combined machine-level and fleet-level fault injection.
 *
 *   chaos_soak [budget] [--traced]
 *                                (default 240; writes
 *                                 BENCH_chaos.json, or
 *                                 BENCH_chaos_traced.json +
 *                                 chaos_trace.json with --traced)
 *
 * --traced arms the serve-category tracer, samples every request's
 * trace context onto the wire, and records a slow-query log — the
 * tracing-on soak ROADMAP.md asks for: the same zero-wrong-answers
 * gates must hold with the observability hot path fully lit.
 *
 * Topology: an R=2 ShardRouter (hedging + warm session backups +
 * background re-dial on) in front of two in-process ShardServers,
 * each with its answer cache.  Both shards run machine-level message
 * faults (drop/corrupt/delay inside the simulated interconnect,
 * detected and retried by the serve engine); a cached answer comes
 * only from a run in which nothing was injected, so the per-query
 * byte check covers cache hits on faulted shards too.  Fleet-level wire
 * faults — connection drops, truncated frames, byzantine-corrupt
 * Response payloads, slow-shard delays — are armed on shard 0 only,
 * so shard 1 is the clean control replica: every escape route the
 * router takes (re-route, hedge, failover) lands somewhere whose
 * answers are known-good, which keeps the gates exact instead of
 * probabilistic.
 *
 * The soak drives [budget] stateless queries with pinned-session
 * turns riding along in the first 70%, and injects three fleet
 * events under that traffic:
 *
 *   budget/4  planned drain of shard 0 (sessions migrate to their
 *             warm backups), then the shard process restarts and is
 *             revived back into the ring;
 *   budget/2  same planned drain + restart for shard 1;
 *   3/4       hard kill of shard 0 — no drain, no revive; the
 *             remaining traffic must be served entirely by reroute
 *             to shard 1.
 *
 * Gates: zero wrong answers among Ok responses (a byzantine-corrupt
 * payload must never be served — the response checksum catches it),
 * both planned drains lossless (drain succeeds; session-turn
 * failures never exceed what connection-killing wire faults alone
 * explain — that is the documented bounded loss of a hard
 * connection death, not a drain drop), zero stateless failures
 * after the hard kill, fleet faults actually fired, and p99 host
 * latency bounded.  Correctness compares results only, not
 * simulated wallTicks: machine-level delay faults legitimately
 * stretch simulated time.  The byte-exact zero-drop drain check
 * (answers identical to solo serving) lives in the fault-free
 * shard_drain_smoke test; this soak is the everything-at-once gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/kb_image_io.hh"
#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "fault/fleet_fault.hh"
#include "serve/engine.hh"
#include "shard/router.hh"
#include "shard/shard_server.hh"
#include "trace/trace.hh"
#include "workload/kb_gen.hh"

using namespace snap;

namespace
{

constexpr std::uint64_t kBaseSeed = 0xc4a05;

serve::ServeConfig
soakServeConfig()
{
    serve::ServeConfig cfg;
    cfg.numWorkers = 2;
    cfg.maxRetries = 16;
    cfg.machine.numClusters = 8;
    cfg.machine.perfNetEnabled = false;
    // Machine-level interconnect faults on every replica: detected
    // inside the engine and retried, so they cost latency, never
    // correctness.  The rate is per injection-site visit and the
    // soak's queries traverse a 1200-node hierarchy, so it is kept
    // low enough that a heavy query's retry budget cannot be
    // exhausted by sheer site count (see BENCH_faults.json).
    cfg.faults = FaultSpec::messageFaults(kBaseSeed ^ 0x51ab, 0.002);
    // The watchdog must exceed the workload's legitimate worst case:
    // the deepest propagation over this 1200-node hierarchy runs
    // past the 2 ms default simulated-time budget on a clean run.
    cfg.faults.watchdogTicks = 20'000'000'000; // 20 ms simulated
    return cfg;
}

FleetFaultSpec
soakFleetFaults()
{
    FleetFaultSpec spec;
    spec.seed = kBaseSeed ^ 0x7ee7;
    spec.connDropRate = 0.01;
    spec.truncateRate = 0.01;
    spec.corruptRate = 0.01;
    spec.delayRate = 0.05;
    spec.delayMs = 150.0;
    return spec;
}

/** Build query @p i of the mix: a downward (inheritance) or upward
 *  (classification) count propagation from a start node, both drawn
 *  from the query's own requestSeed() chain. */
Program
makeQuery(std::uint64_t i, const SemanticNetwork &net,
          RelationType down, RelationType up)
{
    Rng rng(serve::requestSeed(kBaseSeed, i));
    auto start = static_cast<NodeId>(rng.below(net.numNodes()));
    bool downward = rng.chance(0.5);

    Program prog;
    RuleId rule = prog.addRule(
        PropRule::chain(downward ? down : up));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));
    return prog;
}

/** A running in-process shard: server + its accept-loop thread. */
struct BenchShard
{
    std::unique_ptr<shard::ShardServer> server;
    std::thread runner;

    BenchShard(const std::string &image_path,
               const std::string &listen, const FleetFaultSpec &ff)
    {
        KbImageFile kb;
        std::string detail;
        if (loadKbImageFile(image_path, kb, detail) !=
            KbImgStatus::Ok)
            snap_fatal("cannot load %s: %s", image_path.c_str(),
                       detail.c_str());
        shard::ShardServerConfig cfg;
        cfg.listen = listen;
        cfg.serve = soakServeConfig();
        cfg.fleetFaults = ff;
        server = std::make_unique<shard::ShardServer>(std::move(kb),
                                                      cfg);
        if (!server->bind(detail))
            snap_fatal("cannot listen on %s: %s", listen.c_str(),
                       detail.c_str());
        runner = std::thread([this] { server->run(); });
    }

    ~BenchShard() { halt(); }

    /** Stop serving and join (idempotent).  Call before reading the
     *  fault tallies: hedge-loser duplicates can still be rolling
     *  faults in worker threads until the server is down. */
    void halt()
    {
        if (runner.joinable()) {
            server->stop();
            runner.join();
        }
    }

    /** Connection-killing fleet faults this server has injected. */
    std::uint64_t kills() const
    {
        const FleetFaultPlan *p = server->fleetPlan();
        if (p == nullptr)
            return 0;
        return p->connDrops() + p->truncates() + p->corrupts();
    }

    std::uint64_t injected() const
    {
        const FleetFaultPlan *p = server->fleetPlan();
        return p == nullptr ? 0 : p->injected();
    }
};

bool
sameResults(ResultSet a, ResultSet b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i].sortNodes();
        b[i].sortNodes();
        if (a[i].nodes != b[i].nodes || a[i].links != b[i].links)
            return false;
    }
    return true;
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(xs.size() - 1) + 0.5);
    return xs[std::min(idx, xs.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t budget = 240;
    bool traced = false;
    for (int a = 1; a < argc; ++a) {
        if (std::string(argv[a]) == "--traced") {
            traced = true;
            continue;
        }
        long long n;
        if (!parseInt(argv[a], n) || n < 8)
            snap_fatal("usage: chaos_soak [budget>=8] [--traced]");
        budget = static_cast<std::uint64_t>(n);
    }
    if (traced)
        trace::start(trace::kServe);

    bench::banner(
        "chaos_soak — replicated fleet under combined fault "
        "injection",
        "an R=2 fleet with machine + wire faults, two planned "
        "drains, and a hard kill serves every answer correctly or "
        "not at all");

    SemanticNetwork net = makeTreeKb(1200, 4);
    RelationType down = net.relationId("includes");
    RelationType up = net.relationId("is-a");

    bench::ScratchDir scratch("chaos");
    serve::ServeConfig scfg = soakServeConfig();
    const std::string image_path = scratch.file("chaos.kbimg");
    {
        KbImage image(net, scfg.machine);
        saveKbImageFile(net, image, scfg.machine.partition,
                        image_path);
    }

    std::vector<Program> mix;
    mix.reserve(budget);
    for (std::uint64_t i = 0; i < budget; ++i)
        mix.push_back(makeQuery(i, net, down, up));

    // Fault-free solo ground truth (results only; machine delay
    // faults legitimately move simulated wallTicks).
    std::vector<ResultSet> expected(budget);
    {
        MachineConfig mcfg = scfg.machine;
        SnapMachine direct(mcfg);
        direct.loadKb(net);
        for (std::uint64_t i = 0; i < budget; ++i) {
            direct.image().resetMarkers();
            expected[i] = direct.run(mix[i]).results;
        }
    }
    std::printf("soak: %llu stateless queries + session turns over "
                "a %u-node hierarchy, 2 shards, R=2\n\n",
                static_cast<unsigned long long>(budget),
                net.numNodes());

    const FleetFaultSpec chaos_spec = soakFleetFaults();
    const FleetFaultSpec clean_spec; // shard 1: control replica
    std::printf("fleet faults on shard 0: %s\n\n",
                chaos_spec.toJson().c_str());

    const std::string socks[2] = {scratch.file("c0.sock"),
                                  scratch.file("c1.sock")};
    std::vector<std::unique_ptr<BenchShard>> fleet;
    fleet.push_back(std::make_unique<BenchShard>(
        image_path, "unix:" + socks[0], chaos_spec));
    fleet.push_back(std::make_unique<BenchShard>(
        image_path, "unix:" + socks[1], clean_spec));

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + socks[0], "unix:" + socks[1]};
    rcfg.replication = 2;
    rcfg.hedgeDelayMs = 75.0;
    rcfg.reconnectMs = 100.0;
    if (traced) {
        rcfg.traceSample = 1.0;
        rcfg.slowQueryMs = 250.0;
    }
    shard::ShardRouter router(rcfg);
    std::string detail;
    if (!router.connect(detail))
        snap_fatal("connect: %s", detail.c_str());

    // Fault tallies survive server restarts via this accumulator.
    std::uint64_t fault_kills = 0, fleet_injected = 0;
    auto retire_tallies = [&](std::uint32_t s) {
        fleet[s]->halt();
        fault_kills += fleet[s]->kills();
        fleet_injected += fleet[s]->injected();
    };

    // Wait (bounded) for the background re-dialer to restore a
    // shard a wire fault may just have severed.
    auto ensure_healthy = [&](std::uint32_t s) {
        for (int t = 0; t < 300 && !router.shardHealthy(s); ++t)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        return router.shardHealthy(s);
    };

    struct Slot
    {
        serve::RequestStatus status = serve::RequestStatus::Failed;
        ResultSet results;
        double hostMs = 0.0;
    };
    std::vector<Slot> got(budget);
    std::mutex mu;
    std::uint64_t session_turns = 0, session_failed = 0;
    std::uint64_t post_kill = 0, post_kill_failed = 0;

    const std::uint64_t drain_at[2] = {budget / 4, budget / 2};
    const std::uint64_t kill_at = 3 * budget / 4;
    const std::uint64_t session_until = (7 * budget) / 10;
    bool drains_ok = true;
    bool killed = false;

    for (std::uint64_t i = 0; i < budget; ++i) {
        for (std::uint32_t d = 0; d < 2; ++d) {
            if (i != drain_at[d])
                continue;
            // Planned drain of shard d under live traffic, then a
            // process restart and revival back into the ring.
            std::string err;
            if (!ensure_healthy(d) || !router.drainShard(d, err)) {
                snap_warn("drain %u failed: %s", d, err.c_str());
                drains_ok = false;
                continue;
            }
            retire_tallies(d);
            fleet[d].reset();
            std::remove(socks[d].c_str());
            fleet[d] = std::make_unique<BenchShard>(
                image_path, "unix:" + socks[d],
                d == 0 ? chaos_spec : clean_spec);
            if (!router.reviveShard(d, err)) {
                snap_warn("revive %u failed: %s", d, err.c_str());
                drains_ok = false;
            }
        }
        if (i == kill_at && !killed) {
            // Hard kill of shard 0: quiesce the host-side pipeline
            // first so the gate below measures reroute of *new*
            // traffic, then take the process down with no drain and
            // no revival.  In-flight loss on a true mid-request
            // kill is the bounded-loss case covered by the session
            // accounting above.
            router.drain();
            retire_tallies(0);
            fleet[0].reset();
            killed = true;
        }

        if (i % 6 == 0 && i < session_until) {
            // Session turns are synchronous (one in flight at a
            // time): each wire-level connection kill can then claim
            // at most one turn, which is exactly the bounded-loss
            // contract the gate below asserts.
            shard::RouterRequest sreq;
            sreq.sessionId = formatString(
                "cs%llu",
                static_cast<unsigned long long>((i / 6) % 4));
            sreq.prog = mix[i];
            ++session_turns;
            auto turn = std::make_shared<
                std::promise<serve::RequestStatus>>();
            router.submit(std::move(sreq),
                          [turn](shard::ResponseFrame &&resp) {
                              turn->set_value(resp.status);
                          });
            if (turn->get_future().get() !=
                serve::RequestStatus::Ok)
                ++session_failed;
        }

        shard::RouterRequest req;
        req.prog = mix[i];
        req.rngSeed = serve::requestSeed(kBaseSeed, i);
        bool after_kill = killed;
        auto submitted = std::chrono::steady_clock::now();
        router.submit(
            std::move(req),
            [&, i, after_kill,
             submitted](shard::ResponseFrame &&resp) {
                auto now = std::chrono::steady_clock::now();
                std::lock_guard<std::mutex> lock(mu);
                got[i].status = resp.status;
                got[i].results = std::move(resp.results);
                got[i].hostMs =
                    std::chrono::duration<double, std::milli>(
                        now - submitted)
                        .count();
                if (after_kill) {
                    ++post_kill;
                    if (resp.status != serve::RequestStatus::Ok)
                        ++post_kill_failed;
                }
            });
    }
    router.drain();
    router.shutdownShards();
    if (fleet[0])
        retire_tallies(0);
    retire_tallies(1);

    std::uint64_t ok = 0, failed = 0, wrong = 0;
    std::vector<double> lat;
    lat.reserve(budget);
    for (std::uint64_t i = 0; i < budget; ++i) {
        lat.push_back(got[i].hostMs);
        if (got[i].status != serve::RequestStatus::Ok) {
            ++failed;
            continue;
        }
        ++ok;
        if (!sameResults(got[i].results, expected[i]))
            ++wrong;
    }
    const double p50 = percentile(lat, 0.50);
    const double p99 = percentile(lat, 0.99);

    std::printf("%-26s %llu/%llu ok, %llu failed, %llu wrong\n",
                "stateless:",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(wrong));
    std::printf("%-26s %llu turns, %llu failed (bounded loss; "
                "%llu wire kills)\n",
                "sessions:",
                static_cast<unsigned long long>(session_turns),
                static_cast<unsigned long long>(session_failed),
                static_cast<unsigned long long>(fault_kills));
    std::printf("%-26s rerouted %llu, hedged %llu, failovers %llu, "
                "migrated %llu, warmups %llu, corrupt %llu\n",
                "router:",
                static_cast<unsigned long long>(
                    router.rerouteCount()),
                static_cast<unsigned long long>(
                    router.hedgeCount()),
                static_cast<unsigned long long>(
                    router.failoverCount()),
                static_cast<unsigned long long>(
                    router.migratedCount()),
                static_cast<unsigned long long>(
                    router.warmupCount()),
                static_cast<unsigned long long>(
                    router.corruptResponseCount()));
    std::printf("%-26s %llu injected, post-kill %llu served / %llu "
                "failed, p50 %.3f ms, p99 %.3f ms\n\n",
                "fleet:",
                static_cast<unsigned long long>(fleet_injected),
                static_cast<unsigned long long>(post_kill),
                static_cast<unsigned long long>(post_kill_failed),
                p50, p99);

    bench::check("zero wrong answers escaped (checksum + voting)",
                 wrong == 0);
    bench::check("both planned drains succeeded under live traffic",
                 drains_ok);
    bench::check("session loss bounded by wire connection kills",
                 session_failed <= fault_kills);
    bench::check("hard kill: post-kill stateless all served via "
                 "reroute",
                 post_kill > 0 && post_kill_failed == 0);
    // At small smoke budgets the chaotic shard sees too few
    // responses for zero injections to be surprising; only demand a
    // non-vacuous soak at full scale.
    bench::check("fleet faults actually fired",
                 budget < 160 || fleet_injected > 0);
    bench::check("p99 host latency bounded (< 5000 ms)",
                 p99 < 5000.0);

    if (traced) {
        const auto slow = router.slowQueries();
        std::printf("%-26s %zu slow quer%s over 250 ms\n", "traced:",
                    slow.size(), slow.size() == 1 ? "y" : "ies");
    }

    const char *json_path =
        traced ? "BENCH_chaos_traced.json" : "BENCH_chaos.json";
    std::ofstream os(json_path);
    os << "{\n  " << bench::jsonEnvelope() << ",\n";
    os << "  \"traced\": " << (traced ? "true" : "false") << ",\n";
    os << "  \"budget\": " << budget << ",\n";
    os << "  \"kb_nodes\": " << net.numNodes() << ",\n";
    os << "  \"fleet_faults\": " << chaos_spec.toJson() << ",\n";
    os << "  \"machine_fault_rate\": 0.002,\n";
    os << "  \"stateless\": {\"ok\": " << ok
       << ", \"failed\": " << failed
       << ", \"wrong_answers\": " << wrong
       << ", \"post_kill\": " << post_kill
       << ", \"post_kill_failed\": " << post_kill_failed << "},\n";
    os << "  \"sessions\": {\"turns\": " << session_turns
       << ", \"failed\": " << session_failed
       << ", \"wire_kills\": " << fault_kills << "},\n";
    os << "  \"router\": {\"rerouted\": " << router.rerouteCount()
       << ", \"hedged\": " << router.hedgeCount()
       << ", \"failovers\": " << router.failoverCount()
       << ", \"migrated\": " << router.migratedCount()
       << ", \"warmups\": " << router.warmupCount()
       << ", \"corrupt_responses\": "
       << router.corruptResponseCount() << "},\n";
    os << "  \"drains\": {\"planned\": 2, \"ok\": "
       << (drains_ok ? "true" : "false")
       << ", \"hard_kills\": 1},\n";
    os << "  \"fleet_injected\": " << fleet_injected << ",\n";
    os << "  \"p50_ms\": " << formatString("%.3f", p50)
       << ",\n  \"p99_ms\": " << formatString("%.3f", p99) << "\n";
    os << "}\n";
    std::printf("wrote %s\n", json_path);

    fleet.clear();
    if (traced) {
        // Stop after the fleet is down so every in-flight serve
        // span has been emitted, then gate on a non-empty dump:
        // the observability hot path must survive the same chaos
        // the serving path just did.
        trace::setMeta("trace_role", "chaos_soak");
        trace::stop();
        bench::check("traced soak wrote chaos_trace.json",
                     trace::writeJsonFile("chaos_trace.json"));
    }
    return bench::finish();
}
