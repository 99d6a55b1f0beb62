/**
 * @file
 * snapserve — drive the concurrent query-serving engine from a
 * request file (see docs/serving.md for the architecture).
 *
 *   snapserve <kb.snapkb|kb.kbimg> <requests.txt> [options]
 *   snapserve <kb.snapkb|kb.kbimg> --listen <endpoint> [options]
 *     --workers N           worker replicas (default 2)
 *     --queue N             admission queue capacity (1..2^20,
 *                           default 256)
 *     --timeout-ms X        default per-request queue deadline
 *     --seed N              base of the per-request seed chain
 *     --metrics FILE        write the MetricsRegistry export (serving
 *                           counters, aggregated execution stats and
 *                           per-replica component stats) to FILE
 *     --trace-out FILE      write a Chrome trace-event JSON with
 *                           host request spans flow-linked to the
 *                           replicas' simulated-time machine spans
 *     --sessions-out DIR    checkpoint final session marker state to
 *                           DIR/<session>.snapmarkers (the
 *                           runtime/snapshot checkpoint file; snapsh
 *                           .load reads it)
 *     --quiet               suppress per-request result listings
 *     --max-retries N       re-executions after a detected fault
 *     --quarantine N        consecutive faults before a replica is
 *                           quarantined and re-stamped (0 = never)
 *     --shed-threshold N    engine-wide consecutive faults before
 *                           stateless load is shed (0 = never)
 *                           (both counts 0..2^32-1)
 *     --listen ENDPOINT     shard mode: serve the shard wire protocol
 *                           on "unix:/path" or "host:port" until a
 *                           Shutdown frame arrives (no request file;
 *                           see docs/sharding.md).  --fault-* arm
 *                           the shard's engine as in local mode;
 *                           --metrics, --sessions-out and
 *                           --answers-out are refused (exit 2)
 *     --fleet-fault-seed N  seed for wire-layer fault injection
 *                           (shard mode only)
 *     --fleet-fault-rate X  inject wire faults on the Response path
 *                           at combined rate X, split evenly over
 *                           connection drops, truncated frames,
 *                           corrupt payloads, and slow responses
 *                           (shard mode only; chaos testing)
 *     --fleet-fault-spec F  load a full FleetFaultSpec from JSON
 *                           (shard mode only)
 *     --answers-out FILE    write the canonical answer text (status +
 *                           results by name) for diffing against a
 *                           snaprouter run over the same requests
 *   and the shared machine, fault, trace and metrics flags of
 *   tools/cli.hh: --clusters, --partition, --relax-capacity,
 *   --fault-seed/-rate/-spec, --trace-categories, --metrics-format.
 *
 * The knowledge base may be .snapkb text or a binary .kbimg snapshot
 * (sniffed by magic).  A .kbimg is bulk-loaded into the compiled
 * tables — replica stamping starts from the deserialized image, with
 * no re-partitioning or recompilation — and a corrupt one exits with
 * status 2 and the typed KbImgStatus name.
 *
 * Request file format (line oriented, '#' comments):
 *
 *     query <program.snap>            # stateless request
 *     session <id> <program.snap>     # request in session <id>
 *
 * Program paths are relative to the request file's directory and are
 * assembled once up front (assembly resolves symbols against the
 * knowledge base and must not race the workers).
 *
 * Exit status follows the tools' convention (tools/cli.hh).
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "runtime/snapshot.hh"
#include "serve/engine.hh"
#include "shard/answers.hh"
#include "shard/shard_server.hh"
#include "tools/cli.hh"

using namespace snap;

namespace
{

const char *const kUsage =
    "usage: snapserve <kb.snapkb|kb.kbimg> <requests.txt> "
    "[options]\n"
    "       snapserve <kb.snapkb|kb.kbimg> --listen <endpoint> "
    "[options]\n"
    "  --workers N            worker replicas (default 2)\n"
    "  --queue N              admission queue capacity, "
    "1..2^20 (default 256)\n"
    "  --timeout-ms X         default queue deadline, host ms\n"
    "  --clusters N           replica array size (1..32)\n"
    "  --partition seq|rr|sem allocation (default sem)\n"
    "  --relax-capacity       lift the 1024 nodes/cluster cap\n"
    "  --seed N               base request-seed chain\n"
    "  --metrics FILE         write metrics to FILE\n"
    "  --metrics-format F     json|prometheus\n"
    "  --trace-out FILE       write Chrome trace-event JSON\n"
    "  --trace-categories L   trace category list (default all)\n"
    "  --sessions-out DIR     checkpoint session marker state\n"
    "  --quiet                suppress per-request results\n"
    "  --fault-seed N         deterministic fault-injection seed\n"
    "  --fault-rate X         ICN message-fault rate (0..1)\n"
    "  --fault-spec FILE      full fault plan from JSON\n"
    "  --max-retries N        retries after a detected fault\n"
    "  --quarantine N         replica quarantine threshold\n"
    "  --shed-threshold N     fault-storm shedding threshold\n"
    "  --listen ENDPOINT      shard mode (unix:/path or "
    "host:port)\n"
    "  --fleet-fault-seed N   wire fault seed (shard mode)\n"
    "  --fleet-fault-rate X   wire fault rate 0..1 (shard mode)\n"
    "  --fleet-fault-spec F   FleetFaultSpec JSON (shard mode)\n"
    "  --answers-out FILE     write canonical answer text\n";

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args("snapserve", kUsage, argc, argv);
    serve::ServeConfig cfg;
    cfg.machine = MachineConfig::paperSetup();
    cfg.machine.perfNetEnabled = false;
    cli::FaultFlags faults("--fault");
    cli::FaultFlags fleet_faults("--fleet-fault");
    cli::TraceFlags tracing;
    cli::MetricsFlags metrics("--metrics", "--metrics-format");
    std::string sessions_dir;
    std::string listen_ep;
    std::string answers_path;
    bool quiet = false;

    while (args.nextFlag()) {
        if (cli::machineFlag(args, cfg.machine) || faults.take(args) ||
            fleet_faults.take(args) || tracing.take(args) ||
            metrics.take(args))
            continue;
        if (args.is("--workers")) {
            cfg.numWorkers = static_cast<std::uint32_t>(
                args.intValue(1, 64, "--workers must be 1..64"));
        } else if (args.is("--queue")) {
            cfg.queueCapacity = static_cast<std::size_t>(args.intValue(
                1, 1ll << 20, "--queue must be 1..1048576"));
        } else if (args.is("--timeout-ms")) {
            cfg.defaultTimeoutMs = args.doubleValue(
                0.0, cli::kNoLimit, "--timeout-ms must be >= 0");
        } else if (args.is("--seed")) {
            cfg.baseSeed = static_cast<std::uint64_t>(args.intValue(
                LLONG_MIN, LLONG_MAX, "--seed must be an integer"));
        } else if (args.is("--max-retries")) {
            cfg.maxRetries = static_cast<std::uint32_t>(
                args.intValue(0, 100, "--max-retries must be 0..100"));
        } else if (args.is("--quarantine")) {
            cfg.quarantineThreshold =
                static_cast<std::uint32_t>(args.intValue(
                    0, UINT32_MAX, "--quarantine must be 0..4294967295"));
        } else if (args.is("--shed-threshold")) {
            cfg.shedThreshold = static_cast<std::uint32_t>(args.intValue(
                0, UINT32_MAX, "--shed-threshold must be 0..4294967295"));
        } else if (args.is("--sessions-out")) {
            sessions_dir = args.value();
        } else if (args.is("--listen")) {
            listen_ep = args.value();
        } else if (args.is("--answers-out")) {
            answers_path = args.value();
        } else if (args.is("--quiet")) {
            quiet = true;
        } else {
            args.unknownFlag();
        }
    }
    // The request file is positional; shard mode has none.
    const std::vector<std::string> &pos = args.positional();
    if (pos.size() != (listen_ep.empty() ? 2u : 1u))
        args.usage();
    if (listen_ep.empty() && fleet_faults.given())
        args.usageError("--fleet-fault-* flags need --listen (they "
                        "inject on the shard wire, not the engine)");
    if (!listen_ep.empty() &&
        (!metrics.path().empty() || !sessions_dir.empty() ||
         !answers_path.empty()))
        args.usageError("--metrics, --sessions-out and --answers-out "
                        "report a request file's run; shard mode "
                        "(--listen) has none");

    // The KB may be .snapkb text or a binary .kbimg snapshot.  A
    // .kbimg master is adopted as-is: replicas are stamped from the
    // deserialized image, with no re-partitioning or recompilation.
    KbImageFile kb = cli::loadKb(args, pos[0]);
    SemanticNetwork &net = kb.net;
    cli::printKb(pos[0], kb);

    // Optional deterministic fault injection across the replica farm,
    // in either mode.
    cfg.faults = faults.spec(args, &FaultSpec::messageFaults);

    // Arm tracing before the engine exists: host and per-replica
    // track names are registered at construction time only while
    // tracing is active.  A traced shard emits serve spans carrying
    // the router's inbound trace context, the shard half of the
    // fleet's merged timeline.
    tracing.start();

    if (!listen_ep.empty()) {
        // Shard mode: hand the engine to the wire protocol and serve
        // until a Shutdown frame or SIGTERM.  A text KB is compiled
        // here once.
        if (!kb.image)
            kb.image = std::make_unique<KbImage>(net, cfg.machine);
        shard::ShardServerConfig scfg;
        scfg.listen = listen_ep;
        scfg.serve = cfg;
        scfg.fleetFaults =
            fleet_faults.spec(args, &FleetFaultSpec::wireFaults);
        if (scfg.fleetFaults.any())
            snap_warn("fleet fault injection armed: %s",
                      scfg.fleetFaults.toJson().c_str());
        shard::ShardServer server(std::move(kb), scfg);
        std::string detail;
        if (!server.bind(detail))
            args.inputError("cannot listen on '" + listen_ep + "': " +
                            detail);
        server.run();
        if (!tracing.out.empty()) {
            server.engine().shutdown();
            tracing.write();
        }
        return 0;
    }

    // Assemble each distinct program once, before any worker exists:
    // assembly interns symbols into the (shared) network.
    shard::RequestFile requests;
    std::string err;
    if (!shard::loadRequestFile(pos[1], net, requests, err))
        args.inputError(err);
    const std::vector<shard::RequestSpec> &specs = requests.specs;
    std::printf("parsed %zu request(s), %zu distinct program(s)\n",
                specs.size(), requests.progs.size());

    serve::ServeEngine engine(net, std::move(kb.image), cfg);
    std::printf("engine: %u worker replicas x %u clusters, queue "
                "capacity %zu\n",
                engine.numWorkers(),
                engine.sharedImage().numClusters(),
                cfg.queueCapacity);
    if (cfg.faults.any()) {
        std::printf("fault injection armed (seed %llu, max %u "
                    "retries, quarantine at %u)\n",
                    static_cast<unsigned long long>(cfg.faults.seed),
                    cfg.maxRetries, cfg.quarantineThreshold);
    }
    std::printf("\n");

    std::vector<std::future<serve::Response>> futures;
    futures.reserve(specs.size());
    for (const shard::RequestSpec &s : specs) {
        serve::Request req;
        req.sessionId = s.sessionId;
        req.prog = requests.progs.at(s.progPath);
        futures.push_back(engine.submit(std::move(req)));
    }

    std::vector<serve::Response> responses;
    responses.reserve(futures.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
        responses.push_back(futures[i].get());
        const serve::Response &resp = responses.back();
        const shard::RequestSpec &s = specs[i];
        std::string kind = s.sessionId.empty()
                               ? std::string("query")
                               : "session " + s.sessionId;
        std::printf("request #%zu (%s): %s, worker %u, sim "
                    "%.1f us, queue %.3f ms",
                    i, kind.c_str(),
                    serve::requestStatusName(resp.status),
                    resp.worker, resp.wallUs(), resp.queueMs);
        if (resp.retries > 0)
            std::printf(", retries %u", resp.retries);
        std::printf("\n");
        if (!quiet && resp.status == serve::RequestStatus::Ok)
            cli::printResults(net, resp.results, "  ");
    }

    engine.drain();

    if (!answers_path.empty()) {
        std::ofstream os(answers_path);
        if (!os)
            args.inputError("cannot open '" + answers_path +
                            "' for writing");
        for (std::size_t i = 0; i < responses.size(); ++i) {
            shard::writeAnswer(os, net, i, specs[i].sessionId,
                               responses[i].status,
                               responses[i].results);
        }
        std::printf("wrote canonical answers to %s\n",
                    answers_path.c_str());
    }

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    std::printf("\nserved %llu ok, %llu rejected, %llu timed out "
                "(%.1f qps host, sim makespan %.1f us)\n",
                static_cast<unsigned long long>(m.completed),
                static_cast<unsigned long long>(m.rejected),
                static_cast<unsigned long long>(m.timedOut),
                m.throughputQps(),
                ticksToUs(m.simMakespanTicks()));
    if (m.answerCache.hits + m.answerCache.misses > 0) {
        std::printf("answer cache: %llu hits, %llu misses, %llu "
                    "admitted, %llu evicted, %llu rejected\n",
                    static_cast<unsigned long long>(m.answerCache.hits),
                    static_cast<unsigned long long>(
                        m.answerCache.misses),
                    static_cast<unsigned long long>(
                        m.answerCache.admitted),
                    static_cast<unsigned long long>(
                        m.answerCache.evictions),
                    static_cast<unsigned long long>(
                        m.answerCache.rejected));
    }
    if (cfg.faults.any()) {
        std::printf("robustness: %llu faults detected, %llu "
                    "retries, %llu recovered, %llu failed, %llu "
                    "shed, %llu quarantines\n",
                    static_cast<unsigned long long>(
                        m.faultsDetected),
                    static_cast<unsigned long long>(m.retries),
                    static_cast<unsigned long long>(m.recovered),
                    static_cast<unsigned long long>(m.failed),
                    static_cast<unsigned long long>(m.shed),
                    static_cast<unsigned long long>(m.quarantines));
    }

    if (!metrics.path().empty()) {
        // Serving counters, aggregated execution breakdown,
        // per-replica component stats.
        MetricsRegistry reg;
        engine.exportMetrics(reg);
        metrics.write(args, reg);
    }

    if (!sessions_dir.empty()) {
        for (const std::string &sid : engine.sessionIds()) {
            std::string path =
                sessions_dir + "/" + sid + ".snapmarkers";
            if (!saveMarkersFile(engine.sessionMarkers(sid), path, err))
                args.inputError(err);
            std::printf("checkpointed session %s to %s\n",
                        sid.c_str(), path.c_str());
        }
    }

    if (!tracing.out.empty()) {
        // Join the workers first so every per-thread ring buffer is
        // quiescent before the serializer walks them.
        engine.shutdown();
        tracing.write();
    }
    return 0;
}
