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
 *     --clusters N          replica array size (1..32, default 16)
 *     --partition seq|rr|sem  allocation strategy (default sem)
 *     --relax-capacity      lift the 1024-nodes-per-cluster limit
 *     --seed N              base of the per-request seed chain
 *     --metrics FILE        write the metrics export to FILE
 *     --metrics-format F    json (default) | prometheus: the
 *                           MetricsRegistry export covering serving
 *                           counters, aggregated execution stats,
 *                           and per-replica component stats
 *     --trace-out FILE      write a Chrome trace-event JSON with
 *                           host request spans flow-linked to the
 *                           replicas' simulated-time machine spans
 *     --trace-categories L  comma list of trace categories (default
 *                           all; see docs/observability.md)
 *     --sessions-out DIR    checkpoint final session marker state to
 *                           DIR/<session>.snapmarkers (the
 *                           runtime/snapshot checkpoint file; snapsh
 *                           .load reads it)
 *     --quiet               suppress per-request result listings
 *     --fault-seed N        seed for deterministic fault injection
 *     --fault-rate X        inject ICN message faults at rate X
 *     --fault-spec FILE     load a full fault plan from JSON
 *     --max-retries N       re-executions after a detected fault
 *     --quarantine N        consecutive faults before a replica is
 *                           quarantined and re-stamped (0 = never)
 *     --shed-threshold N    engine-wide consecutive faults before
 *                           stateless load is shed (0 = never)
 *                           (both counts 0..2^32-1)
 *     --listen ENDPOINT     shard mode: serve the shard wire protocol
 *                           on "unix:/path" or "host:port" until a
 *                           Shutdown frame arrives (no request file;
 *                           see docs/sharding.md)
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
 * Exit status: 0 on success, 1 on user error (bad input files or
 * configuration), 2 on a command-line usage error (unknown arguments
 * or out-of-range flag values).  This convention is shared by snapvm,
 * snapsh, and snapkb-gen.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "arch/kb_image_io.hh"
#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "common/strutil.hh"
#include "fault/fault_plan.hh"
#include "trace/trace.hh"
#include "kb/kb_io.hh"
#include "runtime/snapshot.hh"
#include "serve/engine.hh"
#include "shard/answers.hh"
#include "shard/shard_server.hh"

using namespace snap;

namespace
{

void
usage()
{
    std::fprintf(stderr,
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
        "  --answers-out FILE     write canonical answer text\n");
    std::exit(2);
}

/** Out-of-range or malformed flag value: a usage error (exit 2),
 *  distinct from the snap_fatal path (exit 1, bad input files). */
[[noreturn]] void
usageError(const char *msg)
{
    std::fprintf(stderr, "snapserve: %s\n", msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    std::string kb_path = argv[1];
    // The request file is positional; shard mode (--listen) has no
    // request file, so argv[2] may already be an option.
    std::string req_path;
    int opt_start = 2;
    if (argv[2][0] != '-') {
        req_path = argv[2];
        opt_start = 3;
    }

    serve::ServeConfig cfg;
    cfg.machine = MachineConfig::paperSetup();
    cfg.machine.perfNetEnabled = false;
    std::string metrics_path;
    std::string metrics_format = "json";
    std::string trace_out;
    std::string trace_categories = "all";
    std::string sessions_dir;
    bool quiet = false;
    std::uint64_t fault_seed = 1;
    bool fault_seed_set = false;
    double fault_rate = 0.0;
    std::string fault_spec_path;
    std::uint64_t fleet_seed = 1;
    bool fleet_seed_set = false;
    double fleet_rate = 0.0;
    std::string fleet_spec_path;
    std::string listen_ep;
    std::string answers_path;

    for (int i = opt_start; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--workers") {
            long long n;
            if (!parseInt(next(), n) || n < 1 || n > 64)
                usageError("--workers must be 1..64");
            cfg.numWorkers = static_cast<std::uint32_t>(n);
        } else if (arg == "--queue") {
            long long n;
            if (!parseInt(next(), n) || n < 1 || n > (1ll << 20))
                usageError("--queue must be 1..1048576");
            cfg.queueCapacity = static_cast<std::size_t>(n);
        } else if (arg == "--timeout-ms") {
            double x;
            if (!parseDouble(next(), x) || x < 0)
                usageError("--timeout-ms must be >= 0");
            cfg.defaultTimeoutMs = x;
        } else if (arg == "--clusters") {
            long long n;
            if (!parseInt(next(), n) || n < 1 || n > 32)
                usageError("--clusters must be 1..32");
            cfg.machine.numClusters = static_cast<std::uint32_t>(n);
        } else if (arg == "--partition") {
            std::string p = next();
            if (p == "seq")
                cfg.machine.partition = PartitionStrategy::Sequential;
            else if (p == "rr")
                cfg.machine.partition = PartitionStrategy::RoundRobin;
            else if (p == "sem")
                cfg.machine.partition = PartitionStrategy::Semantic;
            else
                usageError("--partition must be seq, rr, or sem");
        } else if (arg == "--relax-capacity") {
            cfg.machine.maxNodesPerCluster = capacity::maxNodes;
        } else if (arg == "--seed") {
            long long n;
            if (!parseInt(next(), n))
                usageError("--seed must be an integer");
            cfg.baseSeed = static_cast<std::uint64_t>(n);
        } else if (arg == "--fault-seed") {
            long long n;
            if (!parseInt(next(), n))
                usageError("--fault-seed must be an integer");
            fault_seed = static_cast<std::uint64_t>(n);
            fault_seed_set = true;
        } else if (arg == "--fault-rate") {
            double x;
            if (!parseDouble(next(), x) || x < 0.0 || x > 1.0)
                usageError("--fault-rate must be 0..1");
            fault_rate = x;
        } else if (arg == "--fault-spec") {
            fault_spec_path = next();
        } else if (arg == "--max-retries") {
            long long n;
            if (!parseInt(next(), n) || n < 0 || n > 100)
                usageError("--max-retries must be 0..100");
            cfg.maxRetries = static_cast<std::uint32_t>(n);
        } else if (arg == "--quarantine") {
            long long n;
            if (!parseInt(next(), n) || n < 0 || n > UINT32_MAX)
                usageError("--quarantine must be 0..4294967295");
            cfg.quarantineThreshold = static_cast<std::uint32_t>(n);
        } else if (arg == "--shed-threshold") {
            long long n;
            if (!parseInt(next(), n) || n < 0 || n > UINT32_MAX)
                usageError("--shed-threshold must be 0..4294967295");
            cfg.shedThreshold = static_cast<std::uint32_t>(n);
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--metrics-format") {
            metrics_format = next();
            if (metrics_format != "json" &&
                metrics_format != "prometheus")
                usageError("--metrics-format must be json or "
                           "prometheus");
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--trace-categories") {
            trace_categories = next();
        } else if (arg == "--sessions-out") {
            sessions_dir = next();
        } else if (arg == "--listen") {
            listen_ep = next();
        } else if (arg == "--fleet-fault-seed") {
            long long n;
            if (!parseInt(next(), n))
                usageError("--fleet-fault-seed must be an integer");
            fleet_seed = static_cast<std::uint64_t>(n);
            fleet_seed_set = true;
        } else if (arg == "--fleet-fault-rate") {
            double x;
            if (!parseDouble(next(), x) || x < 0.0 || x > 1.0)
                usageError("--fleet-fault-rate must be 0..1");
            fleet_rate = x;
        } else if (arg == "--fleet-fault-spec") {
            fleet_spec_path = next();
        } else if (arg == "--answers-out") {
            answers_path = next();
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage();
        }
    }

    if (listen_ep.empty() && req_path.empty())
        usage();
    if (listen_ep.empty() &&
        (fleet_seed_set || fleet_rate > 0.0 ||
         !fleet_spec_path.empty()))
        usageError("--fleet-fault-* flags need --listen (they "
                   "inject on the shard wire, not the engine)");

    // The KB may be .snapkb text or a binary .kbimg snapshot; sniff
    // by magic.  A corrupt snapshot is a typed rejection mapped onto
    // exit status 2 (the convention the .kbimg tests gate on).
    SemanticNetwork net;
    std::unique_ptr<KbImage> image;
    std::uint64_t image_fp = 0;
    PartitionStrategy image_strategy = PartitionStrategy::Semantic;
    if (isKbImageFile(kb_path)) {
        KbImageFile kbf;
        std::string detail;
        KbImgStatus status = loadKbImageFile(kb_path, kbf, detail);
        if (status != KbImgStatus::Ok) {
            std::fprintf(stderr, "snapserve: %s: %s (%s)\n",
                         kb_path.c_str(), kbImgStatusName(status),
                         detail.c_str());
            return 2;
        }
        net = std::move(kbf.net);
        image = std::move(kbf.image);
        image_fp = kbf.fingerprint;
        image_strategy = kbf.strategy;
        std::printf("loaded %s: %u nodes, %llu links, %u compiled "
                    "clusters (fingerprint %016llx)\n",
                    kb_path.c_str(), net.numNodes(),
                    static_cast<unsigned long long>(net.numLinks()),
                    image->numClusters(),
                    static_cast<unsigned long long>(image_fp));
    } else {
        net = loadNetworkFile(kb_path);
        std::printf("loaded %s: %u nodes, %llu links\n",
                    kb_path.c_str(), net.numNodes(),
                    static_cast<unsigned long long>(net.numLinks()));
    }

    if (!listen_ep.empty()) {
        // Shard mode: hand the engine to the wire protocol and serve
        // until a Shutdown frame or SIGTERM.  A text KB is compiled
        // here once; a .kbimg is adopted as-is.
        KbImageFile kbf;
        if (!image)
            image = std::make_unique<KbImage>(net, cfg.machine);
        kbf.net = std::move(net);
        kbf.image = std::move(image);
        kbf.fingerprint = image_fp;
        kbf.strategy = image_strategy;
        shard::ShardServerConfig scfg;
        scfg.listen = listen_ep;
        scfg.serve = cfg;
        if (!fleet_spec_path.empty()) {
            std::ifstream fis(fleet_spec_path);
            if (!fis)
                snap_fatal("cannot open fleet fault spec '%s'",
                           fleet_spec_path.c_str());
            std::ostringstream fbuf;
            fbuf << fis.rdbuf();
            if (!FleetFaultSpec::fromJson(fbuf.str(),
                                          scfg.fleetFaults))
                snap_fatal("cannot parse fleet fault spec '%s'",
                           fleet_spec_path.c_str());
            if (fleet_seed_set)
                scfg.fleetFaults.seed = fleet_seed;
        } else if (fleet_rate > 0.0) {
            scfg.fleetFaults =
                FleetFaultSpec::wireFaults(fleet_seed, fleet_rate);
        }
        if (scfg.fleetFaults.any()) {
            snap_warn("fleet fault injection armed: %s",
                      scfg.fleetFaults.toJson().c_str());
        }
        // Arm tracing before the server builds its engine (track
        // names register at construction), so a traced shard emits
        // serve spans carrying the router's inbound trace context —
        // the shard half of the fleet's merged timeline.
        if (!trace_out.empty()) {
            std::uint32_t mask = 0;
            if (!trace::parseCategories(trace_categories, mask) ||
                mask == 0) {
                usageError("--trace-categories must be a comma list "
                           "from: all,instr,cluster,icn,sync,sem,"
                           "fault,machine,serve");
            }
            trace::start(mask);
        }
        shard::ShardServer server(std::move(kbf), scfg);
        std::string detail;
        if (!server.bind(detail))
            snap_fatal("cannot listen on '%s': %s", listen_ep.c_str(),
                       detail.c_str());
        server.run();
        if (!trace_out.empty()) {
            server.engine().shutdown();
            trace::stop();
            if (trace::writeJsonFile(trace_out)) {
                std::printf(
                    "wrote trace to %s (%llu events dropped)\n",
                    trace_out.c_str(),
                    static_cast<unsigned long long>(
                        trace::droppedCount()));
            }
        }
        return 0;
    }

    // Assemble each distinct program once, before any worker exists:
    // assembly interns symbols into the (shared) network.
    shard::RequestFile requests = shard::loadRequestFile(req_path, net);
    const std::vector<shard::RequestSpec> &specs = requests.specs;
    std::printf("parsed %zu request(s), %zu distinct program(s)\n",
                specs.size(), requests.progs.size());

    // Optional deterministic fault injection across the replica farm.
    if (!fault_spec_path.empty()) {
        std::ifstream is(fault_spec_path);
        if (!is)
            snap_fatal("cannot open fault spec '%s'",
                       fault_spec_path.c_str());
        std::ostringstream buf;
        buf << is.rdbuf();
        if (!FaultSpec::fromJson(buf.str(), cfg.faults))
            snap_fatal("cannot parse fault spec '%s'",
                       fault_spec_path.c_str());
        if (fault_seed_set)
            cfg.faults.seed = fault_seed;
    } else if (fault_rate > 0.0) {
        cfg.faults = FaultSpec::messageFaults(fault_seed, fault_rate);
    }

    // Arm tracing before the engine exists: host and per-replica
    // track names are registered at construction time only while
    // tracing is active.
    if (!trace_out.empty()) {
        std::uint32_t mask = 0;
        if (!trace::parseCategories(trace_categories, mask) ||
            mask == 0) {
            usageError("--trace-categories must be a comma list "
                       "from: all,instr,cluster,icn,sync,sem,fault,"
                       "machine,serve");
        }
        trace::start(mask);
    }

    // A deserialized .kbimg master is adopted directly — replicas
    // are stamped from it without recompiling the network.
    serve::ServeEngine engine(net, std::move(image), cfg);
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
        if (quiet || resp.status != serve::RequestStatus::Ok)
            continue;
        int idx = 0;
        for (const CollectResult &res : resp.results) {
            std::printf("  collect #%d (%s):\n", idx++,
                        opcodeName(res.op));
            for (const CollectedNode &c : res.nodes) {
                std::printf("    %-24s value %-10.4f origin %s\n",
                            net.nodeName(c.node).c_str(), c.value,
                            c.origin == invalidNode
                                ? "-"
                                : net.nodeName(c.origin).c_str());
            }
            for (const CollectedLink &l : res.links) {
                std::printf("    %s -%s-> %s (w %.4f)\n",
                            net.nodeName(l.src).c_str(),
                            net.relations().name(l.rel).c_str(),
                            net.nodeName(l.dst).c_str(), l.weight);
            }
            if (res.nodes.empty() && res.links.empty())
                std::printf("    (empty)\n");
        }
    }

    engine.drain();

    if (!answers_path.empty()) {
        std::ofstream os(answers_path);
        if (!os)
            snap_fatal("cannot open '%s' for writing",
                       answers_path.c_str());
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

    if (!metrics_path.empty()) {
        std::ofstream os(metrics_path);
        if (!os)
            snap_fatal("cannot open '%s' for writing",
                       metrics_path.c_str());
        // Serving counters, aggregated execution breakdown,
        // per-replica component stats.
        MetricsRegistry reg;
        engine.exportMetrics(reg);
        if (metrics_format == "prometheus")
            reg.writePrometheus(os);
        else
            reg.writeJson(os);
        std::printf("wrote %zu metrics (%s) to %s\n", reg.size(),
                    metrics_format.c_str(), metrics_path.c_str());
    }

    if (!sessions_dir.empty()) {
        for (const std::string &sid : engine.sessionIds()) {
            std::string path =
                sessions_dir + "/" + sid + ".snapmarkers";
            std::string err;
            if (!saveMarkersFile(engine.sessionMarkers(sid), path, err))
                snap_fatal("%s", err.c_str());
            std::printf("checkpointed session %s to %s\n",
                        sid.c_str(), path.c_str());
        }
    }

    if (!trace_out.empty()) {
        // Join the workers first so every per-thread ring buffer is
        // quiescent before the serializer walks them.
        engine.shutdown();
        trace::stop();
        if (trace::writeJsonFile(trace_out)) {
            std::printf("wrote trace to %s (%llu events dropped)\n",
                        trace_out.c_str(),
                        static_cast<unsigned long long>(
                            trace::droppedCount()));
        }
    }
    return 0;
}
