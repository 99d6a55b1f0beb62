/**
 * @file
 * fleetbench: one run of one workload against a live fleet.
 *
 *   fleetbench --workload NAME --seed N --seconds S --trace 0|1
 *              [--run-dir DIR] [--out-dir DIR]
 *
 * A run generates the workload and its solo-machine ground truth from
 * the seed, brings the fleet up several times (the last fleet stays
 * up), warms it, then measures an open-loop phase (40% of S) and a
 * closed-loop phase (60% of S).  Every answer is compared byte for
 * byte with the ground truth.  The last stdout line is one JSON object:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1 (which also writes the run's spans to the --out-dir).
 * Exit code 1 when an answer was wrong, 4 when a unique workload's
 * closed-loop pool ran out (a void run, no JSON line).
 * fleetbench/run.py builds this binary and is the normal way to run
 * it; see fleetbench/README.md for the workloads and metrics.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/strutil.hh"

#include "common.hh"
#include "fleet.hh"
#include "layers.hh"
#include "loadgen.hh"
#include "workloads.hh"

using namespace fleetbench;
using namespace snap;

namespace
{

/** Bring-ups per run; setup_s is their median. */
constexpr int kSetups = 21;
/** Share of --seconds spent in the open-loop phase; the closed loop
 *  gets the rest. */
constexpr double kOpenShare = 0.4;
/** Open-loop slices latency_p50_ms is read over. */
constexpr std::size_t kSlices = 9;
/** Hard limit on one run (the caller allows 180 s). */
constexpr unsigned kWatchdogSeconds = 170;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string runDir = ".bench_build/run";
    std::string outDir = ".bench_build/results";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "fleetbench: %s\n", why);
    std::string names;
    for (const std::string &n : workloadNames())
        names += " " + n;
    std::fprintf(stderr,
                 "usage: fleetbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--run-dir DIR] [--out-dir DIR]\n"
                 "workloads:%s\n",
                 names.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        long long n = 0;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            if (!parseInt(v, n) || n < 0)
                usage("--seed must be a non-negative integer");
            a.seed = static_cast<std::uint64_t>(n);
        } else if (flag == "--seconds") {
            if (!parseInt(v, n) || n < 1 || n > 60)
                usage("--seconds must be 1..60");
            a.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--run-dir") {
            a.runDir = v;
        } else if (flag == "--out-dir") {
            a.outDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!findWorkload(a.workload))
        usage(("unknown workload '" + a.workload + "'").c_str());
    return a;
}

void
onWatchdog(int)
{
    killAllShards();
    const char msg[] = "fleetbench: watchdog expired\n";
    ssize_t ignored = ::write(2, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(3);
}

/** Aggregate CPU ticks from /proc/stat: {steal, total}.  Steal is the
 *  time a virtual machine's CPUs waited for the host; printed so a
 *  reader can tell a slow run on a busy host from a slow fleet. */
std::pair<long long, long long>
cpuTicks()
{
    std::ifstream is("/proc/stat");
    std::string label;
    long long v[8] = {};
    is >> label;
    long long total = 0;
    for (long long &x : v) {
        is >> x;
        total += x;
    }
    return is ? std::make_pair(v[7], total) : std::make_pair(0LL, 0LL);
}

/** Summed busy host ms of every shard worker, via StatsPull. */
double
workerBusyMs(shard::ShardRouter &router)
{
    double busy = 0.0;
    for (std::uint32_t s = 0; s < router.numShards(); ++s) {
        shard::StatsSnapshotFrame snap;
        std::string err;
        if (!router.pullShardStats(s, snap, err))
            snap_fatal("stats pull from shard %u: %s", s, err.c_str());
        // The router decodes every pull of a shard into the same
        // frame, whose sample list keeps growing; the newest sample
        // of each worker is the last one.
        std::map<MetricsRegistry::Labels, double> per_worker;
        for (const auto &sample : snap.samples)
            if (sample.name == "snap_serve_worker_busy_host_ms")
                per_worker[sample.labels] = sample.value;
        for (const auto &[labels, ms] : per_worker)
            busy += ms;
    }
    return busy;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += formatString("%s\"%s\": {\"value\": %.12g, \"unit\": "
                            "\"%s\"}",
                            i ? ", " : "", ms[i].name.c_str(),
                            ms[i].value, ms[i].unit);
    }
    return out + "}";
}

std::vector<double>
column(const std::vector<TurnSample> &turns, double TurnSample::*field)
{
    std::vector<double> out;
    out.reserve(turns.size());
    for (const TurnSample &t : turns)
        out.push_back(t.*field);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--shard") == 0)
        return shardMain(argc - 2, argv + 2);

    Args args = parseArgs(argc, argv);
    const WorkloadSpec &spec = *findWorkload(args.workload);
    ::signal(SIGPIPE, SIG_IGN);
    ::signal(SIGALRM, onWatchdog);
    ::alarm(kWatchdogSeconds);
    std::atexit(killAllShards);
    // Precise sleeps for the open-loop schedule.
    ::prctl(PR_SET_TIMERSLACK, 1UL);

    const double open_s = args.seconds * kOpenShare;
    const double closed_s = args.seconds - open_s;
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

    // --- inputs and ground truth (before any timer) -----------------
    auto t_gen = Clock::now();
    std::unique_ptr<Workload> wl =
        makeWorkload(spec, args.seed, open_s, closed_s, threads);
    std::uint64_t digest = fnvBasis, open_events = 0;
    for (std::size_t i = wl->openBegin(); i < wl->closedBegin(); ++i) {
        const Answer &a = wl->answers[wl->program(i)];
        digest = fnvFold(digest, a.bytes);
        open_events += a.events;
    }
    std::printf("workload %s seed %" PRIu64 ": %zu programs, %zu open-loop "
                "queries, ground truth in %.2f s\n",
                spec.name, args.seed, wl->programs.size(), wl->numOpen,
                msBetween(t_gen, Clock::now()) / 1000.0);
    std::printf("model-digest %016" PRIx64 " events %" PRIu64
                " (open-loop schedule, solo machine)\n",
                digest, open_events);

    // --- bring-up, several times; the last fleet stays up -----------
    const std::string dir =
        args.runDir + "/" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    std::filesystem::create_directories(args.outDir);
    FleetOptions fo;
    fo.replication = spec.kind == Kind::Session ? 2 : 1;
    fo.faults = wl->faults;
    std::unique_ptr<Fleet> fleet;
    std::vector<double> setup_s, load_ms, stamp_ms, connect_ms;
    BringUp up;
    for (int k = 0; k < kSetups; ++k) {
        if (fleet)
            fleet->stop();
        fleet = std::make_unique<Fleet>(dir, fo);
        up = fleet->start(wl->net());
        setup_s.push_back(up.setupS);
        load_ms.push_back(up.loadMs);
        stamp_ms.push_back(up.stampMs);
        connect_ms.push_back(up.connectMs);
    }
    shard::ShardRouter &router = fleet->router();

    // --- warm-up, then the measured phases ----------------------------
    std::vector<bool> seen(wl->programs.size());
    PhaseStats warm = runPhase(*wl, router,
                               {false, 60.0, 0, wl->openBegin(),
                                spec.window},
                               nullptr, seen);
    std::vector<Span> spans;
    const double busy0 = args.trace ? workerBusyMs(router) : 0.0;
    const auto ticks0 = cpuTicks();
    const auto t_meas = Clock::now();
    PhaseStats open = runPhase(
        *wl, router,
        {true, open_s, wl->openBegin(), wl->closedBegin(), spec.window},
        args.trace ? &spans : nullptr, seen);
    PhaseStats closed = runPhase(
        *wl, router,
        {false, closed_s, wl->closedBegin(), wl->poolEnd(), spec.window},
        nullptr, seen);
    const double meas_ms = msBetween(t_meas, Clock::now());
    const auto ticks1 = cpuTicks();
    if (ticks1.second > ticks0.second)
        std::printf("host: %.1f%% of CPU time stolen by the hypervisor "
                    "during the phases\n",
                    100.0 * static_cast<double>(ticks1.first -
                                                ticks0.first) /
                        static_cast<double>(ticks1.second -
                                            ticks0.second));
    const double busy_ms =
        args.trace ? workerBusyMs(router) - busy0 : 0.0;
    const std::uint64_t retried = router.rerouteCount() +
                                  router.hedgeCount() +
                                  router.corruptResponseCount();
    const std::uint64_t warmups = router.warmupCount();
    const double rss_mb = fleet->stop();
    fleet.reset();
    std::filesystem::remove_all(dir);
    if (closed.poolExhausted) {
        std::fprintf(stderr,
                     "fleetbench: void run: the closed loop sent all %zu "
                     "pooled inputs before its time was up; raise the "
                     "workload's capacityQps\n",
                     wl->poolEnd() - wl->closedBegin());
        return 4;
    }

    const std::uint64_t attempted = open.attempted + closed.attempted;
    const std::uint64_t ok = open.ok + closed.ok;
    const std::uint64_t failed = open.failed + closed.failed;
    const std::uint64_t wrong = warm.wrong + open.wrong + closed.wrong;
    const bool correct = wrong == 0 && attempted > 0;
    // Over time slices of each phase, the faster quartile: the host is
    // shared, and a slow spell only adds time to the slices it covers.
    const double throughput =
        slicedRate(closed.doneS, closed.windowS, 0.75);
    const double p50 = slicedMedian(open.latencyMs, kSlices, 0.25);
    const double p99 = quantile(open.latencyMs, 0.99);
    std::printf("open loop: %zu queries at %.0f/s, p50 %.4f ms, p99 %.4f "
                "ms, generator lag p99 %.4f ms\n",
                open.latencyMs.size(), spec.openRate, p50, p99,
                quantile(open.lagMs, 0.99));
    std::printf("closed loop: %zu queries in %.2f s at window %u, "
                "%.1f queries/s\n",
                closed.doneS.size(), closed.windowS, spec.window,
                throughput);
    std::printf("answers: %" PRIu64 " ok, %" PRIu64 " failed, %" PRIu64
                " wrong (warm-up included)\n",
                ok, failed, wrong);

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"throughput_qps", throughput, "1/s"},
            {"ok_frac",
             static_cast<double>(ok) / static_cast<double>(attempted),
             "ratio"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
    } else {
        LayerTimes lt = measureLayers(*wl, open.responseSamples);
        std::vector<double> overhead;
        for (const TurnSample &t : open.turns)
            overhead.push_back(t.e2eMs - t.queueMs - t.serviceMs);
        std::vector<double> service = column(open.turns,
                                             &TurnSample::serviceMs);
        double service_total = 0.0;
        for (double s : service)
            service_total += s;
        const std::uint64_t turns = warm.sessionTurns +
                                    open.sessionTurns +
                                    closed.sessionTurns;
        const std::uint64_t runs = open.statelessRuns +
                                   closed.statelessRuns;
        const double engine_workers =
            static_cast<double>(kShards * kWorkersPerShard);
        metrics = {
            {"loadgen.lag_p99_ms", quantile(open.lagMs, 0.99), "ms"},
            {"shard.router.overhead_p50_ms", median(overhead), "ms"},
            {"shard.router.submit_block_p99_ms",
             quantile(column(closed.turns, &TurnSample::submitMs), 0.99),
             "ms"},
            {"shard.router.retried", static_cast<double>(retried),
             "count"},
            {"shard.router.warmups_per_turn",
             turns ? static_cast<double>(warmups) /
                         static_cast<double>(turns)
                   : 0.0,
             "ratio"},
            {"shard.router.connect_ms", median(connect_ms), "ms"},
            {"shard.protocol.request_encode_us", lt.requestEncodeUs,
             "us"},
            {"shard.protocol.request_decode_us", lt.requestDecodeUs,
             "us"},
            {"shard.protocol.response_encode_us", lt.responseEncodeUs,
             "us"},
            {"shard.protocol.response_decode_us", lt.responseDecodeUs,
             "us"},
            {"shard.protocol.request_bytes", lt.requestBytes, "bytes"},
            {"shard.protocol.response_bytes", lt.responseBytes, "bytes"},
            {"shard.protocol.session_state_bytes", lt.sessionStateBytes,
             "bytes"},
            {"serve.engine.queue_p50_ms",
             quantile(column(open.turns, &TurnSample::queueMs), 0.5),
             "ms"},
            {"serve.engine.queue_p99_ms",
             quantile(column(open.turns, &TurnSample::queueMs), 0.99),
             "ms"},
            {"serve.engine.service_p50_ms", median(service), "ms"},
            {"serve.engine.worker_busy_frac",
             busy_ms / (meas_ms * engine_workers),
             "ratio"},
            {"serve.engine.retries",
             static_cast<double>(open.retries + closed.retries), "count"},
            {"serve.engine.faults_detected",
             static_cast<double>(open.faultsDetected +
                                 closed.faultsDetected),
             "count"},
            {"serve.engine.useful_run_frac",
             runs ? static_cast<double>(open.distinctRuns +
                                        closed.distinctRuns) /
                        static_cast<double>(runs)
                  : 1.0,
             "ratio"},
            {"serve.engine.stamp_ms", median(stamp_ms), "ms"},
            {"arch.machine.events_per_query",
             static_cast<double>(open_events) /
                 static_cast<double>(wl->numOpen),
             "count"},
            {"arch.machine.events_per_s",
             service_total > 0.0
                 ? static_cast<double>(open.events) /
                       (service_total / 1000.0)
                 : 0.0,
             "1/s"},
            {"arch.machine.solo_run_us", lt.soloRunUs, "us"},
            {"arch.machine.guarded_run_us", lt.guardedRunUs, "us"},
            {"arch.kb_image.flatten_us", lt.flattenUs, "us"},
            {"runtime.reference.replay_us", lt.replayUs, "us"},
            {"arch.kb_image_io.load_ms", median(load_ms), "ms"},
            {"arch.kb_image_io.image_bytes",
             static_cast<double>(up.imageBytes), "bytes"},
            {"trace.latency_p50_ms", p50, "ms"},
            {"trace.latency_p99_ms", p99, "ms"},
        };
        const std::string trace_path =
            args.outDir + "/" + spec.name + ".trace.json";
        if (writeSpans(spans, trace_path))
            std::printf("wrote %zu spans to %s\n", spans.size(),
                        trace_path.c_str());
    }

    const std::string json = formatString(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": %s}",
        correct ? "true" : "false", attempted, failed,
        metricsJson(metrics).c_str());
    std::ofstream rec(args.outDir + "/" + spec.name + "-seed" +
                      std::to_string(args.seed) +
                      (args.trace ? "-trace" : "") + ".json");
    rec << formatString("{\"workload\": \"%s\", \"seed\": %" PRIu64
                        ", \"model_digest\": \"%016" PRIx64
                        "\", \"model_events\": %" PRIu64
                        ", \"latency_p50_ms\": %.12g, \"run\": ",
                        spec.name, args.seed, digest, open_events, p50)
        << json << "}\n";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
