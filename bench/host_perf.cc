/**
 * @file
 * Host-performance harness for the simulator's DES core.
 *
 * Every other bench in this directory measures *simulated* time; this
 * one measures *host* time — how fast the event kernel, marker
 * kernels, and frontier bookkeeping chew through events.  Each
 * workload (fig16 α-propagation, fig17 β-overlap, table4 sentence
 * parse) reports absolute events/s as the best of five reps; every
 * rep must agree on simulated time, results digest, and event count.
 * The committed BENCH_host_perf.json is the trajectory later changes
 * compare against.  A separate instrumented run of fig17 and of
 * table4 (the parse that serving runs) gives each a per-phase
 * host-time profile; --profile prints only those.
 *
 * Results go to stdout and to BENCH_host_perf.json.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.hh"
#include "bench/bench_util.hh"
#include "common/host_prof.hh"
#include "nlu/corpus.hh"
#include "nlu/kb_factory.hh"
#include "nlu/mb_parser.hh"
#include "workload/alpha_beta.hh"

using namespace snap;

namespace
{

struct Measured
{
    std::string workload;
    Tick simTicks = 0;         ///< simulated time
    std::uint64_t digest = 0;  ///< FNV-1a over retrieval results
    std::uint64_t events = 0;  ///< host events processed
    double seconds = 0.0;      ///< host wall time of the run

    double eps() const { return static_cast<double>(events) / seconds; }
};

/** Best-of-N host time per workload. */
constexpr int kReps = 5;

/** Run @p fn kReps times and keep the fastest rep.  Every rep must
 *  agree on simulated time, digest, and event count — a workload
 *  whose results move between reps is a bug, not noise — so
 *  @p agree is cleared when one does not. */
template <typename Fn>
Measured
bestOf(bool &agree, Fn &&fn)
{
    Measured best = fn();
    for (int i = 1; i < kReps; ++i) {
        Measured m = fn();
        agree = agree && m.simTicks == best.simTicks &&
                m.digest == best.digest && m.events == best.events;
        if (m.seconds < best.seconds)
            best = m;
    }
    return best;
}

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

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Fig. 17-style workload: β=8 overlapped PROPAGATEs + retrieval,
 *  repeated @p rounds times so the run is long enough to time. */
Measured
runFig17(std::uint32_t rounds)
{
    Workload w = makeBetaWorkload(8, 8, 8, 2, true, 11);
    for (std::uint32_t round = 0; round < rounds; ++round) {
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
    }
    for (std::uint32_t j = 0; j < 8; ++j) {
        w.prog.append(Instruction::collectMarker(
            static_cast<MarkerId>(2 * j + 1)));
    }

    MachineConfig cfg = MachineConfig::paperSetup();
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);

    double t0 = now();
    RunResult r = machine.run(w.prog);
    double t1 = now();

    Measured m;
    m.workload = "fig17";
    m.simTicks = r.wallTicks;
    m.digest = digestResults(r.results);
    m.events = machine.eventsProcessed();
    m.seconds = t1 - t0;
    return m;
}

/** Per-phase host-time self-attribution of one workload run. */
struct Profile
{
    std::string workload;
    hostprof::Totals totals;
};

/** One profiled run of @p fn via the hostprof probes.  Separate from
 *  the timed rows — the probes read the clock twice per scope, which
 *  costs a few percent on the hottest phases. */
template <typename Fn>
Profile
profile(const char *workload, Fn &&fn)
{
    hostprof::setEnabled(true);
    hostprof::resetThread();
    fn();
    hostprof::setEnabled(false);
    return Profile{workload, hostprof::snapshot()};
}

/** Fig. 16-style workload: one wide α≈450 PROPAGATE + retrieval. */
Measured
runFig16()
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

    double t0 = now();
    RunResult r = machine.run(w.prog);
    double t1 = now();

    Measured m;
    m.workload = "fig16";
    m.simTicks = r.wallTicks;
    m.digest = digestResults(r.results);
    m.events = machine.eventsProcessed();
    m.seconds = t1 - t0;
    return m;
}

/** Table 4-style workload: memory-based parse of a MUC sentence. */
Measured
runTable4()
{
    LinguisticKbParams params;
    params.nonlexicalNodes = 1500;
    params.vocabulary = 300;
    LinguisticKb kb(params);
    MemoryBasedParser parser(kb);

    SnapMachine machine(MachineConfig::paperSetup());
    machine.loadKb(kb.net());
    auto sentences = makeMuc4Sentences(kb.lexicon());

    double t0 = now();
    ParseOutcome out = parser.parseOn(machine, sentences[0]);
    double t1 = now();

    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const CollectedNode &n : out.candidates) {
        h = fnv(h, n.node);
        h = fnv(h, floatBits(n.value));
        h = fnv(h, n.origin);
    }

    Measured m;
    m.workload = "table4";
    m.simTicks = out.mbTime;
    m.digest = h;
    m.events = machine.eventsProcessed();
    m.seconds = t1 - t0;
    return m;
}

/** The profiled workloads: fig17, the β=8 stress, and table4, the
 *  sentence parse that serving runs. */
std::vector<Profile>
profileAll(std::uint32_t fig17_rounds)
{
    return {profile("fig17", [&] { runFig17(fig17_rounds); }),
            profile("table4", [] { runTable4(); })};
}

void
writeJson(const std::vector<Measured> &rows,
          const std::vector<Profile> &profiles)
{
    FILE *f = std::fopen("BENCH_host_perf.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "cannot write BENCH_host_perf.json\n");
        return;
    }
    std::fprintf(f,
                 "{\n  \"benchmark\": \"host_perf\",\n"
                 "  %s,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"results\": [\n",
                 bench::jsonEnvelope().c_str(),
                 std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measured &m = rows[i];
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", "
            "\"events\": %llu, \"host_seconds\": %.6f, "
            "\"events_per_sec\": %.1f, \"sim_ticks\": %llu}%s\n",
            m.workload.c_str(),
            static_cast<unsigned long long>(m.events), m.seconds,
            m.eps(), static_cast<unsigned long long>(m.simTicks),
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"profile\": [\n");
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        const hostprof::Totals &t = profiles[p].totals;
        std::fprintf(f, "    {\"workload\": \"%s\", \"phases\": [\n",
                     profiles[p].workload.c_str());
        for (std::size_t i = 0; i < hostprof::numPhases; ++i) {
            std::fprintf(
                f,
                "      {\"phase\": \"%s\", \"self_ns\": %llu, "
                "\"hits\": %llu}%s\n",
                hostprof::phaseName(static_cast<hostprof::Phase>(i)),
                static_cast<unsigned long long>(t.ns[i]),
                static_cast<unsigned long long>(t.hits[i]),
                i + 1 < hostprof::numPhases ? "," : "");
        }
        std::fprintf(f, "    ]}%s\n",
                     p + 1 < profiles.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_host_perf.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // fig17 is the headline workload; run it long enough to time.
    std::uint32_t fig17_rounds = 8;
    bool profile_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--profile") == 0) {
            profile_only = true;
            continue;
        }
        char *end = nullptr;
        unsigned long v = std::strtoul(argv[i], &end, 10);
        if (end == argv[i] || *end != '\0' || v == 0) {
            std::fprintf(stderr,
                         "usage: host_perf [fig17_rounds >= 1] "
                         "[--profile]\n");
            return 2;
        }
        fig17_rounds = static_cast<std::uint32_t>(v);
    }

    if (profile_only) {
        // Profile-only mode: one instrumented run per profiled
        // workload, the per-phase self-time tables, and nothing else.
        // For chasing hot-loop regressions without waiting on the
        // full bench.
        for (const Profile &p : profileAll(fig17_rounds))
            std::printf("%s per-phase host time:\n%s\n",
                        p.workload.c_str(),
                        hostprof::format(p.totals).c_str());
        return 0;
    }

    bench::banner(
        "host_perf — absolute host events/sec of the DES core",
        "host-only measurement: simulated results are fixed by the "
        "machine goldens, events/sec is the trajectory");

    bool agree = true;
    std::vector<Measured> rows;
    rows.push_back(bestOf(agree, [] { return runFig16(); }));
    rows.push_back(
        bestOf(agree, [&] { return runFig17(fig17_rounds); }));
    rows.push_back(bestOf(agree, [] { return runTable4(); }));

    TextTable table;
    table.header({"workload", "events", "host s", "events/s",
                  "sim ticks"});
    for (const Measured &m : rows) {
        table.row({m.workload, std::to_string(m.events),
                   fmtDouble(m.seconds, 4),
                   fmtDouble(m.eps() / 1e6, 2) + "M",
                   std::to_string(m.simTicks)});
    }
    std::printf("%s\n", table.render().c_str());

    const std::vector<Profile> profiles = profileAll(fig17_rounds);
    for (const Profile &p : profiles)
        std::printf("%s per-phase host time (separate instrumented "
                    "run):\n%s\n",
                    p.workload.c_str(),
                    hostprof::format(p.totals).c_str());

    writeJson(rows, profiles);

    bench::check("reps agree on sim ticks, digest and events", agree);
    return bench::finish();
}
