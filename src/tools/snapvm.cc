/**
 * @file
 * snapvm — run a SNAP assembler program against a knowledge base on
 * the simulated SNAP-1 machine.
 *
 *   snapvm <kb.snapkb> <program.snap> [options]
 *     --clusters N          array size (1..32, default 16)
 *     --partition seq|rr|sem  allocation strategy (default sem)
 *     --mus N               marker units per cluster (default: the
 *                           prototype's 3/2 mix)
 *     --relax-capacity      lift the 1024-nodes-per-cluster limit
 *     --stats               print the full execution breakdown
 *     --disasm              print the program before running
 *     --perf-csv FILE       dump performance-network records as CSV
 *     --fault-seed N        seed for deterministic fault injection
 *     --fault-rate X        inject ICN message faults at rate X
 *     --fault-spec FILE     load a full fault plan from JSON
 *     --trace-out FILE      write a Chrome trace-event JSON of the
 *                           run (load in Perfetto / chrome://tracing)
 *     --trace-categories L  comma list of trace categories (default
 *                           all; see docs/observability.md)
 *     --metrics-out FILE    export the unified metrics registry
 *     --metrics-format F    json|prometheus (default json)
 *     --profile             time the run's host phases (queue,
 *                           dispatch, ...) and add them to the
 *                           exported metrics as
 *                           snap_host_phase_ns_total{phase=...}
 *
 * Exit status: 0 on success, 1 on user error (bad input files or
 * configuration, and runs rejected by fault detection), 2 on a
 * command-line usage error (unknown arguments or out-of-range flag
 * values).  This convention is shared by snapsh, snapkb-gen, and
 * snapserve.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/machine.hh"
#include "common/host_prof.hh"
#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "common/strutil.hh"
#include "fault/fault_plan.hh"
#include "trace/trace.hh"
#include "isa/assembler.hh"
#include "kb/kb_io.hh"
#include "runtime/validate.hh"

using namespace snap;

namespace
{

void
usage()
{
    std::fprintf(stderr,
        "usage: snapvm <kb.snapkb> <program.snap> [options]\n"
        "  --clusters N           array size (1..32, default 16)\n"
        "  --partition seq|rr|sem allocation (default sem)\n"
        "  --mus N                marker units per cluster\n"
        "  --relax-capacity       lift the 1024 nodes/cluster cap\n"
        "  --stats                print the execution breakdown\n"
        "  --disasm               print the program first\n"
        "  --perf-csv FILE        dump performance-network records\n"
        "  --fault-seed N         deterministic fault-injection seed\n"
        "  --fault-rate X         ICN message-fault rate (0..1)\n"
        "  --fault-spec FILE      full fault plan from JSON\n"
        "  --trace-out FILE       write Chrome trace-event JSON\n"
        "  --trace-categories L   trace category list (default all)\n"
        "  --metrics-out FILE     export the unified metrics "
        "registry\n"
        "  --metrics-format F     json|prometheus (default json)\n"
        "  --profile              export per-phase host time\n");
    std::exit(2);
}

/** Out-of-range or malformed flag value: a usage error (exit 2),
 *  distinct from the snap_fatal path (exit 1, bad input files). */
[[noreturn]] void
usageError(const char *msg)
{
    std::fprintf(stderr, "snapvm: %s\n", msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    std::string kb_path = argv[1];
    std::string prog_path = argv[2];

    MachineConfig cfg = MachineConfig::paperSetup();
    bool stats = false;
    bool disasm = false;
    std::string perf_csv;
    std::uint64_t fault_seed = 1;
    bool fault_seed_set = false;
    double fault_rate = 0.0;
    std::string fault_spec_path;
    std::string trace_out;
    std::string trace_categories = "all";
    std::string metrics_out;
    std::string metrics_format = "json";
    bool profile = false;

    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--clusters") {
            long long n;
            if (!parseInt(next(), n) || n < 1 || n > 32)
                usageError("--clusters must be 1..32");
            cfg.numClusters = static_cast<std::uint32_t>(n);
        } else if (arg == "--partition") {
            std::string p = next();
            if (p == "seq")
                cfg.partition = PartitionStrategy::Sequential;
            else if (p == "rr")
                cfg.partition = PartitionStrategy::RoundRobin;
            else if (p == "sem")
                cfg.partition = PartitionStrategy::Semantic;
            else
                usageError("--partition must be seq, rr, or sem");
        } else if (arg == "--mus") {
            long long n;
            if (!parseInt(next(), n) || n < 1 || n > 3)
                usageError("--mus must be 1..3");
            cfg.musPerCluster.assign(32,
                                     static_cast<std::uint32_t>(n));
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
        } else if (arg == "--relax-capacity") {
            cfg.maxNodesPerCluster = capacity::maxNodes;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--disasm") {
            disasm = true;
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--perf-csv") {
            perf_csv = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--trace-categories") {
            trace_categories = next();
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--metrics-format") {
            metrics_format = next();
            if (metrics_format != "json" &&
                metrics_format != "prometheus")
                usageError("--metrics-format must be json or "
                           "prometheus");
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage();
        }
    }

    SemanticNetwork net = loadNetworkFile(kb_path);
    std::printf("loaded %s: %u nodes, %llu links\n", kb_path.c_str(),
                net.numNodes(),
                static_cast<unsigned long long>(net.numLinks()));

    Program prog = assembleFile(prog_path, net);
    std::printf("assembled %s: %zu instructions, %u rules\n",
                prog_path.c_str(), prog.size(), prog.rules().size());
    if (disasm)
        std::printf("\n%s\n", prog.toString().c_str());

    auto violations = validateProgram(prog);
    for (const auto &v : violations)
        snap_warn("%s", v.message.c_str());
    if (!violations.empty()) {
        snap_warn("program has %zu barrier-discipline hazard(s); "
                  "results may be timing dependent",
                  violations.size());
    }

    // Optional deterministic fault injection: a JSON plan, or the
    // canonical ICN message-fault mix at --fault-rate.
    FaultSpec fspec;
    if (!fault_spec_path.empty()) {
        std::ifstream is(fault_spec_path);
        if (!is)
            snap_fatal("cannot open fault spec '%s'",
                       fault_spec_path.c_str());
        std::ostringstream buf;
        buf << is.rdbuf();
        if (!FaultSpec::fromJson(buf.str(), fspec))
            snap_fatal("cannot parse fault spec '%s'",
                       fault_spec_path.c_str());
        if (fault_seed_set)
            fspec.seed = fault_seed;
    } else if (fault_rate > 0.0) {
        fspec = FaultSpec::messageFaults(fault_seed, fault_rate);
    }

    // Tracing must be armed before the machine is built: track names
    // are registered at wire-up only while tracing is active.
    if (!trace_out.empty()) {
        std::uint32_t mask = 0;
        if (!trace::parseCategories(trace_categories, mask) ||
            mask == 0) {
            usageError("--trace-categories must be a comma list "
                       "from: all,instr,cluster,icn,sync,sem,fault,"
                       "machine,serve");
        }
        trace::start(mask);
        trace::nameProcess(trace::kHostPid, "snapvm host (ns)");
        trace::nameTrack(trace::kHostPid, trace::kTidAdmission,
                         "driver");
    }

    SnapMachine machine(cfg);
    machine.loadKb(net);
    if (fspec.any()) {
        machine.installFaults(fspec);
        machine.setIntegrityShadow(&net);
        std::printf("fault injection armed (seed %llu)\n",
                    static_cast<unsigned long long>(fspec.seed));
    }
    std::printf("machine: %u clusters, %u processors, %s "
                "allocation\n\n", cfg.numClusters,
                cfg.numProcessors(),
                partitionStrategyName(cfg.partition));

    // Flow-link the host-side driver span to the simulated run so
    // even a snapvm trace carries at least one 's'/'f' pair.
    std::uint64_t flow_id = 0;
    std::uint64_t run_ns = 0;
    if (SNAP_TRACE_ON(trace::kMachine)) {
        flow_id = trace::nextFlowId();
        run_ns = trace::hostNowNs();
        trace::hostFlowStart(trace::kMachine, trace::kTidAdmission,
                             flow_id, run_ns);
        trace::armFlow(flow_id);
    }
    if (profile) {
        hostprof::setEnabled(true);
        hostprof::resetThread();
    }
    RunResult run = machine.run(prog);
    hostprof::Totals phases;
    if (profile) {
        hostprof::setEnabled(false);
        phases = hostprof::snapshot();
    }
    // Every registry snapvm renders carries the profile when asked.
    auto exportProfile = [&](MetricsRegistry &reg) {
        if (profile)
            hostprof::exportMetrics(phases, reg);
    };
    if (flow_id != 0) {
        trace::hostSpan(trace::kMachine, trace::kTidAdmission, "run",
                        run_ns, trace::hostNowNs());
    }

    auto writeTrace = [&]() {
        if (trace_out.empty())
            return;
        trace::stop();
        if (trace::writeJsonFile(trace_out)) {
            std::printf("wrote trace to %s (%llu events dropped)\n",
                        trace_out.c_str(),
                        static_cast<unsigned long long>(
                            trace::droppedCount()));
        }
    };

    if (fspec.any()) {
        std::printf("fault report: %s\n\n",
                    run.fault.summary().c_str());
        if (!run.fault.ok()) {
            writeTrace();
            // Detection turned a possibly-wrong answer into a typed
            // error; refuse to print results.
            std::fprintf(stderr,
                         "run rejected by fault detection (re-run "
                         "with a different --fault-seed to vary the "
                         "injection)\n");
            return 1;
        }
    }

    int idx = 0;
    for (const CollectResult &res : run.results) {
        std::printf("collect #%d (%s):\n", idx++,
                    opcodeName(res.op));
        for (const CollectedNode &c : res.nodes) {
            std::printf("  %-24s value %-10.4f origin %s\n",
                        net.nodeName(c.node).c_str(), c.value,
                        c.origin == invalidNode
                            ? "-"
                            : net.nodeName(c.origin).c_str());
        }
        for (const CollectedLink &l : res.links) {
            std::printf("  %s -%s-> %s (w %.4f)\n",
                        net.nodeName(l.src).c_str(),
                        net.relations().name(l.rel).c_str(),
                        net.nodeName(l.dst).c_str(), l.weight);
        }
        if (res.nodes.empty() && res.links.empty())
            std::printf("  (empty)\n");
    }

    std::printf("\nexecution time: %.3f ms (%.1f us)\n", run.wallMs(),
                run.wallUs());
    if (stats) {
        std::printf("\n%s", run.stats.summary().c_str());
        MetricsRegistry reg;
        machine.exportMetrics(reg);
        exportProfile(reg);
        std::ostringstream os;
        reg.writePrometheus(os);
        std::printf("\n%s", os.str().c_str());
    }

    if (!perf_csv.empty()) {
        // The instrumentation system's central FIFO, as CSV:
        // timestamped event records from every PE's serial link.
        std::FILE *f = std::fopen(perf_csv.c_str(), "w");
        if (!f)
            snap_fatal("cannot open '%s'", perf_csv.c_str());
        std::fprintf(f, "timestamp_us,pe,event,status\n");
        for (const PerfRecord &r : machine.perfNet().records()) {
            std::fprintf(f, "%.3f,%u,%u,%u\n",
                         ticksToUs(r.timestamp), r.pe,
                         static_cast<unsigned>(r.event), r.status);
        }
        std::fclose(f);
        std::printf("wrote %zu performance records to %s "
                    "(%llu dropped by busy serial ports)\n",
                    machine.perfNet().records().size(),
                    perf_csv.c_str(),
                    static_cast<unsigned long long>(
                        machine.perfNet().dropped()));
    }

    writeTrace();

    if (!metrics_out.empty()) {
        // Unified export: the run's ExecBreakdown plus the machine's
        // component stats, one registry, one format switch.
        MetricsRegistry reg;
        run.stats.exportMetrics(reg);
        machine.exportMetrics(reg);
        exportProfile(reg);
        std::ofstream os(metrics_out);
        if (!os)
            snap_fatal("cannot open '%s' for writing",
                       metrics_out.c_str());
        if (metrics_format == "prometheus")
            reg.writePrometheus(os);
        else
            reg.writeJson(os);
        std::printf("wrote %zu metrics (%s) to %s\n", reg.size(),
                    metrics_format.c_str(), metrics_out.c_str());
    }
    return 0;
}
