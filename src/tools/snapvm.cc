/**
 * @file
 * snapvm — run a SNAP assembler program against a knowledge base on
 * the simulated SNAP-1 machine.
 *
 *   snapvm <kb.snapkb|kb.kbimg> <program.snap> [options]
 *     --mus N               marker units per cluster (default: the
 *                           prototype's 3/2 mix)
 *     --stats               print the full execution breakdown
 *     --disasm              print the program before running
 *     --perf-csv FILE       dump performance-network records as CSV
 *     --trace-out FILE      write a Chrome trace-event JSON of the
 *                           run (load in Perfetto / chrome://tracing)
 *     --metrics-out FILE    export the unified metrics registry
 *     --profile             time the run's host phases (queue,
 *                           dispatch, ...) and add them to the
 *                           exported metrics as
 *                           snap_host_phase_ns_total{phase=...}
 *   and the shared machine, fault, trace and metrics flags of
 *   tools/cli.hh: --clusters, --partition, --relax-capacity,
 *   --fault-seed/-rate/-spec, --trace-categories, --metrics-format.
 *
 * The knowledge base may be .snapkb text or a .kbimg snapshot.  Exit
 * status follows the tools' convention (tools/cli.hh); a run rejected
 * by fault detection exits 1.
 */

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "arch/machine.hh"
#include "common/host_prof.hh"
#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "isa/assembler.hh"
#include "runtime/validate.hh"
#include "tools/cli.hh"

using namespace snap;

namespace
{

const char *const kUsage =
    "usage: snapvm <kb.snapkb|kb.kbimg> <program.snap> [options]\n"
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
    "  --profile              export per-phase host time\n";

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args("snapvm", kUsage, argc, argv);
    MachineConfig cfg = MachineConfig::paperSetup();
    cli::FaultFlags faults("--fault");
    cli::TraceFlags tracing;
    cli::MetricsFlags metrics("--metrics-out", "--metrics-format");
    bool stats = false;
    bool disasm = false;
    bool profile = false;
    std::string perf_csv;

    while (args.nextFlag()) {
        if (cli::machineFlag(args, cfg) || faults.take(args) ||
            tracing.take(args) || metrics.take(args))
            continue;
        if (args.is("--mus")) {
            cfg.musPerCluster.assign(
                32, static_cast<std::uint32_t>(
                        args.intValue(1, 3, "--mus must be 1..3")));
        } else if (args.is("--stats")) {
            stats = true;
        } else if (args.is("--disasm")) {
            disasm = true;
        } else if (args.is("--profile")) {
            profile = true;
        } else if (args.is("--perf-csv")) {
            perf_csv = args.value();
        } else {
            args.unknownFlag();
        }
    }
    if (args.positional().size() != 2)
        args.usage();
    const std::string &kb_path = args.positional()[0];
    const std::string &prog_path = args.positional()[1];

    KbImageFile kb = cli::loadKb(args, kb_path);
    SemanticNetwork &net = kb.net;
    cli::printKb(kb_path, kb);

    Program prog;
    std::string err;
    if (!assembleFile(prog_path, net, prog, err))
        args.inputError(err);
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
    FaultSpec fspec = faults.spec(args, &FaultSpec::messageFaults);

    // Tracing must be armed before the machine is built: track names
    // are registered at wire-up only while tracing is active.
    tracing.start();
    if (!tracing.out.empty()) {
        trace::nameProcess(trace::kHostPid, "snapvm host (ns)");
        trace::nameTrack(trace::kHostPid, trace::kTidAdmission,
                         "driver");
    }

    std::unique_ptr<SnapMachine> machine_ptr = cli::machineFor(kb, cfg);
    SnapMachine &machine = *machine_ptr;
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

    if (fspec.any()) {
        std::printf("fault report: %s\n\n",
                    run.fault.summary().c_str());
        if (!run.fault.ok()) {
            tracing.write();
            // Detection turned a possibly-wrong answer into a typed
            // error; refuse to print results.
            std::fprintf(stderr,
                         "run rejected by fault detection (re-run "
                         "with a different --fault-seed to vary the "
                         "injection)\n");
            return 1;
        }
    }

    cli::printResults(net, run.results, "");

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
            args.inputError("cannot open '" + perf_csv + "'");
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

    tracing.write();

    if (!metrics.path().empty()) {
        // Unified export: the run's ExecBreakdown plus the machine's
        // component stats, one registry, one format switch.
        MetricsRegistry reg;
        run.stats.exportMetrics(reg);
        machine.exportMetrics(reg);
        exportProfile(reg);
        metrics.write(args, reg);
    }
    return 0;
}
