/**
 * @file
 * SnapMachine: the assembled SNAP-1 system model.
 *
 * Wires the controller, the processing array (clusters of PU / MU /
 * CU), the hypercube ICN, the tiered synchronization tree, and the
 * performance collection network; loads a compiled knowledge base;
 * executes SNAP programs and reports execution time plus the full
 * statistics breakdown.
 *
 * The machine owns one event queue, one sync tree, one statistics
 * breakdown, and one perf net, shared by every cluster and the
 * controller through MachineContext; all cross-endpoint interaction
 * rides the Wire (arch/wire.hh): latency-stamped deliverables,
 * broadcasts, and queue-slot releases.  A fault-free run drains the
 * queue; a fault run steps it through the watchdog's check grid
 * (runWatched).
 */

#ifndef SNAP_ARCH_MACHINE_HH
#define SNAP_ARCH_MACHINE_HH

#include <memory>
#include <vector>

#include "arch/cluster.hh"
#include "arch/config.hh"
#include "arch/controller.hh"
#include "arch/exec_stats.hh"
#include "arch/icn.hh"
#include "arch/kb_image.hh"
#include "arch/perf_net.hh"
#include "arch/sync_tree.hh"
#include "arch/wire.hh"
#include "fault/fault_plan.hh"
#include "isa/program.hh"
#include "kb/semantic_network.hh"
#include "runtime/results.hh"
#include "sim/event_queue.hh"

namespace snap
{

/** Outcome of one program execution. */
struct RunResult
{
    /** Retrieval results in program order. */
    ResultSet results;
    /** Simulated wall-clock time of the run. */
    Tick wallTicks = 0;
    /** Full statistics breakdown. */
    ExecBreakdown stats;
    /** What the fault layer injected and detected (enabled only when
     *  a live FaultPlan covered the run).  When !fault.ok() the
     *  results are untrustworthy (wedge) or provably wrong
     *  (integrity); callers must not use them. */
    FaultReport fault;

    double wallMs() const { return ticksToMs(wallTicks); }
    double wallUs() const { return ticksToUs(wallTicks); }
};

/**
 * The whole machine.  Usage:
 *
 *     SnapMachine machine(MachineConfig::paperSetup());
 *     machine.loadKb(network);
 *     RunResult r = machine.run(program);
 */
class SnapMachine
{
  public:
    explicit SnapMachine(MachineConfig cfg);
    ~SnapMachine();

    /** Compile and load @p net into the array (partition + tables).
     *  Replaces any previously loaded knowledge base. */
    void loadKb(const SemanticNetwork &net);

    /**
     * Load a replica of an already-compiled image, skipping the
     * partition + table-compilation work.  The serve engine compiles
     * one immutable master image and stamps per-worker machines from
     * it.  @p image must have been compiled for this machine's
     * cluster count (fatal otherwise).
     */
    void loadKb(const KbImage &image);

    /** Execute @p prog to completion.  Marker state persists across
     *  runs (applications issue multiple programs). */
    RunResult run(const Program &prog);

    const MachineConfig &config() const { return cfg_; }

    bool kbLoaded() const { return image_ != nullptr; }

    KbImage &
    image()
    {
        snap_assert(image_ != nullptr, "no knowledge base loaded");
        return *image_;
    }
    const KbImage &
    image() const
    {
        snap_assert(image_ != nullptr, "no knowledge base loaded");
        return *image_;
    }

    /** Marker state over global node ids (verification access). */
    bool markerSet(MarkerId m, NodeId n) const
    {
        return image().markerSet(m, n);
    }
    float markerValue(MarkerId m, NodeId n) const
    {
        return image().markerValue(m, n);
    }
    NodeId markerOrigin(MarkerId m, NodeId n) const
    {
        return image().markerOrigin(m, n);
    }

    HypercubeIcn &icn() { return *icn_; }
    PerfNet &perfNet() { return *perf_; }
    Cluster &cluster(ClusterId c) { return *clusters_.at(c); }

    /** Simulated time elapsed since construction. */
    Tick now() const { return eq_.curTick(); }

    /** Host-side event count (perf harness instrumentation). */
    std::uint64_t eventsProcessed() const { return eq_.eventsProcessed(); }

    /** Push the component statistics ("integrated measurement
     *  system", §II-B: ICN traffic, perf net, sync tree, per-cluster
     *  queues) into the unified MetricsRegistry; `labels` (e.g.
     *  worker="2") is applied to every sample. */
    void exportMetrics(MetricsRegistry &reg,
                       MetricsRegistry::Labels labels = {}) const;

    // --- fault injection / detection --------------------------------

    /**
     * Arm a fault plan.  Subsequent runs inject per @p spec and take
     * the detecting path (a simulated-time watchdog, wedge demotion
     * from fatal assert to typed error, optional integrity shadow).
     * An all-zero spec arms the hooks but never fires — runs stay
     * bit-identical to an unarmed machine.  Replaces any previous
     * plan.
     */
    void installFaults(const FaultSpec &spec);
    void clearFaults();
    FaultPlan *faultPlan() { return faults_.get(); }

    /**
     * Enable end-of-run integrity checking against the golden-model
     * reference interpreter.  @p net must be the network image_ was
     * compiled from and must outlive the machine.  Checked only for
     * pure programs (no KB/marker maintenance opcodes) under a live
     * fault plan; the check replays the program from the run's entry
     * marker state and compares results and final marker planes.
     */
    void setIntegrityShadow(const SemanticNetwork *net)
    {
        shadowNet_ = net;
    }

    /** True after a wedged/aborted run: component state is dirty and
     *  run() refuses to continue until repair(). */
    bool poisoned() const { return poisoned_; }

    /** Rebuild the array around the (preserved) image.  Marker state
     *  survives; in-flight messages and sync state are discarded. */
    void repair();

  private:
    /** Build ICN/sync/perf/wire/clusters/controller around
     *  image_. */
    void wireArray();

    /** min(broadcast time, ICN hop transfer time) — no deliverable's
     *  latency is below it. */
    Tick wireLag() const;

    /** Register Perfetto process/track names for this machine's
     *  trace domain (cold; only when tracing is active). */
    void nameTraceTracks() const;

    /** Arm this run's scheduled faults (flip/stick/wedge/dead).  All
     *  entropy is drawn here, before the run, in a fixed order. */
    void scheduleRunFaults(Tick start);

    /**
     * Fault-run event loop: step the queue through a check grid of
     * boundary = min(next pending event, next unretired slot release)
     * + wireLag(), stop once only armed faults remain and every
     * release has retired, and abort (watchdog) once boundary - start
     * exceeds the plan's watchdogTicks.  Each step retires the
     * releases due before its boundary, and the clock reaches the
     * later of the last fired event and the last retired release: an
     * aborted run's wall ends there.  The abort tick decides both the
     * partial run and every later fault draw.
     * @return true when the program completed.
     */
    bool runWatched(Tick start);

    /** Golden-model replay from @p entry; flags divergence. */
    void checkIntegrity(const Program &prog, MarkerStore entry,
                        RunResult &result);

    MachineConfig cfg_;

    /** The simulated clock; it outlives every re-wiring (repair,
     *  reload), so simulated time never moves backwards. */
    EventQueue eq_;
    std::unique_ptr<KbImage> image_;
    std::unique_ptr<HypercubeIcn> icn_;
    std::unique_ptr<PerfNet> perf_;
    std::unique_ptr<Wire> wire_;
    std::unique_ptr<SyncTree> sync_;
    ExecBreakdown stats_;
    /** Source activations per PROPAGATE of the current program. */
    std::vector<std::uint64_t> alphaPerProp_;
    /** Shared by every cluster and the controller (captured by
     *  reference, so it lives as long as the machine). */
    MachineContext ctx_;

    std::vector<std::unique_ptr<Cluster>> clusters_;
    std::unique_ptr<Controller> controller_;

    std::unique_ptr<FaultPlan> faults_;
    const SemanticNetwork *shadowNet_ = nullptr;
    bool poisoned_ = false;

    /** This run's armed scheduled faults (descheduled at run end). */
    std::vector<std::unique_ptr<EventFunctionWrapper>> faultEvents_;
};

} // namespace snap

#endif // SNAP_ARCH_MACHINE_HH
