/**
 * @file
 * One SNAP-1 cluster: processing unit, marker units, communication
 * unit, and the multiport memory regions joining them (paper §III-A,
 * Figs. 9/10).
 *
 * Three-stage instruction processing: the PU dequeues broadcast
 * instructions from the dual-port instruction memory, decodes them,
 * and enqueues tasks in the marker processing memory; MUs execute
 * tasks asynchronously (word-parallel status-table operations,
 * relation-table search, breadth-first propagation); the CU moves
 * activation messages between the marker activation memory and the
 * hypercube ICN.
 *
 * Ordering: non-PROPAGATE tasks execute in program order within the
 * cluster (the PU "uses point-to-point control to serialize MU
 * processing"); PROPAGATE initiations may overlap each other
 * (β-parallelism) and their marker deliveries are asynchronous until
 * a BARRIER.
 *
 * Isolation contract: a cluster mutates only its own state (and the
 * machine's queue/stats/sync-tree through MachineContext).  Every
 * interaction with another cluster or the controller goes through
 * the Wire (arch/wire.hh): ICN messages and collect buffers as
 * latency-stamped Deliverables (incoming ones arrive via
 * applyDeliverable()), SCP broadcasts via landBroadcast(), and freed
 * queue slots as releases.  A CU pop releases the slot to the
 * neighbor that sent the message, a PU pop to the SCP; each frees
 * one wire lag later.  The CU reads its links' occupancy when it
 * steps; only a CU stalled on a full neighbor schedules a wake.
 */

#ifndef SNAP_ARCH_CLUSTER_HH
#define SNAP_ARCH_CLUSTER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/config.hh"
#include "arch/exec_stats.hh"
#include "arch/icn.hh"
#include "arch/kb_image.hh"
#include "arch/message.hh"
#include "arch/multiport_mem.hh"
#include "arch/perf_net.hh"
#include "arch/sync_tree.hh"
#include "arch/wire.hh"
#include "fault/fault_plan.hh"
#include "isa/program.hh"
#include "runtime/frontier_map.hh"
#include "runtime/propagate.hh"
#include "runtime/results.hh"
#include "sim/sim_object.hh"

namespace snap
{

/** Machine context handed to every cluster and the controller: the
 *  machine's one event queue, sync tree, statistics breakdown, and
 *  perf net, plus the shared configuration and image. */
struct MachineContext
{
    EventQueue *eq = nullptr;
    const MachineConfig *cfg = nullptr;
    KbImage *image = nullptr;
    const HypercubeIcn *icn = nullptr;  ///< topology + lifetime stats
    SyncTree *sync = nullptr;
    PerfNet *perf = nullptr;
    ExecBreakdown *stats = nullptr;
    Wire *wire = nullptr;
    /** Live fault plan, or nullptr (the default, fault-free path). */
    FaultPlan *faults = nullptr;
    /** Chrome trace process id of this machine's simulated-time
     *  events (trace::kSimPidBase + cfg->traceDomain). */
    std::uint32_t tracePid = 0;

    // Per-run state, set by the machine before each program.
    const RuleTable *rules = nullptr;
    std::vector<std::uint64_t> *alphaPerProp = nullptr;
};

/** Task entry in the marker processing memory. */
struct Task
{
    Instruction instr;
    std::uint16_t seq = 0;
    /** Ordered tasks wait for all earlier tasks to complete. */
    bool ordered = true;
};

/** Local propagation expansion item (breadth-first frontier entry).
 *  One item covers one 16-slot relation row; nodes whose fanout was
 *  split into subnode chains by the preprocessor spawn one item per
 *  subnode row, each claimable by any available MU. */
struct WorkItem
{
    LocalNodeId node = 0;
    std::uint8_t state = 0;
    float value = 0.0f;
    NodeId origin = invalidNode;
    std::uint16_t steps = 0;
    RuleId rule = 0;
    MarkerId m2 = 0;
    MarkerFunc func = MarkerFunc::None;
    std::uint16_t propId = 0;
    /** First relation slot of this item's subnode row. */
    std::uint32_t rowStart = 0;
};

/**
 * One cluster of the processing array.
 */
class Cluster : public ClockedObject, public WireEndpoint
{
  public:
    Cluster(MachineContext &ctx, ClusterId id, std::uint32_t num_mus,
            std::uint32_t pe_base);

    ClusterId id() const { return id_; }
    std::uint32_t numMus() const
    {
        return static_cast<std::uint32_t>(mus_.size());
    }

    // --- wire endpoint ------------------------------------------------------

    /** An ICN message arrived in a dimension inbox. */
    void applyDeliverable(Deliverable &&d) override;
    /** The stalled CU's wake: take one due slot release, then step. */
    void wake() override;
    /** A slot release was recorded while the CU stalls. */
    void releaseRecorded() override;
    /** An instruction or a barrier release landed. */
    void landBroadcast(const Broadcast &b) override;

    // --- unit wakeups ------------------------------------------------------

    void kickPu();
    void kickMus();
    void kickCu();

    /** All units and queues quiescent. */
    bool localIdle() const;

    /** Clear per-run state (best-maps, collect buffers, barrier
     *  flags).  Marker state persists across runs. */
    void resetForRun();

    // --- per-run stat deltas, folded by the machine -------------------------

    /** Per-cluster ICN traffic accumulated this run, folded into
     *  HypercubeIcn in canonical cluster order at run end (the
     *  order fixes the floating-point distribution state). */
    struct IcnDelta
    {
        std::uint64_t injected = 0;
        std::uint64_t hops = 0;
        std::uint64_t relays = 0;
        std::uint64_t blockedSends = 0;
        std::uint64_t dropped = 0;
        stats::Distribution hopDist;
        stats::Distribution latency;

        void
        reset()
        {
            injected = hops = relays = blockedSends = dropped = 0;
            hopDist.reset();
            latency.reset();
        }
    };

    IcnDelta &icnDelta() { return icnDelta_; }

    /** Per-cluster message-latency samples for ExecBreakdown
     *  (order-canonical fold, same reason as IcnDelta). */
    stats::Distribution &msgLatencyDelta() { return msgLatency_; }

    // --- introspection ---------------------------------------------------

    ClusterKb &kb() { return kb_; }
    const ClusterKb &kb() const { return kb_; }

    std::size_t activationOutHighWater() const
    {
        return activationOut_.highWater();
    }

    std::size_t arrivalsHighWater() const { return arrivalsHigh_; }

    /** Cumulative MU busy time on this cluster (utilization). */
    Tick muBusyLocal() const { return muBusyLocal_; }

  private:
    // --- wire arrivals ------------------------------------------------------

    /** Broadcast landing in the dual-port instruction memory. */
    void enqueueInstr(const QueuedInstr &qi);

    /** Barrier release broadcast from the SCP. */
    void releaseBarrier();

    // --- PU -----------------------------------------------------------------
    /** End of the PU's occupancy: park at a BARRIER; otherwise
     *  dispatch the decoded task if this cluster acts on it (stalling
     *  on a full marker processing memory) and pop the next
     *  instruction. */
    void puFinish();
    /** Try to enqueue the decoded task; true on success. */
    bool tryDispatch();
    /** Does this cluster act on @p instr at all? */
    bool participates(const Instruction &instr) const;

    // --- MU -----------------------------------------------------------------
    struct MuState
    {
        bool busy = false;
        /** Non-null while executing an instruction task. */
        bool hasTask = false;
        Task task;
        /** Expansion in progress (resumable across out-queue
         *  stalls). */
        bool expanding = false;
        WorkItem item;
        std::uint32_t slotIdx = 0;
        /** Resumable marker-maintenance progress. */
        bool maintaining = false;
        std::uint32_t maintIdx = 0;
        std::vector<LocalNodeId> maintNodes;
        /** Unspent busy time accumulated during the current
         *  activity. */
        Tick accum = 0;
        /** Category the current activity bills to. */
        InstrCategory cat = InstrCategory::Propagation;
        /** Sync tier to consume on completion (arrivals only). */
        bool consumeOnDone = false;
        std::uint8_t consumeLevel = 0;
        std::unique_ptr<EventFunctionWrapper> doneEvent;
        /** Rule-step scratch for continueExpansion; per-MU because
         *  deliveries can start expansions on other MUs mid-walk. */
        std::vector<std::uint8_t> nexts;
    };

    void tryStartMu(std::uint32_t i);
    void startArrival(std::uint32_t i);
    void startExpansion(std::uint32_t i);
    void startTask(std::uint32_t i);
    /** Walk slots of the current expansion; returns false if stalled
     *  on a full activation-out queue. */
    bool continueExpansion(std::uint32_t i);
    /** Resumable MARKER-CREATE / MARKER-DELETE execution. */
    bool continueMaintenance(std::uint32_t i);
    void finishMu(std::uint32_t i);
    void scheduleMuDone(std::uint32_t i);

    /** Execute a whole-cluster task functionally; returns its busy
     *  duration in ticks. */
    Tick executeTask(std::uint32_t i, const Task &task);

    /**
     * Merge an arriving marker into the local tables and decide
     * whether to continue propagation (shared by local deliveries
     * and remote arrivals).  Adds cycle costs to @p dur.
     */
    void deliverMarker(LocalNodeId dst, MarkerId m2, float value,
                       NodeId origin, MarkerFunc func,
                       std::uint16_t prop_id, std::uint8_t state,
                       std::uint16_t steps, RuleId rule, Tick &dur);

    /** Emit an inter-cluster message; false if the out queue is
     *  full (caller must stall). */
    bool emitMessage(const ActivationMessage &msg, Tick &dur);

    // --- CU -----------------------------------------------------------------
    void cuStep();
    void finishCu();

    /** Pop the head of dimension inbox @p dim; the slot frees for
     *  the cluster that sent it one wire lag later. */
    ActivationMessage popInbox(std::uint32_t dim);

    /** The CU stalled: wake at the earliest pending slot release,
     *  or at the next one recorded. */
    void awaitSlotRelease();

    /** Index into credits_ of the link toward @p nb along @p dim. */
    static std::uint32_t
    linkSlot(std::uint32_t dim, ClusterId nb)
    {
        return dim * 4 + HypercubeIcn::field(nb, dim);
    }

    /** Stage a message on the wire toward neighbor @p nb along
     *  @p dim, arriving after @p latency. */
    void stageIcnMsg(ClusterId nb, std::uint32_t dim,
                     ActivationMessage &&msg, Tick latency);

    // --- shared helpers ---------------------------------------------------
    Tick cy(std::uint32_t cycles) const
    {
        return cyclesToTicks(cycles);
    }
    std::uint32_t statusWords() const
    {
        return (kb_.numLocalNodes() + capacity::wordBits - 1) /
               capacity::wordBits;
    }
    void updateIdle();
    std::uint64_t nextWireSeq() { return wireSeq_++; }

    MachineContext &ctx_;
    ClusterId id_;
    std::uint32_t peBase_;
    ClusterKb &kb_;
    const TimingParams &t_;

    // Memories / queues.
    BoundedQueue<QueuedInstr> instrQueue_;
    BoundedQueue<Task> taskQueue_;
    BoundedQueue<ActivationMessage> activationOut_;
    std::deque<ActivationMessage> arrivals_;
    std::deque<WorkItem> localWork_;
    std::size_t arrivalsHigh_ = 0;
    ClusterArbiter arbiter_;

    // ICN receive/flow-control state (owned by this cluster).
    // dimInbox_ is the unbounded in-flight view of the
    // neighbor-facing port memory; the finite icnMailboxDepth
    // capacity is enforced sender-side by credits_:
    // credits_[linkSlot(dim, nb)] counts the free slots this cluster
    // sees in neighbor nb's port memory.  A slot the neighbor pops
    // comes back through Wire::foldReleases.
    std::array<std::deque<ActivationMessage>, numIcnDims> dimInbox_;
    std::array<std::uint32_t, numIcnDims * 4> credits_;

    /** Last idle value pushed into the sync tree, or -1 when
     *  unknown (fresh cluster / after resetForRun).  localIdle() is
     *  re-derived on every unit state change; most re-derivations
     *  land on the same value, and the tree's completion check fires
     *  from whichever mutation actually completes it, so unchanged
     *  lines can skip the tree call entirely. */
    std::int8_t idleLine_ = -1;

    // PU state.
    bool puBusy_ = false;
    bool puStalled_ = false;
    bool atBarrier_ = false;
    QueuedInstr pendingInstr_;
    std::unique_ptr<EventFunctionWrapper> puEvent_;

    // Task ordering.
    std::uint32_t tasksOutstanding_ = 0;
    std::uint32_t orderedOutstanding_ = 0;

    // MUs.
    std::vector<MuState> mus_;
    std::uint32_t busyMus_ = 0;  ///< O(1) idle check
    Tick muBusyLocal_ = 0;
    /** MUs stalled on a full activation-out queue. */
    std::vector<std::uint32_t> outWaiters_;

    // CU state.
    bool cuBusy_ = false;
    std::uint32_t cuRr_ = 0;  ///< round-robin source pointer
    /** Kick local MUs when the current CU action completes (an
     *  arrival was delivered into the activation memory). */
    bool cuKickMusOnDone_ = false;
    std::unique_ptr<EventFunctionWrapper> cuEvent_;

    /** Per-sender wire ordering stamp. */
    std::uint64_t wireSeq_ = 0;

    // Per-run stat deltas (folded canonically by the machine).
    IcnDelta icnDelta_;
    stats::Distribution msgLatency_;

    // Per-propagation re-propagation bookkeeping:
    // (propId, local node, state) -> non-dominated label frontier
    // (see runtime/propagate.hh and runtime/frontier_map.hh).
    FrontierMap best_;
    /** FUNC-MARKER snapshot scratch (consumed within one task). */
    std::vector<LocalNodeId> funcScratch_;
    static std::uint64_t
    bestKey(std::uint16_t prop, LocalNodeId node, std::uint8_t state)
    {
        return (static_cast<std::uint64_t>(prop) << 40) |
               (static_cast<std::uint64_t>(node) << 8) | state;
    }

    // Collect buffers per instruction seq (shipped to the SCP as
    // CollectReady deliverables when the task completes).
    std::unordered_map<std::uint16_t, CollectResult> collects_;
};

} // namespace snap

#endif // SNAP_ARCH_CLUSTER_HH
