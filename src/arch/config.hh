/**
 * @file
 * SNAP-1 machine configuration and timing parameters.
 *
 * The defaults model the constructed prototype (paper §III, §IV):
 * TMS320C30 array PEs at 25 MHz (40 ns cycle), a 32 MHz controller
 * (31.25 ns cycle), 32-bit status words, a 4-ary hypercube whose
 * four-port memories move 8 bits every 80 ns (64-bit messages, so
 * 640 ns port-to-port per hop), and 16-entry relation rows with
 * subnode chaining.
 *
 * Per-operation cycle counts are the calibration constants discussed
 * in DESIGN.md §5.6: they are chosen so a 16-cluster machine lands on
 * the paper's absolute anchors (~50 µs SET/CLEAR instructions,
 * several-hundred-µs PROPAGATEs, sub-second sentence parses) while
 * the *shapes* of the evaluation figures emerge from the model
 * structure rather than from the constants.
 */

#ifndef SNAP_ARCH_CONFIG_HH
#define SNAP_ARCH_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "kb/partition.hh"

namespace snap
{

/** Per-operation cost model.  Cycle values are array-PE cycles
 *  (25 MHz) unless noted as controller cycles (32 MHz). */
struct TimingParams
{
    // --- controller (controller cycles) --------------------------------
    /** PCP work per application instruction before it enters the
     *  PCP->SCP FIFO. */
    std::uint32_t pcpIssueCycles = 6;
    /** 32-bit words per broadcast SNAP instruction (opcode +
     *  operands). */
    std::uint32_t instrWords = 8;
    /** Global-bus cycles per 32-bit word (broadcast reaches every
     *  cluster simultaneously). */
    std::uint32_t busCyclesPerWord = 2;
    /** Select one cluster's dual-port for retrieval. */
    std::uint32_t collectSelectCycles = 60;
    /** Read one collected item (two words) over the bus. */
    std::uint32_t collectItemCycles = 16;
    /** Read one cluster's tiered counters during barrier
     *  detection (the P-proportional term of t_sync). */
    std::uint32_t barrierCounterCycles = 24;
    /** Fixed AND-tree settle latency, in nanoseconds. */
    std::uint32_t barrierTreeNs = 200;

    // The MU/PU cycle counts below include the SNAP instruction-set
    // *emulation microcode* overhead ("The PU decomposes each
    // instruction ... according to the emulation microcode in its
    // local memory", §III-A) — hence tens of DSP cycles per logical
    // step.  They are calibrated so a 16-cluster machine matches the
    // paper's anchors: ~50 us SET/CLEAR instructions and several-
    // hundred-us PROPAGATEs over 10-15-step paths (§IV).

    // --- processing unit ------------------------------------------------
    /** Dequeue + decode one broadcast instruction. */
    std::uint32_t puDecodeCycles = 250;
    /** Enqueue one task into the marker processing memory. */
    std::uint32_t puDispatchCycles = 40;

    // --- marker unit ------------------------------------------------------
    /** Claim a task from the marker processing memory (includes
     *  multiport arbitration and microcode dispatch). */
    std::uint32_t muTaskSetupCycles = 150;
    /** Claim one breadth-first frontier item during propagation
     *  (the MU works through its local queue without a full task
     *  dispatch). */
    std::uint32_t muWorkClaimCycles = 30;
    /** One 32-node status-word operation (fetch/op/store). */
    std::uint32_t muWordOpCycles = 30;
    /** Update one complex-marker value register. */
    std::uint32_t muValueOpCycles = 12;
    /** Scan one node-table entry (color check). */
    std::uint32_t muNodeScanCycles = 4;
    /** Fetch one 16-slot relation-table row and evaluate the
     *  propagation rule's microcode against it. */
    std::uint32_t muRelRowCycles = 300;
    /** Examine one relation slot against the propagation rule. */
    std::uint32_t muSlotCycles = 12;
    /** Deliver a marker to a node in the same cluster (status
     *  bit + value register + binding).  Runs concurrently through
     *  the four-port memory; only the semaphore grab serializes. */
    std::uint32_t muLocalDeliverCycles = 150;
    /** Semaphore-table critical section (type-1 traffic): the only
     *  serialized part of a delivery. */
    std::uint32_t muLockCycles = 24;
    /** Assemble + write one activation message for the CU
     *  (DMA into the marker activation memory). */
    std::uint32_t muMsgWriteCycles = 25;
    /** Dequeue + unpack one remote arrival (DMA-assisted). */
    std::uint32_t muArrivalCycles = 40;
    /** Append one item to the cluster's collect output buffer. */
    std::uint32_t muCollectItemCycles = 16;
    /** Insert or remove one relation slot (node maintenance). */
    std::uint32_t muLinkEditCycles = 80;

    // --- communication unit --------------------------------------------
    /** Dequeue one outgoing message from marker activation
     *  memory ("latency is reduced by using DMA between multiported
     *  memory regions"). */
    std::uint32_t cuServiceCycles = 10;
    /** Handle one message at an intermediate hop. */
    std::uint32_t cuRelayCycles = 10;
    /** Final delivery into the destination's activation memory. */
    std::uint32_t cuDeliverCycles = 10;

    // --- interconnection network -----------------------------------------
    /** Message length in bytes (64-bit fixed messages). */
    std::uint32_t icnBytesPerMsg = 8;
    /** Port-to-port time per 8-bit transfer, nanoseconds. */
    std::uint32_t icnByteNs = 80;

    // --- capacities -------------------------------------------------------
    /** PU circular instruction queue depth ("up to 64 instructions
     *  can be overlapped"). */
    std::uint32_t instrQueueDepth = 64;
    /** Marker processing memory task queue depth. */
    std::uint32_t taskQueueDepth = 64;
    /** Marker activation memory outgoing-message capacity.  When
     *  full, the sending MU blocks (burst absorption, Fig. 8). */
    std::uint32_t activationOutDepth = 64;
    /** Mailbox depth per ICN four-port memory port. */
    std::uint32_t icnMailboxDepth = 16;

    // --- performance collection network ---------------------------------
    /** Serial link rate in bits per second. */
    std::uint64_t perfNetBps = 2'000'000;
    /** Bits per performance record (8-b event + 24-b status). */
    std::uint32_t perfRecordBits = 32;
};

/** Full machine configuration. */
struct MachineConfig
{
    /** Number of clusters (1..32). */
    std::uint32_t numClusters = 16;

    /**
     * Marker units per cluster.  Empty means the prototype's mix:
     * alternating 3-MU and 2-MU clusters, giving five- and four-PE
     * clusters (1 PU + MUs + 1 CU) — 72 processors at 16 clusters,
     * 144 at 32.
     */
    std::vector<std::uint32_t> musPerCluster;

    /** Array PE clock period in ticks (25 MHz). */
    Tick arrayClockPeriod = 40 * ticksPerNs;
    /** Controller clock period in ticks (32 MHz). */
    Tick controllerClockPeriod = 31250;  // 31.25 ns in ps

    /** Node-to-cluster allocation policy. */
    PartitionStrategy partition = PartitionStrategy::Semantic;

    /** Cluster node capacity (architecturally 1024). */
    std::uint32_t maxNodesPerCluster = capacity::maxNodesPerCluster;

    /** Enable the performance collection network. */
    bool perfNetEnabled = true;

    /**
     * Trace-domain index of this machine: its simulated-time events
     * land in Chrome process trace::kSimPidBase + traceDomain, so a
     * serve engine's replicas get distinct track groups.  Purely an
     * observability knob — no effect on simulated behaviour.
     */
    std::uint32_t traceDomain = 0;

    TimingParams t;

    /** MUs in cluster @p c under the default or explicit mix. */
    std::uint32_t
    mus(ClusterId c) const
    {
        if (!musPerCluster.empty()) {
            snap_assert(c < musPerCluster.size(),
                        "musPerCluster shorter than numClusters");
            return musPerCluster[c];
        }
        return (c % 2 == 0) ? 3 : 2;
    }

    /** Total processors: per cluster 1 PU + MUs + 1 CU. */
    std::uint32_t
    numProcessors() const
    {
        std::uint32_t total = 0;
        for (ClusterId c = 0; c < numClusters; ++c)
            total += 2 + mus(c);
        return total;
    }

    /** Total marker units in the array. */
    std::uint32_t
    numMarkerUnits() const
    {
        std::uint32_t total = 0;
        for (ClusterId c = 0; c < numClusters; ++c)
            total += mus(c);
        return total;
    }

    /** The paper's experimental setup: 16 clusters, 72 processors. */
    static MachineConfig
    paperSetup()
    {
        MachineConfig cfg;
        cfg.numClusters = 16;
        return cfg;
    }

    /** Full 32-cluster, 144-processor prototype. */
    static MachineConfig
    fullPrototype()
    {
        MachineConfig cfg;
        cfg.numClusters = 32;
        return cfg;
    }

    /** Single-cluster configuration for uniprocessor-style runs. */
    static MachineConfig
    singleCluster(std::uint32_t mus = 1)
    {
        MachineConfig cfg;
        cfg.numClusters = 1;
        cfg.musPerCluster = {mus};
        return cfg;
    }

    void
    validate() const
    {
        if (numClusters < 1 || numClusters > capacity::maxClusters)
            snap_fatal("numClusters %u out of [1,32]", numClusters);
        if (!musPerCluster.empty() &&
            musPerCluster.size() < numClusters) {
            snap_fatal("musPerCluster has %zu entries for %u "
                       "clusters", musPerCluster.size(), numClusters);
        }
        for (ClusterId c = 0; c < numClusters; ++c) {
            if (mus(c) < 1 || mus(c) > 3)
                snap_fatal("cluster %u has %u MUs (1..3 supported)",
                           c, mus(c));
        }
        // The wire lag, min(broadcast time, ICN hop transfer time),
        // times every queue-slot release and spaces the fault
        // watchdog's check grid; both terms must be positive.
        if (t.instrWords == 0 || t.busCyclesPerWord == 0 ||
            controllerClockPeriod == 0)
            snap_fatal("broadcast time must be positive");
        if (t.icnBytesPerMsg == 0 || t.icnByteNs == 0)
            snap_fatal("ICN transfer time must be positive");
    }
};

} // namespace snap

#endif // SNAP_ARCH_CONFIG_HH
