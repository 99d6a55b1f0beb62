/**
 * @file
 * The SNAP-1 central controller (paper §III-C, Fig. 12).
 *
 * A dual-processor design offloads control from the host: the
 * program control processor (PCP) executes application flow and
 * feeds the SNAP instruction stream through a FIFO to the sequence
 * control processor (SCP), which instantiates operands and broadcasts
 * instructions to the array.  The SCP also runs barrier detection
 * (AND-tree + tiered counter scan) and serial result collection from
 * each cluster's dual-port memory — the COLLECT overhead of Fig. 21.
 *
 * The controller is a wire endpoint like the clusters: instruction
 * broadcasts and barrier releases leave as Wire broadcasts timed
 * with the broadcast-bus latency, and collect buffers come back as
 * deliverables.  The SCP sees each cluster's instruction-queue
 * occupancy: a PU pop frees its slot one wire lag later.  When a
 * queue is full the SCP waits, with one wake at the tick the last
 * full queue frees a slot.  The controller never touches cluster
 * state directly.  Barrier completion and quiescence are *predicates
 * over the sync tree*: the machine forwards the tree's transition
 * callbacks here with the exact mutation tick t*, and the detection
 * procedure starts at t* + detection time.
 */

#ifndef SNAP_ARCH_CONTROLLER_HH
#define SNAP_ARCH_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/cluster.hh"
#include "isa/program.hh"
#include "runtime/results.hh"
#include "sim/sim_object.hh"

namespace snap
{

class Controller : public ClockedObject, public WireEndpoint
{
  public:
    Controller(MachineContext &ctx, std::uint32_t num_clusters);

    /** Begin executing @p prog (events drive it to completion). */
    void startProgram(const Program &prog);

    bool finished() const { return phase_ == Phase::Done; }

    /** Tick the program finished at (valid once finished()). */
    Tick finishTick() const { return finishTick_; }

    ResultSet takeResults() { return std::move(results_); }

    // --- wire endpoint ---------------------------------------------------
    /** A collect buffer arrived. */
    void applyDeliverable(Deliverable &&d) override;
    /** The last full instruction queue freed a slot. */
    void wake() override;
    /** A PU popped while the SCP waits for queue space. */
    void releaseRecorded() override;
    void landBroadcast(const Broadcast &b) override;

    // --- sync predicates, reported by the machine ------------------------

    /**
     * The barrier the SCP is waiting on completed at tick @p tstar
     * (the last sync-tree mutation), with @p msgs_so_far inter-cluster
     * messages sent machine-wide since the run began.  The detection
     * procedure is timed from @p tstar.
     */
    void onSyncCompleteAt(Tick tstar, std::uint64_t msgs_so_far);

    /** The array went quiescent at tick @p tstar while draining. */
    void onQuiescentAt(Tick tstar);

  private:
    enum class Phase
    {
        Idle,
        Issue,
        Broadcasting,
        BarrierWait,
        BarrierDetect,
        BarrierRelease,
        CollectWait,
        CollectRead,
        Drain,
        Done
    };

    void kickScp();
    void broadcastDone();
    void detectionDone();
    void releaseDone();
    void collectAdvance();
    void collectReadDone();
    void finishProgram(Tick when);
    /** Cluster r.sender's instruction queue freed a slot. */
    void slotFreed(const Release &r);
    /** Fold the instruction-queue slots freed by now. */
    void foldFreedSlots();
    /** Some queue is full: wait until every full queue has freed a
     *  slot (the wake is armed once each has a release pending). */
    void awaitQueueSpace();

    Tick ctrlCy(std::uint64_t cycles) const
    {
        return cyclesToTicks(cycles);
    }
    Tick broadcastTicks() const
    {
        return ctrlCy(static_cast<std::uint64_t>(t_.instrWords) *
                      t_.busCyclesPerWord);
    }
    /** Tick at which the PCP has instruction @p i ready. */
    Tick
    pcpReady(std::size_t i) const
    {
        return programStart_ +
               ctrlCy(static_cast<std::uint64_t>(i + 1) *
                      t_.pcpIssueCycles);
    }

    MachineContext &ctx_;
    const TimingParams &t_;
    const std::uint32_t numClusters_;

    const Program *prog_ = nullptr;
    std::size_t instrIdx_ = 0;
    Phase phase_ = Phase::Idle;
    Tick programStart_ = 0;
    Tick finishTick_ = 0;

    /** Free instruction-queue slots per cluster as the SCP sees them
     *  (the global bus stalls while any queue is full). */
    std::vector<std::uint32_t> instrFree_;

    // Collect state: parts stream in over the wire and are consumed
    // in cluster order.
    std::uint16_t collectSeq_ = 0;
    std::uint32_t collectTarget_ = 0;
    CollectResult collectAggregate_;
    std::vector<CollectResult> collectParts_;
    std::vector<bool> collectHave_;

    // Epoch bookkeeping for the Fig. 8 series.
    std::uint64_t epochStartMsgs_ = 0;
    std::uint64_t pendingEpochMsgs_ = 0;
    /** Tick the current barrier epoch entered BarrierWait (trace
     *  span anchor). */
    Tick barrierStart_ = 0;
    /** Tick the SCP entered Drain (lower bound for the finish tick). */
    Tick drainEntry_ = 0;

    ResultSet results_;

    std::unique_ptr<EventFunctionWrapper> scpEvent_;
    std::unique_ptr<EventFunctionWrapper> kickEvent_;
};

} // namespace snap

#endif // SNAP_ARCH_CONTROLLER_HH
