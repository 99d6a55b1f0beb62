/**
 * @file
 * The retimed wire layer: every cross-endpoint interaction in the
 * machine (ICN messages, flow-control credits, instruction
 * broadcasts, barrier releases, collect readbacks) travels as a
 * time-stamped Deliverable between endpoints instead of a direct
 * call into the receiver.
 *
 * Each interaction carries its physical latency — the ICN hop
 * transfer time or the broadcast bus time — and none is shorter than
 *
 *     lag = min(broadcast time, ICN hop transfer time),
 *
 * which also times the credit returns and spaces the fault
 * watchdog's check grid (SnapMachine::runWatched).
 *
 * Determinism: each endpoint drains its pending heap in the
 * canonical order (when, kind, sender, senderSeq).  senderSeq is a
 * per-sender monotone counter, so the order is a pure function of
 * simulated history.  The drain itself runs as a wire-class event,
 * which the event queue orders ahead of all normal events at the
 * same tick.  This order is part of the simulated semantics: the
 * machine goldens (tests/test_machine_equiv.cc) pin it.
 */

#ifndef SNAP_ARCH_WIRE_HH
#define SNAP_ARCH_WIRE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "arch/message.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "runtime/results.hh"
#include "sim/event_queue.hh"

namespace snap
{

/** Instruction entry in the dual-port instruction queue. */
struct QueuedInstr
{
    Instruction instr;
    std::uint16_t seq = 0;
};

/** What a deliverable does on arrival.  The enum order is the
 *  canonical same-tick apply order — part of the machine's
 *  determinism contract, do not reorder. */
enum class WireKind : std::uint8_t
{
    IcnMsg = 0,     ///< activation message into a (cluster, dim) queue
    IcnCredit,      ///< flow-control credit back to the sending CU
    Instr,          ///< SCP broadcast landing in an instruction queue
    BarrierRelease, ///< SCP barrier-release broadcast
    InstrCredit,    ///< instruction-queue space freed, back to the SCP
    CollectReady,   ///< collect buffer shipped up to the SCP
};

/** One in-flight cross-endpoint interaction. */
struct Deliverable
{
    Tick when = 0;
    WireKind kind = WireKind::IcnMsg;
    std::uint32_t receiver = 0;   ///< endpoint id
    std::uint32_t sender = 0;     ///< endpoint id
    std::uint64_t senderSeq = 0;  ///< per-sender monotone stamp

    /** IcnMsg: arrival dimension; IcnCredit: link dimension. */
    std::uint8_t dim = 0;
    /** IcnCredit: the crediting cluster's field along dim. */
    std::uint8_t nbField = 0;

    ActivationMessage msg;        ///< IcnMsg payload
    QueuedInstr qi;               ///< Instr payload
    ClusterId cluster = 0;        ///< InstrCredit / CollectReady origin
    std::uint16_t collectSeq = 0; ///< CollectReady instruction seq
    CollectResult collect;        ///< CollectReady payload
};

/**
 * The machine's wire fabric.  Endpoints are the clusters
 * (0..numClusters-1) and the controller (endpoint numClusters).
 * Each endpoint owns a pending min-heap of deliverables plus one
 * persistent wire-class pump event on the machine's queue; the pump
 * fires at the earliest pending tick and applies everything due.
 */
class Wire
{
  public:
    using Apply = std::function<void(Deliverable &&)>;

    Wire(EventQueue &eq, std::uint32_t num_endpoints, Tick lag)
        : eq_(eq), lag_(lag), eps_(num_endpoints)
    {
        snap_assert(lag > 0, "wire lag must be positive");
    }

    /** Shortest latency of any deliverable (see the file comment). */
    Tick lag() const { return lag_; }

    /** Register endpoint @p ep's arrival callback. */
    void
    bindEndpoint(std::uint32_t ep, Apply apply)
    {
        Endpoint &e = eps_.at(ep);
        e.apply = std::move(apply);
        e.pump = std::make_unique<EventFunctionWrapper>(
            [this, ep] { pumpFire(ep); }, "wire.pump");
        e.pump->setWireClass();
        e.heap.clear();
        e.pool.clear();
        e.freeSlots.clear();
        e.pumpAt = 0;
    }

    /** Stage a deliverable for its receiver; it applies at d.when. */
    void
    send(Deliverable &&d)
    {
        snap_assert(d.receiver < eps_.size(), "wire endpoint %u",
                    d.receiver);
        Endpoint &e = eps_[d.receiver];
        Slot s;
        s.when = d.when;
        s.senderSeq = d.senderSeq;
        s.sender = d.sender;
        s.kind = static_cast<std::uint8_t>(d.kind);
        const Tick when = d.when;
        s.idx = poolPut(e, std::move(d));
        e.heap.push_back(s);
        std::push_heap(e.heap.begin(), e.heap.end(), heapCmp);
        if (!e.pump->scheduled() || when < e.pumpAt) {
            eq_.reschedule(e.pump.get(), when);
            e.pumpAt = when;
        }
    }

    /** True when nothing is in flight anywhere. */
    bool
    empty() const
    {
        for (const auto &e : eps_)
            if (!e.heap.empty())
                return false;
        return true;
    }

    /** Drop all in-flight deliverables and deschedule the pumps
     *  (wedged run teardown / repair). */
    void
    clear()
    {
        for (auto &e : eps_) {
            e.heap.clear();
            e.pool.clear();
            e.freeSlots.clear();
            if (e.pump && e.pump->scheduled())
                eq_.deschedule(e.pump.get());
        }
    }

  private:
    /**
     * Heap node: the canonical apply order's sort key plus a pool
     * index.  A
     * Deliverable is 200 bytes (three payload variants inline), so
     * sifting whole objects through push_heap/pop_heap dominated the
     * wire's host cost; the heap moves these 24-byte slots instead
     * and the payload stays put in a pooled slab.
     */
    struct Slot
    {
        Tick when;
        std::uint64_t senderSeq;
        std::uint32_t sender;
        std::uint32_t idx;        ///< pool slot holding the payload
        std::uint8_t kind;

        bool
        before(const Slot &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (kind != o.kind)
                return kind < o.kind;
            if (sender != o.sender)
                return sender < o.sender;
            return senderSeq < o.senderSeq;
        }
    };

    struct Endpoint
    {
        std::vector<Slot> heap;         ///< min-heap by before()
        /** Payload slab.  A deque, not a vector: pumpFire applies a
         *  deliverable straight out of its slot, and the receiver's
         *  callback may stage new same-endpoint traffic mid-apply —
         *  deque growth never relocates the slot being applied. */
        std::deque<Deliverable> pool;
        std::vector<std::uint32_t> freeSlots;
        std::unique_ptr<EventFunctionWrapper> pump;
        Tick pumpAt = 0;
        Apply apply;
    };

    static bool
    heapCmp(const Slot &a, const Slot &b)
    {
        // std::push_heap builds a max-heap; invert for min-first.
        return b.before(a);
    }

    static std::uint32_t
    poolPut(Endpoint &e, Deliverable &&d)
    {
        if (e.freeSlots.empty()) {
            e.pool.push_back(std::move(d));
            return static_cast<std::uint32_t>(e.pool.size() - 1);
        }
        const std::uint32_t idx = e.freeSlots.back();
        e.freeSlots.pop_back();
        // Move-assign into the parked slot: its payload vectors keep
        // their capacity, so the steady state stops allocating.
        e.pool[idx] = std::move(d);
        return idx;
    }

    void
    pumpFire(std::uint32_t ep)
    {
        Endpoint &e = eps_[ep];
        const Tick now = eq_.curTick();
        while (!e.heap.empty() && e.heap.front().when == now) {
            std::pop_heap(e.heap.begin(), e.heap.end(), heapCmp);
            const std::uint32_t idx = e.heap.back().idx;
            e.heap.pop_back();
            // Apply straight out of the pool slot — no stack copy.
            // Mid-apply sends to this endpoint reuse other free
            // slots or grow the deque; neither touches pool[idx],
            // which is only parked after the apply returns.
            e.apply(std::move(e.pool[idx]));
            e.freeSlots.push_back(idx);
        }
        if (!e.heap.empty()) {
            const Tick next = e.heap.front().when;
            snap_assert(next > now, "wire pump missed a deliverable");
            // The apply callbacks may have staged new deliverables
            // for this endpoint and rescheduled the pump already;
            // keep the earlier firing.
            if (!e.pump->scheduled() || next < e.pumpAt) {
                eq_.reschedule(e.pump.get(), next);
                e.pumpAt = next;
            }
        }
    }

    EventQueue &eq_;
    Tick lag_;
    std::vector<Endpoint> eps_;
};

} // namespace snap

#endif // SNAP_ARCH_WIRE_HH
