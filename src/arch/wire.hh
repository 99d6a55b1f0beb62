/**
 * @file
 * The retimed wire layer: every cross-endpoint interaction in the
 * machine travels through it instead of a direct call into the
 * receiver.  Three things cross it:
 *
 *  - Deliverables, time-stamped payloads: ICN activation messages
 *    (IcnMsg) and collect buffers shipped up to the SCP
 *    (CollectReady).
 *  - Broadcasts from the SCP over the global bus: an instruction
 *    landing in every instruction queue, or a barrier release.  One
 *    broadcast is one wire-class event that visits the clusters in
 *    order 0..N-1.
 *  - Slot releases.  ICN links and instruction queues are four-port
 *    and dual-port memories with single-reader/single-writer queue
 *    regions: the writer sees how full a region is and nothing
 *    travels back.  When a reader pops, the slot frees one wire lag
 *    later (release()), and the writer reads that occupancy when it
 *    needs it (foldReleases()).  Only a writer that is waiting for
 *    space schedules anything: a wake at a release tick (wait()).
 *
 * Each interaction carries its physical latency — the ICN hop
 * transfer time or the broadcast bus time — and none is shorter than
 *
 *     lag = min(broadcast time, ICN hop transfer time),
 *
 * which also times every slot release and spaces the fault
 * watchdog's check grid (SnapMachine::runWatched).
 *
 * Determinism: at one tick, each endpoint takes what is due in the
 * canonical order
 *
 *     IcnMsg arrivals (by sender, senderSeq)
 *     -> slot releases (by sender) and the endpoint's wake
 *     -> the broadcast landing
 *     -> CollectReady arrivals (by sender, senderSeq).
 *
 * A release due at tick T is invisible to foldReleases() while the
 * endpoint's T arrivals apply, and while its wake runs (a wake takes
 * them with takeRelease(); a stalled CU takes one per CU step); it is
 * visible from then on.  senderSeq is a per-sender monotone counter,
 * so the order is a pure function of simulated history.  All of
 * this runs in wire-class events, which the event queue orders
 * ahead of every normal event at the same tick.  The order of
 * endpoints within one tick is not part of the semantics: endpoints
 * interact only through the wire, at least one lag apart.  The
 * per-endpoint order is, and the machine goldens
 * (tests/test_machine_equiv.cc) pin it.
 */

#ifndef SNAP_ARCH_WIRE_HH
#define SNAP_ARCH_WIRE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
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
    IcnMsg = 0,   ///< activation message into a (cluster, dim) queue
    CollectReady, ///< collect buffer shipped up to the SCP
};

/** One in-flight cross-endpoint interaction. */
struct Deliverable
{
    Tick when = 0;
    WireKind kind = WireKind::IcnMsg;
    std::uint32_t receiver = 0;   ///< endpoint id
    std::uint32_t sender = 0;     ///< endpoint id
    std::uint64_t senderSeq = 0;  ///< per-sender monotone stamp

    std::uint8_t dim = 0;         ///< IcnMsg: arrival dimension
    ActivationMessage msg;        ///< IcnMsg payload
    std::uint16_t collectSeq = 0; ///< CollectReady instruction seq
    CollectResult collect;        ///< CollectReady payload
};

/** One SCP broadcast over the global bus. */
struct Broadcast
{
    /** A barrier release; otherwise an instruction landing in every
     *  instruction queue. */
    bool barrierRelease = false;
    QueuedInstr qi;  ///< the instruction (when !barrierRelease)
};

/** A queue slot a reader freed, as its writer sees it. */
struct Release
{
    Tick when = 0;              ///< the slot is free from this tick
    std::uint32_t sender = 0;   ///< the endpoint that popped
    std::uint32_t slot = 0;     ///< which of the writer's regions
};

/** What the wire calls back into: the clusters and the controller. */
class WireEndpoint
{
  public:
    /** Apply one arrived deliverable. */
    virtual void applyDeliverable(Deliverable &&d) = 0;

    /** The wake armed with Wire::wait() is due.  Runs after this
     *  tick's IcnMsg arrivals, with this tick's releases still
     *  hidden from foldReleases(). */
    virtual void wake() = 0;

    /** A release for this endpoint was recorded while it waits
     *  (Wire::wait()); the hook re-arms the wake. */
    virtual void releaseRecorded() = 0;

    /** A broadcast landed (clusters only). */
    virtual void landBroadcast(const Broadcast &b) = 0;

  protected:
    ~WireEndpoint() = default;
};

/**
 * The machine's wire fabric.  Endpoints are the clusters
 * (0..numClusters-1) and the controller (endpoint numClusters, the
 * last); broadcasts land on every endpoint but the last.  Each
 * endpoint owns a pending min-heap of deliverables, its releases in
 * (when, sender) order, and one persistent wire-class pump event on
 * the machine's queue; the pump fires at the earliest pending
 * arrival or armed wake and settles everything due.
 */
class Wire
{
  public:
    Wire(EventQueue &eq, std::uint32_t num_endpoints, Tick lag)
        : eq_(eq), lag_(lag), eps_(num_endpoints)
    {
        snap_assert(lag > 0, "wire lag must be positive");
        bcastEvent_ = std::make_unique<EventFunctionWrapper>(
            [this] { landBroadcast(); }, "wire.broadcast");
        bcastEvent_->setWireClass();
    }

    /** Shortest latency of any interaction (see the file comment). */
    Tick lag() const { return lag_; }

    /** Register endpoint @p ep. */
    void
    bindEndpoint(std::uint32_t ep, WireEndpoint *endpoint)
    {
        Endpoint &e = eps_.at(ep);
        e.ep = endpoint;
        e.pump = std::make_unique<EventFunctionWrapper>(
            [this, ep] { pumpFire(ep); }, "wire.pump");
        e.pump->setWireClass();
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
        pumpNoLaterThan(e, when);
    }

    /** Land @p b on every cluster at @p when.  The SCP serializes
     *  its broadcasts: one is in flight at a time. */
    void
    broadcast(Tick when, const Broadcast &b)
    {
        snap_assert(!bcastEvent_->scheduled(),
                    "broadcast while another is in flight");
        bcast_ = b;
        eq_.schedule(bcastEvent_.get(), when);
    }

    // --- slot releases --------------------------------------------------

    /** Endpoint @p sender popped a slot of @p owner's region
     *  @p slot: it frees one lag from now. */
    void
    release(std::uint32_t owner, std::uint32_t sender,
            std::uint32_t slot)
    {
        Endpoint &e = eps_.at(owner);
        const Tick now = eq_.curTick();
        const Release r{now + lag_, sender, slot};
        // Every release is due one lag after it is recorded and time
        // never runs backwards, so appending keeps `when` order; a
        // short walk back orders same-tick releases by sender.
        auto it = e.releases.end();
        while (it != e.releases.begin() && std::prev(it)->when == r.when &&
               std::prev(it)->sender > sender)
            --it;
        e.releases.insert(it, r);
        while (!inFlight_.empty() && inFlight_.front() <= now)
            inFlight_.pop_front();
        inFlight_.push_back(r.when);
        if (e.waiting)
            e.ep->releaseRecorded();
    }

    /** Hand every release of @p ep visible now to @p fn(const
     *  Release &) and drop it (see the file comment). */
    template <typename Fn>
    void
    foldReleases(std::uint32_t ep, Fn &&fn)
    {
        Endpoint &e = eps_[ep];
        const Tick now = eq_.curTick();
        while (!e.releases.empty() &&
               (e.releases.front().when < now ||
                (e.releases.front().when == now && !e.settling))) {
            fn(e.releases.front());
            e.releases.pop_front();
        }
    }

    /** Pop @p ep's next release due now or earlier into @p r, hidden
     *  or not; false when there is none. */
    bool
    takeRelease(std::uint32_t ep, Release &r)
    {
        Endpoint &e = eps_[ep];
        if (e.releases.empty() ||
            e.releases.front().when > eq_.curTick())
            return false;
        r = e.releases.front();
        e.releases.pop_front();
        return true;
    }

    /** @p ep's releases not yet folded, in (when, sender) order. */
    const std::deque<Release> &
    releases(std::uint32_t ep) const
    {
        return eps_[ep].releases;
    }

    /**
     * Endpoint @p ep waits for space: every release recorded for it
     * from now on calls its releaseRecorded() hook, and its wake()
     * runs at tick @p at (maxTick: not yet known).  An earlier armed
     * wake stands.  The wake disarms both.
     */
    void
    wait(std::uint32_t ep, Tick at)
    {
        Endpoint &e = eps_[ep];
        e.waiting = true;
        if (at >= e.wakeAt)
            return;
        snap_assert(at >= eq_.curTick(), "wake armed in the past");
        e.wakeAt = at;
        pumpNoLaterThan(e, at);
    }

    // --- release retirement (simulated time) ----------------------------

    /** Tick of the earliest release not yet retired (maxTick when
     *  none): the fault watchdog's grid steps to it like to an event. */
    Tick
    nextRelease() const
    {
        return inFlight_.empty() ? maxTick : inFlight_.front();
    }

    /** Retire every release due before @p limit; @return the latest
     *  retired tick (0 when none), where simulated time has reached. */
    Tick
    retireBefore(Tick limit)
    {
        Tick last = 0;
        while (!inFlight_.empty() && inFlight_.front() < limit) {
            last = inFlight_.front();
            inFlight_.pop_front();
        }
        return last;
    }

    /** True when nothing is in flight anywhere: no deliverable, no
     *  broadcast, and no release still ahead of the clock. */
    bool
    empty() const
    {
        if (bcastEvent_->scheduled())
            return false;
        if (!inFlight_.empty() && inFlight_.back() > eq_.curTick())
            return false;
        for (const auto &e : eps_)
            if (!e.heap.empty())
                return false;
        return true;
    }

    /** Drop everything in flight and deschedule the wire's events
     *  (wedged run teardown / repair). */
    void
    clear()
    {
        for (auto &e : eps_) {
            e.heap.clear();
            e.pool.clear();
            e.freeSlots.clear();
            e.releases.clear();
            e.waiting = false;
            e.wakeAt = maxTick;
            if (e.pump && e.pump->scheduled())
                eq_.deschedule(e.pump.get());
        }
        inFlight_.clear();
        if (bcastEvent_->scheduled())
            eq_.deschedule(bcastEvent_.get());
    }

  private:
    /**
     * Heap node: the canonical apply order's sort key plus a pool
     * index.  A Deliverable is 160 bytes (both payload variants
     * inline), so sifting whole objects through push_heap/pop_heap
     * would dominate the wire's host cost; the heap moves these
     * 24-byte slots instead and the payload stays put in a pooled
     * slab.
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
        WireEndpoint *ep = nullptr;
        std::vector<Slot> heap;         ///< min-heap by before()
        /** Payload slab.  A deque, not a vector: settle() applies a
         *  deliverable straight out of its slot, and the receiver's
         *  callback may stage new same-endpoint traffic mid-apply —
         *  deque growth never relocates the slot being applied. */
        std::deque<Deliverable> pool;
        std::vector<std::uint32_t> freeSlots;
        /** Releases not yet folded, in (when, sender) order. */
        std::deque<Release> releases;
        /** Waiting for space (see wait()). */
        bool waiting = false;
        /** Armed wake tick, or maxTick. */
        Tick wakeAt = maxTick;
        /** Arrivals or the wake are being applied: releases due now
         *  are hidden from foldReleases(). */
        bool settling = false;
        std::unique_ptr<EventFunctionWrapper> pump;
        Tick pumpAt = 0;
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

    /** Make the pump fire at @p when unless it fires sooner. */
    void
    pumpNoLaterThan(Endpoint &e, Tick when)
    {
        if (!e.pump->scheduled() || when < e.pumpAt) {
            eq_.reschedule(e.pump.get(), when);
            e.pumpAt = when;
        }
    }

    /** Apply @p e's deliverables due now of kind <= @p last_kind. */
    void
    applyDue(Endpoint &e, Tick now, WireKind last_kind)
    {
        const auto last = static_cast<std::uint8_t>(last_kind);
        while (!e.heap.empty() && e.heap.front().when == now &&
               e.heap.front().kind <= last) {
            std::pop_heap(e.heap.begin(), e.heap.end(), heapCmp);
            const std::uint32_t idx = e.heap.back().idx;
            e.heap.pop_back();
            // Apply straight out of the pool slot — no stack copy.
            // Mid-apply sends to this endpoint reuse other free
            // slots or grow the deque; neither touches pool[idx],
            // which is only parked after the apply returns.
            e.ep->applyDeliverable(std::move(e.pool[idx]));
            e.freeSlots.push_back(idx);
        }
    }

    /** Take everything due now at endpoint @p ep in canonical order,
     *  up to (not including) a broadcast landing. */
    void
    settle(std::uint32_t ep)
    {
        Endpoint &e = eps_[ep];
        const Tick now = eq_.curTick();
        e.settling = true;
        applyDue(e, now, WireKind::IcnMsg);
        // The wake may re-arm itself at this tick (a CU taking
        // same-tick releases one at a time).
        while (e.wakeAt == now) {
            e.wakeAt = maxTick;
            e.waiting = false;
            e.ep->wake();
        }
        e.settling = false;
    }

    /** Re-aim @p e's pump at its next arrival or wake, or park it. */
    void
    schedulePump(Endpoint &e)
    {
        const Tick next = std::min(
            e.heap.empty() ? maxTick : e.heap.front().when, e.wakeAt);
        snap_assert(next > eq_.curTick(),
                    "wire pump missed a deliverable");
        if (next == maxTick) {
            if (e.pump->scheduled())
                eq_.deschedule(e.pump.get());
        } else if (!e.pump->scheduled() || e.pumpAt != next) {
            eq_.reschedule(e.pump.get(), next);
            e.pumpAt = next;
        }
    }

    void
    pumpFire(std::uint32_t ep)
    {
        Endpoint &e = eps_[ep];
        settle(ep);
        applyDue(e, eq_.curTick(), WireKind::CollectReady);
        schedulePump(e);
    }

    /** The broadcast event: each cluster in order first takes what
     *  is due to it this tick, then the broadcast. */
    void
    landBroadcast()
    {
        for (std::uint32_t c = 0; c + 1 < eps_.size(); ++c) {
            Endpoint &e = eps_[c];
            settle(c);
            e.ep->landBroadcast(bcast_);
            // Only the controller receives CollectReady, so nothing
            // of this cluster's is left at this tick.
            schedulePump(e);
        }
    }

    EventQueue &eq_;
    Tick lag_;
    std::vector<Endpoint> eps_;
    Broadcast bcast_;
    std::unique_ptr<EventFunctionWrapper> bcastEvent_;
    /** Due ticks of the releases not yet retired, in order. */
    std::deque<Tick> inFlight_;
};

} // namespace snap

#endif // SNAP_ARCH_WIRE_HH
