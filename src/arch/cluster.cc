#include "arch/cluster.hh"

#include <algorithm>

#include "common/host_prof.hh"
#include "runtime/propagate.hh"
#include "trace/trace.hh"

namespace snap
{

namespace
{

/** Mirror an ActiveTimer union-interval transition as a trace B/E
 *  pair on the per-category instr track, so summed span durations
 *  equal ExecBreakdown::categoryTicks exactly. */
inline void
traceCatStart(std::uint32_t pid, InstrCategory cat, Tick now)
{
    trace::simBegin(trace::kInstr, pid,
                    trace::tidInstr(static_cast<std::uint32_t>(cat)),
                    categoryName(cat), now);
}

inline void
traceCatStop(std::uint32_t pid, InstrCategory cat, Tick now)
{
    trace::simEnd(trace::kInstr, pid,
                  trace::tidInstr(static_cast<std::uint32_t>(cat)),
                  categoryName(cat), now);
}

} // namespace

Cluster::Cluster(MachineContext &ctx, ClusterId id,
                 std::uint32_t num_mus, std::uint32_t pe_base)
    : ClockedObject(ctx.eq, ctx.cfg->arrayClockPeriod),
      ctx_(ctx),
      id_(id),
      peBase_(pe_base),
      kb_(ctx.image->cluster(id)),
      t_(ctx.cfg->t),
      instrQueue_(t_.instrQueueDepth),
      taskQueue_(t_.taskQueueDepth),
      activationOut_(t_.activationOutDepth),
      arbiter_(0x5eed0000ull + id)
{
    puEvent_ = std::make_unique<EventFunctionWrapper>(
        [this] { puFinish(); }, formatString("cluster%u.pu", id));
    cuEvent_ = std::make_unique<EventFunctionWrapper>(
        [this] { finishCu(); }, formatString("cluster%u.cu", id));

    mus_.resize(num_mus);
    for (std::uint32_t i = 0; i < num_mus; ++i) {
        mus_[i].doneEvent = std::make_unique<EventFunctionWrapper>(
            [this, i] { finishMu(i); },
            formatString("cluster%u.mu%u", id, i));
    }

    // Sender-side flow control: every outgoing link starts with the
    // neighbor's full port-memory capacity.
    credits_.fill(t_.icnMailboxDepth);
}

// ---------------------------------------------------------------------------
// Wire interface
// ---------------------------------------------------------------------------

void
Cluster::applyDeliverable(Deliverable &&d)
{
    snap_assert(d.kind == WireKind::IcnMsg,
                "cluster %u: bad deliverable kind %u", id_,
                static_cast<unsigned>(d.kind));
    dimInbox_[d.dim].push_back(std::move(d.msg));
    kickCu();
}

void
Cluster::wake()
{
    // The CU stalled on a full neighbor port memory.  Take this
    // tick's releases one at a time, each followed by a CU step: a
    // step that still finds a source blocked counts it again and
    // re-arms the wake at this tick for the next release.
    Release r;
    if (!ctx_.wire->takeRelease(id_, r))
        return;
    ++credits_[r.slot];
    kickCu();
}

void
Cluster::releaseRecorded()
{
    awaitSlotRelease();
}

void
Cluster::landBroadcast(const Broadcast &b)
{
    if (b.barrierRelease)
        releaseBarrier();
    else
        enqueueInstr(b.qi);
}

void
Cluster::enqueueInstr(const QueuedInstr &qi)
{
    snap_assert(!instrQueue_.full(),
                "broadcast into full instruction queue (cluster %u); "
                "the SCP must wait for a free slot", id_);
    instrQueue_.push(qi);
    updateIdle();
    kickPu();
}

void
Cluster::releaseBarrier()
{
    snap_assert(atBarrier_, "barrier release while not at barrier "
                "(cluster %u)", id_);
    atBarrier_ = false;
    ctx_.sync->setAtBarrier(id_, false, curTick());
    kickPu();
    updateIdle();
}

void
Cluster::resetForRun()
{
    snap_assert(localIdle() || instrQueue_.empty(),
                "resetForRun on a busy cluster %u", id_);
    best_.clear();
    collects_.clear();
    atBarrier_ = false;
    puStalled_ = false;
    idleLine_ = -1;
    icnDelta_.reset();
    msgLatency_.reset();
}

// ---------------------------------------------------------------------------
// Idle tracking
// ---------------------------------------------------------------------------

bool
Cluster::localIdle() const
{
    if (puBusy_ || puStalled_ || cuBusy_ || busyMus_ != 0)
        return false;
    if (tasksOutstanding_ != 0 || !taskQueue_.empty())
        return false;
    if (!localWork_.empty() || !arrivals_.empty() ||
        !activationOut_.empty())
        return false;
    // At a barrier, post-barrier instructions may legitimately wait
    // in the queue; otherwise the queue must be drained too.
    if (!atBarrier_ && !instrQueue_.empty())
        return false;
    return true;
}

void
Cluster::updateIdle()
{
    const std::int8_t idle = localIdle() ? 1 : 0;
    if (idle == idleLine_)
        return;
    hostprof::Scope hp(hostprof::Phase::Sync);
    idleLine_ = idle;
    ctx_.sync->setIdle(id_, idle != 0, curTick());
}

// ---------------------------------------------------------------------------
// Processing unit
// ---------------------------------------------------------------------------

void
Cluster::kickPu()
{
    // A dead cluster's units stop dequeuing work: queued instructions
    // and pending messages pile up, and the array wedges at the next
    // barrier or drain — the failure mode the sync-tree watchdog is
    // there to catch.
    if (ctx_.faults && ctx_.faults->clusterDead(id_))
        return;
    if (puBusy_ || puStalled_ || atBarrier_ || instrQueue_.empty())
        return;
    pendingInstr_ = instrQueue_.pop();
    // The SCP sees the freed slot one wire lag later.
    ctx_.wire->release(ctx_.cfg->numClusters, id_, id_);

    // Decode, then, on a cluster that acts on the instruction, enqueue
    // its task into the marker processing memory (point-to-point
    // control over the multiport memory).  Nothing outside the PU sees
    // the boundary between the two stages, so they are one occupancy:
    // busy time is charged and the decode record stamped here.
    const Instruction &instr = pendingInstr_.instr;
    const Tick decode = cy(t_.puDecodeCycles);
    Tick dur = decode;
    if (instr.op != Opcode::Barrier && participates(instr))
        dur += cy(t_.puDispatchCycles);

    puBusy_ = true;
    InstrCategory cat = instr.category();
    if (ctx_.stats->categoryTimer.start(cat, curTick()) &&
        SNAP_TRACE_ON(trace::kInstr))
        traceCatStart(ctx_.tracePid, cat, curTick());
    ctx_.stats->categoryBusy[static_cast<std::size_t>(cat)] += dur;
    ctx_.stats->puBusyTicks += dur;
    if (ctx_.perf)
        ctx_.perf->emit(peBase_, curTick() + decode,
                        PerfEvent::InstrDecoded, pendingInstr_.seq);
    scheduleRel(puEvent_.get(), dur);
    updateIdle();
}

void
Cluster::puFinish()
{
    const Instruction &instr = pendingInstr_.instr;
    InstrCategory cat = instr.category();
    if (ctx_.stats->categoryTimer.stop(cat, curTick()) &&
        SNAP_TRACE_ON(trace::kInstr))
        traceCatStop(ctx_.tracePid, cat, curTick());
    puBusy_ = false;

    if (instr.op == Opcode::Barrier) {
        atBarrier_ = true;
        if (ctx_.perf)
            ctx_.perf->emit(peBase_, curTick(),
                            PerfEvent::BarrierReached,
                            pendingInstr_.seq);
        ctx_.sync->setAtBarrier(id_, true, curTick());
        updateIdle();
        return;
    }

    if (participates(instr) && !tryDispatch()) {
        puStalled_ = true;
        updateIdle();
        return;
    }
    kickPu();
    updateIdle();
}

bool
Cluster::participates(const Instruction &instr) const
{
    switch (instr.op) {
      case Opcode::Create:
      case Opcode::Delete:
      case Opcode::SetColor:
      case Opcode::SetWeight:
      case Opcode::SearchNode:
        return ctx_.image->place(instr.node).cluster == id_;
      default:
        return true;
    }
}

bool
Cluster::tryDispatch()
{
    if (taskQueue_.full())
        return false;
    Task task;
    task.instr = pendingInstr_.instr;
    task.seq = pendingInstr_.seq;
    task.ordered = pendingInstr_.instr.op != Opcode::Propagate;
    taskQueue_.push(task);
    kickMus();
    return true;
}

// ---------------------------------------------------------------------------
// Marker units
// ---------------------------------------------------------------------------

void
Cluster::kickMus()
{
    // Nothing a marker unit could start: skip the per-MU scan.
    if (arrivals_.empty() && localWork_.empty() && taskQueue_.empty())
        return;
    if (ctx_.faults && ctx_.faults->clusterDead(id_))
        return;
    for (std::uint32_t i = 0; i < mus_.size(); ++i)
        tryStartMu(i);
}

void
Cluster::tryStartMu(std::uint32_t i)
{
    MuState &mu = mus_[i];
    if (mu.busy)
        return;

    if (!arrivals_.empty()) {
        startArrival(i);
        return;
    }
    if (!localWork_.empty()) {
        startExpansion(i);
        return;
    }
    if (!taskQueue_.empty()) {
        const Task &head = taskQueue_.front();
        bool startable = head.ordered ? tasksOutstanding_ == 0
                                      : orderedOutstanding_ == 0;
        if (startable) {
            startTask(i);
            return;
        }
    }
}

void
Cluster::startArrival(std::uint32_t i)
{
    MuState &mu = mus_[i];
    ActivationMessage msg = arrivals_.front();
    arrivals_.pop_front();

    mu.busy = true;
    ++busyMus_;
    mu.hasTask = false;
    mu.expanding = false;
    mu.maintaining = false;
    mu.consumeOnDone = true;
    mu.consumeLevel = msg.syncLevel;
    mu.accum = cy(t_.muArrivalCycles);

    ++ctx_.stats->arrivalsProcessed;
    if (ctx_.perf)
        ctx_.perf->emit(peBase_ + 1 + i, curTick(),
                        PerfEvent::MsgReceived,
                        static_cast<std::uint32_t>(msg.destLocal));

    switch (msg.kind) {
      case MsgKind::MarkerDeliver:
        mu.cat = InstrCategory::Propagation;
        deliverMarker(msg.destLocal, msg.marker, msg.value,
                      msg.origin, msg.func, msg.propId, msg.ruleState,
                      msg.steps, msg.rule, mu.accum);
        break;
      case MsgKind::LinkCreate: {
        mu.cat = InstrCategory::MarkerMaintenance;
        Placement p = ctx_.image->place(msg.linkOther);
        kb_.addSlot(msg.destLocal,
                    RelSlot{msg.linkRel, p.cluster, p.local,
                            msg.linkOther, 0.0f});
        mu.accum += cy(t_.muLinkEditCycles);
        break;
      }
      case MsgKind::LinkDelete:
        mu.cat = InstrCategory::MarkerMaintenance;
        kb_.removeSlot(msg.destLocal, msg.linkRel, msg.linkOther);
        mu.accum += cy(t_.muLinkEditCycles);
        break;
    }

    if (ctx_.stats->categoryTimer.start(mu.cat, curTick()) &&
        SNAP_TRACE_ON(trace::kInstr))
        traceCatStart(ctx_.tracePid, mu.cat, curTick());
    scheduleMuDone(i);
}

void
Cluster::startExpansion(std::uint32_t i)
{
    MuState &mu = mus_[i];
    mu.busy = true;
    ++busyMus_;
    mu.hasTask = false;
    mu.expanding = true;
    mu.maintaining = false;
    mu.consumeOnDone = false;
    mu.item = localWork_.front();
    localWork_.pop_front();
    mu.slotIdx = mu.item.rowStart;
    mu.accum = cy(t_.muWorkClaimCycles + t_.muRelRowCycles);
    mu.cat = InstrCategory::Propagation;

    ++ctx_.stats->expansions;
    if (ctx_.stats->categoryTimer.start(mu.cat, curTick()) &&
        SNAP_TRACE_ON(trace::kInstr))
        traceCatStart(ctx_.tracePid, mu.cat, curTick());

    // This item covers one 16-slot relation row.  Fanout beyond it
    // lives in subnode rows (the preprocessor's splitting), each its
    // own work item claimable by any available MU — high-fanout nodes
    // expand in parallel.
    std::size_t row_end = mu.item.rowStart +
                          capacity::relationSlotsPerNode;
    if (row_end < kb_.slots(mu.item.node).size()) {
        WorkItem next = mu.item;
        next.rowStart = static_cast<std::uint32_t>(row_end);
        localWork_.push_back(next);
        kickMus();
    }

    if (continueExpansion(i))
        scheduleMuDone(i);
    // else: stalled on the activation-out queue; resumed by the CU.
}

bool
Cluster::continueExpansion(std::uint32_t i)
{
    hostprof::Scope hp(hostprof::Phase::Kernels);
    MuState &mu = mus_[i];
    WorkItem &w = mu.item;
    const PropRule &rule = ctx_.rules->rule(w.rule);
    const auto &slots = kb_.slots(w.node);
    std::uint32_t row_end = static_cast<std::uint32_t>(
        std::min<std::size_t>(
            w.rowStart + capacity::relationSlotsPerNode,
            slots.size()));

    std::vector<std::uint8_t> &nexts = mu.nexts;
    while (mu.slotIdx < row_end) {
        const RelSlot &s = slots[mu.slotIdx];
        nexts.clear();
        rule.step(w.state, s.rel, nexts);

        if (nexts.empty()) {
            mu.accum += cy(t_.muSlotCycles);
            ++mu.slotIdx;
            continue;
        }

        bool remote = s.destCluster != id_;
        if (remote &&
            activationOut_.size() + nexts.size() >
                activationOut_.capacity()) {
            // Burst: the interconnect cannot absorb the messages;
            // the sending processor blocks (paper §II-C).
            activationOut_.noteBlocked();
            outWaiters_.push_back(i);
            return false;
        }

        mu.accum += cy(t_.muSlotCycles);
        float nv = applyStep(w.func, w.value, s.weight);
        auto nsteps = static_cast<std::uint16_t>(w.steps + 1);
        if (nsteps > ctx_.stats->maxDepth)
            ctx_.stats->maxDepth = nsteps;
        ctx_.stats->linkTraversals += nexts.size();

        if (!remote) {
            // Merge once, then consider continuation per state.
            Tick merge_dur = 0;
            bool first = true;
            for (std::uint8_t ns : nexts) {
                if (first) {
                    deliverMarker(s.destLocal, w.m2, nv, w.origin,
                                  w.func, w.propId, ns, nsteps,
                                  w.rule, merge_dur);
                    first = false;
                } else {
                    // Additional NFA states: continuation check only
                    // (the marker itself is already merged).
                    Tick extra = 0;
                    deliverMarker(s.destLocal, w.m2, nv, w.origin,
                                  w.func, w.propId, ns, nsteps,
                                  w.rule, extra);
                    merge_dur += extra;
                }
            }
            ++ctx_.stats->localDeliveries;
            mu.accum += merge_dur;
        } else {
            for (std::uint8_t ns : nexts) {
                ActivationMessage msg;
                msg.kind = MsgKind::MarkerDeliver;
                msg.destCluster = s.destCluster;
                msg.destLocal = s.destLocal;
                msg.marker = w.m2;
                msg.value = nv;
                msg.origin = w.origin;
                msg.rule = w.rule;
                msg.ruleState = ns;
                msg.steps = nsteps;
                msg.func = w.func;
                msg.propId = w.propId;
                msg.syncLevel = SyncTree::level(nsteps);
                bool ok = emitMessage(msg, mu.accum);
                snap_assert(ok, "emitMessage failed after space "
                            "check");
            }
        }
        ++mu.slotIdx;
    }
    return true;
}

void
Cluster::deliverMarker(LocalNodeId dst, MarkerId m2, float value,
                       NodeId origin, MarkerFunc func,
                       std::uint16_t prop_id, std::uint8_t state,
                       std::uint16_t steps, RuleId rule, Tick &dur)
{
    hostprof::Scope hp(hostprof::Phase::Markers);
    // Type-1 traffic: shared marker bits go through the semaphore
    // table arbiter.  Only the in-use-flag critical section is
    // serialized; the delivery microcode itself proceeds
    // concurrently through the four-port memory (CREW access).
    Tick hold = cy(t_.muLockCycles);
    Tick grant = arbiter_.acquire(curTick(), hold);
    // Semaphore fault: this grant fails to release on time, so later
    // acquires queue behind the stuck hold (timing-only).
    if (ctx_.faults && ctx_.faults->rollSemStall(id_)) {
        arbiter_.stall(curTick(), ctx_.faults->spec().semStallTicks);
        if (SNAP_TRACE_ON(trace::kFault)) {
            trace::simInstant(trace::kFault, ctx_.tracePid,
                              trace::tidSem(id_), "fault.sem_stall",
                              curTick());
        }
    }
    if (grant > curTick() && SNAP_TRACE_ON(trace::kSem)) {
        trace::simSpan(trace::kSem, ctx_.tracePid,
                       trace::tidSem(id_), "sem.wait", curTick(),
                       grant);
    }
    dur += (grant - curTick()) + hold + cy(t_.muLocalDeliverCycles);

    MarkerStore &ms = kb_.markers();
    bool already = ms.test(m2, dst);
    if (!already) {
        ms.set(m2, dst, value, origin);
        if (isComplexMarker(m2))
            dur += cy(t_.muValueOpCycles);
    } else if (betterArrival(func, value, origin, ms.value(m2, dst),
                             ms.origin(m2, dst))) {
        ms.setValue(m2, dst, value, origin);
        if (isComplexMarker(m2))
            dur += cy(t_.muValueOpCycles);
    }

    // Continuation: only on first arrival or strict improvement at
    // this (propagation, node, rule-state).
    const PropRule &r = ctx_.rules->rule(rule);
    if (!r.live(state) || steps >= r.maxSteps)
        return;

    std::uint64_t key = bestKey(prop_id, dst, state);
    if (!frontierAdmit(func, best_[key],
                       PropLabel{value, origin, steps}))
        return;

    WorkItem item;
    item.node = dst;
    item.state = state;
    item.value = value;
    item.origin = origin;
    item.steps = steps;
    item.rule = rule;
    item.m2 = m2;
    item.func = func;
    item.propId = prop_id;
    localWork_.push_back(item);
    kickMus();
}

bool
Cluster::emitMessage(const ActivationMessage &msg, Tick &dur)
{
    if (activationOut_.full())
        return false;
    dur += cy(t_.muMsgWriteCycles);
    activationOut_.push(msg);
    kickCu();
    return true;
}

void
Cluster::startTask(std::uint32_t i)
{
    MuState &mu = mus_[i];
    Task task = taskQueue_.pop();

    mu.busy = true;
    ++busyMus_;
    mu.hasTask = true;
    mu.task = task;
    mu.expanding = false;
    mu.maintaining = false;
    mu.consumeOnDone = false;
    mu.cat = task.instr.category();

    ++tasksOutstanding_;
    if (task.ordered)
        ++orderedOutstanding_;

    if (ctx_.stats->categoryTimer.start(mu.cat, curTick()) &&
        SNAP_TRACE_ON(trace::kInstr))
        traceCatStart(ctx_.tracePid, mu.cat, curTick());
    if (ctx_.perf)
        ctx_.perf->emit(peBase_ + 1 + i, curTick(),
                        PerfEvent::TaskStart, task.seq);

    if (task.instr.op == Opcode::MarkerCreate ||
        task.instr.op == Opcode::MarkerDelete) {
        // Resumable: reverse links to remote end nodes travel as
        // messages and may block on a full activation-out queue.
        mu.maintaining = true;
        mu.maintIdx = 0;
        mu.maintNodes.clear();
        kb_.markers().bits(task.instr.m1).collect(mu.maintNodes);
        mu.accum = cy(t_.muTaskSetupCycles +
                      statusWords() * t_.muWordOpCycles);
        if (continueMaintenance(i))
            scheduleMuDone(i);
        return;
    }

    mu.accum = executeTask(i, task);
    scheduleMuDone(i);
}

bool
Cluster::continueMaintenance(std::uint32_t i)
{
    MuState &mu = mus_[i];
    const Instruction &instr = mu.task.instr;
    bool creating = instr.op == Opcode::MarkerCreate;
    Placement end_place = ctx_.image->place(instr.endNode);

    while (mu.maintIdx < mu.maintNodes.size()) {
        LocalNodeId l = mu.maintNodes[mu.maintIdx];
        NodeId g = kb_.globalId(l);
        bool end_local = end_place.cluster == id_;

        if (!end_local && activationOut_.full()) {
            activationOut_.noteBlocked();
            outWaiters_.push_back(i);
            return false;
        }

        // Forward link: local node -> end node.
        if (creating) {
            kb_.addSlot(l, RelSlot{instr.rel, end_place.cluster,
                                   end_place.local, instr.endNode,
                                   0.0f});
        } else {
            kb_.removeSlot(l, instr.rel, instr.endNode);
        }
        mu.accum += cy(t_.muLinkEditCycles);

        // Reverse link: end node -> local node.
        if (end_local) {
            if (creating) {
                kb_.addSlot(end_place.local,
                            RelSlot{instr.rel2, id_, l, g, 0.0f});
            } else {
                kb_.removeSlot(end_place.local, instr.rel2, g);
            }
            mu.accum += cy(t_.muLinkEditCycles);
        } else {
            ActivationMessage msg;
            msg.kind = creating ? MsgKind::LinkCreate
                                : MsgKind::LinkDelete;
            msg.destCluster = end_place.cluster;
            msg.destLocal = end_place.local;
            msg.linkRel = instr.rel2;
            msg.linkOther = g;
            msg.syncLevel = 0;
            bool ok = emitMessage(msg, mu.accum);
            snap_assert(ok, "emitMessage failed after space check");
        }
        ++mu.maintIdx;
    }
    return true;
}

Tick
Cluster::executeTask(std::uint32_t i, const Task &task)
{
    hostprof::Scope hp(hostprof::Phase::Kernels);
    (void)i;
    const Instruction &instr = task.instr;
    MarkerStore &ms = kb_.markers();
    std::uint32_t n = kb_.numLocalNodes();
    std::uint32_t words = statusWords();
    Tick dur = cy(t_.muTaskSetupCycles);

    auto place_local = [&](NodeId g) {
        Placement p = ctx_.image->place(g);
        snap_assert(p.cluster == id_, "targeted op on wrong cluster");
        return p.local;
    };

    switch (instr.op) {
      case Opcode::Create: {
        LocalNodeId l = place_local(instr.node);
        Placement p = ctx_.image->place(instr.endNode);
        kb_.addSlot(l, RelSlot{instr.rel, p.cluster, p.local,
                               instr.endNode, instr.value});
        dur += cy(t_.muLinkEditCycles);
        break;
      }
      case Opcode::Delete: {
        LocalNodeId l = place_local(instr.node);
        kb_.removeSlot(l, instr.rel, instr.endNode);
        dur += cy(t_.muLinkEditCycles);
        break;
      }
      case Opcode::SetColor: {
        LocalNodeId l = place_local(instr.node);
        kb_.setColor(l, instr.color);
        dur += cy(t_.muNodeScanCycles);
        break;
      }
      case Opcode::SetWeight: {
        LocalNodeId l = place_local(instr.node);
        kb_.setSlotWeight(l, instr.rel, instr.endNode, instr.value);
        dur += cy(t_.muLinkEditCycles);
        break;
      }
      case Opcode::SearchNode: {
        LocalNodeId l = place_local(instr.node);
        ms.set(instr.m1, l, instr.value, instr.node);
        dur += cy(t_.muWordOpCycles + t_.muValueOpCycles);
        break;
      }
      case Opcode::SearchRelation: {
        std::uint32_t rows = 0;
        std::uint32_t matches = 0;
        for (LocalNodeId l = 0; l < n; ++l) {
            rows += kb_.numRows(l);
            for (const RelSlot &s : kb_.slots(l)) {
                if (s.rel == instr.rel) {
                    ms.set(instr.m1, l, instr.value, kb_.globalId(l));
                    ++matches;
                    break;
                }
            }
        }
        dur += cy(rows * t_.muRelRowCycles +
                  matches * t_.muValueOpCycles);
        break;
      }
      case Opcode::SearchColor: {
        std::uint32_t matches = 0;
        for (LocalNodeId l = 0; l < n; ++l) {
            if (kb_.color(l) == instr.color) {
                ms.set(instr.m1, l, instr.value, kb_.globalId(l));
                ++matches;
            }
        }
        dur += cy(n * t_.muNodeScanCycles +
                  matches * t_.muValueOpCycles);
        break;
      }
      case Opcode::Propagate: {
        const BitVector &src = ms.bits(instr.m1);
        std::uint32_t sources = 0;
        src.forEachSet([&](std::uint32_t l) {
            float v0 = ms.value(instr.m1, l);
            NodeId g = kb_.globalId(l);
            frontierAdmit(instr.func, best_[bestKey(task.seq, l, 0)],
                          PropLabel{v0, g, 0});
            WorkItem item;
            item.node = l;
            item.state = 0;
            item.value = v0;
            item.origin = g;
            item.steps = 0;
            item.rule = instr.rule;
            item.m2 = instr.m2;
            item.func = instr.func;
            item.propId = task.seq;
            localWork_.push_back(item);
            ++sources;
        });
        if (ctx_.alphaPerProp)
            (*ctx_.alphaPerProp)[task.seq] += sources;
        dur += cy(words * t_.muWordOpCycles +
                  sources * t_.muValueOpCycles);
        kickMus();
        break;
      }
      case Opcode::MarkerSetColor: {
        const BitVector &bits = ms.bits(instr.m1);
        bits.forEachSet(
            [&](std::uint32_t l) { kb_.setColor(l, instr.color); });
        dur += cy(words * t_.muWordOpCycles +
                  bits.count() * t_.muNodeScanCycles);
        break;
      }
      case Opcode::AndMarker:
      case Opcode::OrMarker:
      case Opcode::NotMarker: {
        // Word-parallel combine of the operand status rows into m3.
        // Operand words are captured before the destination write so
        // the kernel stays correct when m3 aliases an input row
        // (reads of bit l always see pre-write state, exactly like
        // the scalar loop, which never revisits a node).  A binary
        // destination needs no per-node work at all; a complex one
        // merges value/origin for each result bit.
        const bool complexDst = isComplexMarker(instr.m3);
        BitVector &dst = ms.bits(instr.m3);
        std::uint32_t updates = 0;
        const std::uint32_t hostWords = dst.numWords();
        for (std::uint32_t w = 0; w < hostWords; ++w) {
            const BitVector::Word w1 = ms.bits(instr.m1).word(w);
            const BitVector::Word w2 =
                instr.op == Opcode::NotMarker
                    ? 0 : ms.bits(instr.m2).word(w);
            BitVector::Word w3;
            if (instr.op == Opcode::AndMarker)
                w3 = w1 & w2;
            else if (instr.op == Opcode::OrMarker)
                w3 = w1 | w2;
            else
                w3 = ~w1;
            dst.setWord(w, w3);  // masks the tail bits
            BitVector::Word res = dst.word(w);
            updates += static_cast<std::uint32_t>(
                __builtin_popcountll(res));
            if (!complexDst)
                continue;
            while (res) {
                const std::uint32_t bit = static_cast<std::uint32_t>(
                    __builtin_ctzll(res));
                res &= res - 1;
                const LocalNodeId l =
                    w * BitVector::bitsPerWord + bit;
                if (instr.op == Opcode::NotMarker) {
                    ms.setValue(instr.m3, l, 0.0f, kb_.globalId(l));
                    continue;
                }
                const bool s1 = (w1 >> bit) & 1;
                const bool s2 = (w2 >> bit) & 1;
                const float v1 = ms.value(instr.m1, l);
                const float v2 = ms.value(instr.m2, l);
                const NodeId o1 =
                    isComplexMarker(instr.m1) && s1
                        ? ms.origin(instr.m1, l) : invalidNode;
                const NodeId o2 =
                    isComplexMarker(instr.m2) && s2
                        ? ms.origin(instr.m2, l) : invalidNode;
                float v3 = 0.0f;
                NodeId o3 = kb_.globalId(l);
                if (s1 && s2) {
                    v3 = combine(instr.comb, v1, v2);
                    o3 = o1 != invalidNode ? o1
                         : o2 != invalidNode ? o2 : o3;
                } else if (s1) {
                    v3 = v1;
                    o3 = o1 != invalidNode ? o1 : o3;
                } else {
                    v3 = v2;
                    o3 = o2 != invalidNode ? o2 : o3;
                }
                ms.setValue(instr.m3, l, v3, o3);
            }
        }
        // Timing model: three row accesses per 32-bit status word,
        // plus value updates for result bits (unchanged).
        dur += cy(words * 3 * t_.muWordOpCycles +
                  updates * t_.muValueOpCycles);
        break;
      }
      case Opcode::SetMarker: {
        ms.bits(instr.m1).setAll();
        dur += cy(words * t_.muWordOpCycles);
        if (isComplexMarker(instr.m1)) {
            for (LocalNodeId l = 0; l < n; ++l)
                ms.setValue(instr.m1, l, instr.value,
                            kb_.globalId(l));
            dur += cy(n * t_.muValueOpCycles);
        }
        break;
      }
      case Opcode::ClearMarker: {
        ms.clearAll(instr.m1);
        dur += cy(words * t_.muWordOpCycles);
        break;
      }
      case Opcode::FuncMarker: {
        std::uint32_t touched = 0;
        const BitVector &bits = ms.bits(instr.m1);
        std::vector<LocalNodeId> &marked = funcScratch_;
        marked.clear();
        bits.collect(marked);
        for (LocalNodeId l : marked) {
            float v = ms.value(instr.m1, l);
            bool keep = instr.sfunc.apply(v);
            if (!keep)
                ms.clear(instr.m1, l);
            else if (isComplexMarker(instr.m1))
                ms.setValue(instr.m1, l, v, ms.origin(instr.m1, l));
            ++touched;
        }
        dur += cy(words * t_.muWordOpCycles +
                  touched * t_.muValueOpCycles);
        break;
      }
      case Opcode::CollectMarker: {
        CollectResult res;
        res.op = instr.op;
        res.marker = instr.m1;
        const BitVector &bits = ms.bits(instr.m1);
        bits.forEachSet([&](std::uint32_t l) {
            res.nodes.push_back(CollectedNode{
                kb_.globalId(l), ms.value(instr.m1, l),
                ms.origin(instr.m1, l)});
        });
        dur += cy(words * t_.muWordOpCycles +
                  res.nodes.size() * t_.muCollectItemCycles);
        collects_[task.seq] = std::move(res);
        break;
      }
      case Opcode::CollectRelation: {
        CollectResult res;
        res.op = instr.op;
        res.marker = instr.m1;
        res.rel = instr.rel;
        std::uint32_t rows = 0;
        const BitVector &bits = ms.bits(instr.m1);
        bits.forEachSet([&](std::uint32_t l) {
            rows += kb_.numRows(l);
            for (const RelSlot &s : kb_.slots(l)) {
                if (s.rel == instr.rel) {
                    res.links.push_back(
                        CollectedLink{kb_.globalId(l), s.rel,
                                      s.destGlobal, s.weight});
                }
            }
        });
        dur += cy(words * t_.muWordOpCycles +
                  rows * t_.muRelRowCycles +
                  res.links.size() * t_.muCollectItemCycles);
        collects_[task.seq] = std::move(res);
        break;
      }
      case Opcode::CollectColor: {
        CollectResult res;
        res.op = instr.op;
        res.color = instr.color;
        for (LocalNodeId l = 0; l < n; ++l) {
            if (kb_.color(l) == instr.color) {
                res.nodes.push_back(CollectedNode{kb_.globalId(l),
                                                  0.0f, invalidNode});
            }
        }
        dur += cy(n * t_.muNodeScanCycles +
                  res.nodes.size() * t_.muCollectItemCycles);
        collects_[task.seq] = std::move(res);
        break;
      }
      default:
        snap_panic("cluster %u: unexpected opcode %s in task", id_,
                   opcodeName(instr.op));
    }
    return dur;
}

void
Cluster::scheduleMuDone(std::uint32_t i)
{
    hostprof::Scope hp(hostprof::Phase::Stats);
    MuState &mu = mus_[i];
    Tick dur = mu.accum;
    mu.accum = 0;
    ctx_.stats->categoryBusy[static_cast<std::size_t>(mu.cat)] += dur;
    ctx_.stats->muBusyTicks += dur;
    muBusyLocal_ += dur;
    // Per-cluster busy span: summed durations on this track equal
    // muBusyLocal() exactly (the utilization heatmap's invariant).
    if (SNAP_TRACE_ON(trace::kCluster)) {
        trace::simSpan(trace::kCluster, ctx_.tracePid,
                       trace::tidCluster(id_), categoryName(mu.cat),
                       curTick(), curTick() + dur);
    }
    scheduleRel(mu.doneEvent.get(), dur);
}

void
Cluster::finishMu(std::uint32_t i)
{
    MuState &mu = mus_[i];
    snap_assert(mu.busy, "finishMu on idle MU");

    if (ctx_.stats->categoryTimer.stop(mu.cat, curTick()) &&
        SNAP_TRACE_ON(trace::kInstr))
        traceCatStop(ctx_.tracePid, mu.cat, curTick());
    if (ctx_.perf && mu.hasTask)
        ctx_.perf->emit(peBase_ + 1 + i, curTick(),
                        PerfEvent::TaskEnd, mu.task.seq);

    bool was_task = mu.hasTask;
    Task task = mu.task;
    bool consume = mu.consumeOnDone;
    std::uint8_t level = mu.consumeLevel;

    mu.busy = false;
    snap_assert(busyMus_ > 0, "busy MU count underflow");
    --busyMus_;
    mu.hasTask = false;
    mu.expanding = false;
    mu.maintaining = false;
    mu.consumeOnDone = false;

    if (was_task) {
        snap_assert(tasksOutstanding_ > 0, "task count underflow");
        --tasksOutstanding_;
        if (task.ordered) {
            snap_assert(orderedOutstanding_ > 0,
                        "ordered count underflow");
            --orderedOutstanding_;
        }
        switch (task.instr.op) {
          case Opcode::CollectMarker:
          case Opcode::CollectRelation:
          case Opcode::CollectColor: {
            // Ship the buffered collect up to the SCP; it arrives
            // one wire lag later and is consumed there in cluster
            // order.
            auto it = collects_.find(task.seq);
            snap_assert(it != collects_.end(),
                        "collect %u finished without a buffer",
                        task.seq);
            Deliverable d;
            d.kind = WireKind::CollectReady;
            d.when = curTick() + ctx_.wire->lag();
            d.receiver = ctx_.cfg->numClusters;
            d.sender = id_;
            d.senderSeq = nextWireSeq();
            d.collectSeq = task.seq;
            d.collect = std::move(it->second);
            collects_.erase(it);
            ctx_.wire->send(std::move(d));
            break;
          }
          default:
            break;
        }
    }

    if (puStalled_) {
        puStalled_ = false;
        if (!tryDispatch())
            puStalled_ = true;
        else
            kickPu();
    }

    updateIdle();
    kickMus();

    if (consume)
        ctx_.sync->consumed(level, curTick());
}

// ---------------------------------------------------------------------------
// Communication unit
// ---------------------------------------------------------------------------

void
Cluster::kickCu()
{
    if (ctx_.faults && ctx_.faults->clusterDead(id_))
        return;
    if (!cuBusy_)
        cuStep();
}

ActivationMessage
Cluster::popInbox(std::uint32_t dim)
{
    ActivationMessage msg = dimInbox_[dim].front();
    dimInbox_[dim].pop_front();
    // Whichever cluster last drove this link sees the freed
    // port-memory slot one wire lag later.
    ctx_.wire->release(msg.lastHop, id_, linkSlot(dim, id_));
    return msg;
}

void
Cluster::awaitSlotRelease()
{
    const std::deque<Release> &pending = ctx_.wire->releases(id_);
    ctx_.wire->wait(id_, pending.empty() ? maxTick
                                         : pending.front().when);
}

void
Cluster::stageIcnMsg(ClusterId nb, std::uint32_t dim,
                     ActivationMessage &&msg, Tick latency)
{
    Deliverable d;
    d.kind = WireKind::IcnMsg;
    d.when = curTick() + latency;
    d.receiver = nb;
    d.sender = id_;
    d.senderSeq = nextWireSeq();
    d.dim = static_cast<std::uint8_t>(dim);
    d.msg = std::move(msg);
    ctx_.wire->send(std::move(d));
}

void
Cluster::cuStep()
{
    snap_assert(!cuBusy_, "cuStep while busy");
    // Common no-op: a unit finished or a slot freed with no traffic
    // pending anywhere.  Bail before the profiling scope and the
    // round-robin scan.
    if (activationOut_.empty() && dimInbox_[0].empty() &&
        dimInbox_[1].empty() && dimInbox_[2].empty())
        return;
    hostprof::Scope hp(hostprof::Phase::Icn);
    ctx_.wire->foldReleases(
        id_, [this](const Release &r) { ++credits_[r.slot]; });

    // Round-robin over four sources: the outgoing activation queue
    // and the three dimension inboxes.
    constexpr std::uint32_t num_sources = 1 + numIcnDims;
    for (std::uint32_t k = 0; k < num_sources; ++k) {
        std::uint32_t src = (cuRr_ + k) % num_sources;

        if (src == 0) {
            if (activationOut_.empty())
                continue;
            const ActivationMessage &head = activationOut_.front();
            auto [dim, nb] = ctx_.icn->nextHop(id_, head.destCluster);
            auto &credit = credits_[linkSlot(dim, nb)];
            if (credit == 0) {
                // The neighbor's port memory is full; a slot release
                // after its CU pops wakes us.
                ++icnDelta_.blockedSends;
                continue;
            }
            ActivationMessage msg = activationOut_.pop();
            // Claim the CU before waking stalled MUs: a resumed MU
            // may emit and kick the CU re-entrantly.
            cuBusy_ = true;
            // Space opened: resume MUs stalled on the out queue.
            // Drain by index and trim the prefix afterwards — an MU
            // that stalls again (or a delivery that stalls another
            // MU) appends past the snapshot, and no vector is
            // allocated per wake.
            if (!outWaiters_.empty()) {
                const std::size_t snapshot = outWaiters_.size();
                for (std::size_t w_i = 0; w_i < snapshot; ++w_i) {
                    std::uint32_t w = outWaiters_[w_i];
                    MuState &mu = mus_[w];
                    bool done = mu.expanding ? continueExpansion(w)
                                : mu.maintaining
                                    ? continueMaintenance(w)
                                    : true;
                    if (done)
                        scheduleMuDone(w);
                }
                outWaiters_.erase(outWaiters_.begin(),
                                  outWaiters_.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          snapshot));
            }

            // Link-fault injection at the send port.  A dropped
            // message is silent loss: no sync credit, no delivery —
            // the propagation quietly loses a subtree (caught by the
            // integrity shadow) or strands a consumer (caught as a
            // wedge).  The CU still pays its service slot.
            FaultPlan *fp = ctx_.faults;
            Tick fault_delay = 0;
            if (fp) {
                if (fp->rollIcnDrop(id_)) {
                    ++icnDelta_.dropped;
                    cuRr_ = 1;
                    Tick lost_dur = cy(t_.cuServiceCycles) +
                                    ctx_.icn->transferTime();
                    ctx_.stats->commTicks += lost_dur;
                    cuKickMusOnDone_ = false;
                    if (SNAP_TRACE_ON(trace::kFault)) {
                        trace::simInstant(
                            trace::kFault, ctx_.tracePid,
                            trace::tidCu(id_), "fault.icn_drop",
                            curTick());
                    }
                    scheduleRel(cuEvent_.get(), lost_dur);
                    updateIdle();
                    return;
                }
                if (fp->rollIcnCorrupt(id_)) {
                    // Payload corruption only: routing and marker
                    // fields stay intact (a misrouted id would index
                    // out of the destination's tables, which real
                    // hardware rejects at the port).
                    msg.value = fp->corruptValue(id_, msg.value);
                    if (fp->draw(id_, FaultKind::IcnCorrupt) & 1)
                        msg.origin = invalidNode;
                    if (SNAP_TRACE_ON(trace::kFault)) {
                        trace::simInstant(
                            trace::kFault, ctx_.tracePid,
                            trace::tidCu(id_), "fault.icn_corrupt",
                            curTick());
                    }
                }
                if (fp->rollIcnDelay(id_)) {
                    fault_delay = fp->spec().icnDelayTicks;
                    if (SNAP_TRACE_ON(trace::kFault)) {
                        trace::simInstant(
                            trace::kFault, ctx_.tracePid,
                            trace::tidCu(id_), "fault.icn_delay",
                            curTick());
                    }
                }
            }

            --credit;
            msg.sentAt = curTick();
            msg.hops = 1;
            msg.lastHop = id_;
            ctx_.sync->created(msg.syncLevel, curTick());
            ++ctx_.stats->messagesSent;
            ++ctx_.stats->messageHops;
            ++icnDelta_.injected;
            ++icnDelta_.hops;
            if (ctx_.perf)
                ctx_.perf->emit(peBase_ + 1 + numMus(), curTick(),
                                PerfEvent::MsgSent, msg.destCluster);

            cuRr_ = 1;  // give inboxes a turn next
            Tick dur = cy(t_.cuServiceCycles) +
                       ctx_.icn->transferTime() + fault_delay;
            ctx_.stats->commTicks += dur;
            cuKickMusOnDone_ = false;
            if (SNAP_TRACE_ON(trace::kIcn)) {
                trace::simSpan(trace::kIcn, ctx_.tracePid,
                               trace::tidCu(id_), "icn.send",
                               curTick(), curTick() + dur);
            }
            // The message lands in the neighbor's port memory when
            // the transfer completes (it is in flight until then).
            stageIcnMsg(nb, dim, std::move(msg), dur);
            scheduleRel(cuEvent_.get(), dur);
            updateIdle();
            return;
        }

        std::uint32_t dim = src - 1;
        auto &inbox = dimInbox_[dim];
        if (inbox.empty())
            continue;
        const ActivationMessage &head = inbox.front();

        if (head.destCluster == id_) {
            cuBusy_ = true;
            ActivationMessage msg = popInbox(dim);
            icnDelta_.hopDist.sample(msg.hops);
            icnDelta_.latency.sample(
                static_cast<double>(curTick() - msg.sentAt));
            msgLatency_.sample(
                static_cast<double>(curTick() - msg.sentAt));
            arrivals_.push_back(msg);
            if (arrivals_.size() > arrivalsHigh_)
                arrivalsHigh_ = arrivals_.size();

            cuRr_ = src + 1;
            Tick dur = cy(t_.cuDeliverCycles);
            ctx_.stats->commTicks += dur;
            cuKickMusOnDone_ = true;  // kick own MUs at completion
            if (SNAP_TRACE_ON(trace::kIcn)) {
                trace::simSpan(trace::kIcn, ctx_.tracePid,
                               trace::tidCu(id_), "icn.deliver",
                               curTick(), curTick() + dur);
            }
            scheduleRel(cuEvent_.get(), dur);
            updateIdle();
            return;
        }

        // Relay toward the destination.
        auto [ndim, nb] = ctx_.icn->nextHop(id_, head.destCluster);
        auto &credit = credits_[linkSlot(ndim, nb)];
        if (credit == 0) {
            ++icnDelta_.blockedSends;
            continue;
        }
        cuBusy_ = true;
        ActivationMessage msg = popInbox(dim);
        --credit;
        ++msg.hops;
        msg.lastHop = id_;
        ++icnDelta_.relays;
        ++icnDelta_.hops;
        ++ctx_.stats->messageHops;

        cuRr_ = src + 1;
        Tick dur = cy(t_.cuRelayCycles) + ctx_.icn->transferTime();
        ctx_.stats->commTicks += dur;
        cuKickMusOnDone_ = false;
        if (SNAP_TRACE_ON(trace::kIcn)) {
            trace::simSpan(trace::kIcn, ctx_.tracePid,
                           trace::tidCu(id_), "icn.relay",
                           curTick(), curTick() + dur);
        }
        stageIcnMsg(nb, ndim, std::move(msg), dur);
        scheduleRel(cuEvent_.get(), dur);
        updateIdle();
        return;
    }
    // Every non-empty source is blocked on a full port memory.
    awaitSlotRelease();
}

void
Cluster::finishCu()
{
    hostprof::Scope hp(hostprof::Phase::Icn);
    cuBusy_ = false;
    if (cuKickMusOnDone_) {
        cuKickMusOnDone_ = false;
        kickMus();
    }
    updateIdle();
    kickCu();
}

} // namespace snap
