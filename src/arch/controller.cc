#include "arch/controller.hh"

#include <algorithm>

#include "arch/wire.hh"
#include "trace/trace.hh"

namespace snap
{

Controller::Controller(MachineContext &ctx, std::uint32_t num_clusters)
    : ClockedObject(ctx.eq, ctx.cfg->controllerClockPeriod),
      ctx_(ctx),
      t_(ctx.cfg->t),
      numClusters_(num_clusters),
      instrFree_(num_clusters, ctx.cfg->t.instrQueueDepth),
      collectParts_(num_clusters),
      collectHave_(num_clusters, false)
{
    scpEvent_ = std::make_unique<EventFunctionWrapper>(
        [this] {
            switch (phase_) {
              case Phase::Broadcasting:
                broadcastDone();
                break;
              case Phase::BarrierDetect:
                detectionDone();
                break;
              case Phase::BarrierRelease:
                releaseDone();
                break;
              case Phase::CollectRead:
                collectReadDone();
                break;
              default:
                snap_panic("scp event in phase %d",
                           static_cast<int>(phase_));
            }
        },
        "controller.scp");
    kickEvent_ = std::make_unique<EventFunctionWrapper>(
        [this] { kickScp(); }, "controller.kick");
}

void
Controller::startProgram(const Program &prog)
{
    snap_assert(phase_ == Phase::Idle || phase_ == Phase::Done,
                "startProgram while running");
    if (prog.size() > capacity::maxInstructions)
        snap_fatal("program of %zu instructions exceeds the 16-bit "
                   "sequence space", prog.size());
    foldFreedSlots();
    for (std::uint32_t free : instrFree_)
        snap_assert(free == t_.instrQueueDepth,
                    "startProgram with %u instruction-queue slots "
                    "occupied", t_.instrQueueDepth - free);
    prog_ = &prog;
    instrIdx_ = 0;
    phase_ = Phase::Issue;
    programStart_ = curTick();
    epochStartMsgs_ = 0;
    pendingEpochMsgs_ = 0;
    results_.clear();
    kickScp();
}

void
Controller::slotFreed(const Release &r)
{
    snap_assert(instrFree_[r.sender] < t_.instrQueueDepth,
                "stray instruction-queue release from cluster %u",
                r.sender);
    ++instrFree_[r.sender];
}

void
Controller::foldFreedSlots()
{
    ctx_.wire->foldReleases(
        numClusters_, [this](const Release &r) { slotFreed(r); });
}

void
Controller::awaitQueueSpace()
{
    // Releases come in time order, so the wake is the first pending
    // release of the full queue that frees last.  A full queue whose
    // PU has not popped yet has none: the wake waits for its pop.
    const std::deque<Release> &pending =
        ctx_.wire->releases(numClusters_);
    Tick at = 0;
    for (ClusterId c = 0; c < numClusters_; ++c) {
        if (instrFree_[c] != 0)
            continue;
        auto it = std::find_if(
            pending.begin(), pending.end(),
            [c](const Release &r) { return r.sender == c; });
        if (it == pending.end()) {
            at = maxTick;
            break;
        }
        at = std::max(at, it->when);
    }
    ctx_.wire->wait(numClusters_, at);
}

void
Controller::kickScp()
{
    if (phase_ != Phase::Issue)
        return;

    if (instrIdx_ >= prog_->size()) {
        // All instructions issued: drain to quiescence (an implicit
        // final barrier without the explicit detection protocol).
        phase_ = Phase::Drain;
        drainEntry_ = curTick();
        // The array may already be quiescent, with no transition
        // left for the sync tree's callback to observe.
        if (ctx_.sync->quiescent())
            onQuiescentAt(ctx_.sync->lastMutation());
        return;
    }

    // PCP pipeline: the next instruction may not be ready yet.
    Tick ready = pcpReady(instrIdx_);
    if (curTick() < ready) {
        if (!kickEvent_->scheduled())
            schedule(kickEvent_.get(), ready);
        return;
    }

    // Global-bus backpressure: every cluster must have queue space.
    foldFreedSlots();
    if (std::find(instrFree_.begin(), instrFree_.end(), 0u) !=
        instrFree_.end()) {
        awaitQueueSpace();
        return;
    }

    // The broadcast occupies the bus for the full word burst; the
    // instruction lands in every queue when the burst completes.
    const Instruction &instr = (*prog_)[instrIdx_];
    auto seq = static_cast<std::uint16_t>(instrIdx_);
    phase_ = Phase::Broadcasting;
    Tick dur = broadcastTicks();
    ctx_.stats->broadcastTicks += dur;
    for (std::uint32_t &free : instrFree_)
        --free;
    Broadcast b;
    b.qi = QueuedInstr{instr, seq};
    ctx_.wire->broadcast(curTick() + dur, b);
    scheduleRel(scpEvent_.get(), dur);
}

void
Controller::broadcastDone()
{
    const Instruction &instr = (*prog_)[instrIdx_];
    ++instrIdx_;

    ++ctx_.stats->opcodeCounts[static_cast<std::size_t>(instr.op)];
    ++ctx_.stats
          ->categoryCounts[static_cast<std::size_t>(
              instr.category())];

    if (instr.op == Opcode::Barrier) {
        phase_ = Phase::BarrierWait;
        ++ctx_.stats->barriers;
        barrierStart_ = curTick();
        // Completion is reported by the machine; it cannot have
        // happened yet because no cluster has decoded the barrier.
        return;
    }

    if (instr.op == Opcode::CollectMarker ||
        instr.op == Opcode::CollectRelation ||
        instr.op == Opcode::CollectColor) {
        auto seq = static_cast<std::uint16_t>(instrIdx_ - 1);
        phase_ = Phase::CollectWait;
        collectSeq_ = seq;
        collectTarget_ = 0;
        collectAggregate_ = CollectResult{};
        collectAggregate_.op = instr.op;
        collectAggregate_.marker = instr.m1;
        collectAggregate_.color = instr.color;
        collectAggregate_.rel = instr.rel;
        collectAdvance();
        return;
    }

    phase_ = Phase::Issue;
    kickScp();
}

void
Controller::onSyncCompleteAt(Tick tstar, std::uint64_t msgs_so_far)
{
    if (phase_ != Phase::BarrierWait)
        return;
    // Detection procedure: AND-tree settle plus a serial scan of
    // every cluster's tiered counters, timed from the completion
    // tick t* — not from when the machine noticed.
    phase_ = Phase::BarrierDetect;
    pendingEpochMsgs_ = msgs_so_far;
    Tick dur = static_cast<Tick>(t_.barrierTreeNs) * ticksPerNs +
               ctrlCy(static_cast<std::uint64_t>(numClusters_) *
                      t_.barrierCounterCycles);
    ctx_.stats->syncTicks += dur;
    snap_assert(tstar + dur >= curTick(),
                "barrier detection (%llu + %llu) behind the present "
                "%llu",
                static_cast<unsigned long long>(tstar),
                static_cast<unsigned long long>(dur),
                static_cast<unsigned long long>(curTick()));
    schedule(scpEvent_.get(), tstar + dur);
}

void
Controller::detectionDone()
{
    // Between completion and release no cluster can create work:
    // all PUs are held at the barrier and the array is idle.
    phase_ = Phase::BarrierRelease;
    Tick dur = broadcastTicks();
    ctx_.stats->syncTicks += dur;
    Broadcast b;
    b.barrierRelease = true;
    ctx_.wire->broadcast(curTick() + dur, b);
    scheduleRel(scpEvent_.get(), dur);
}

void
Controller::releaseDone()
{
    // Close the epoch for the traffic-per-synchronization series.
    // The message count was snapshot at completion; nothing has been
    // sent since (the array sat at the barrier).
    std::uint64_t msgs = pendingEpochMsgs_ - epochStartMsgs_;
    ctx_.stats->msgsPerEpoch.push_back(
        static_cast<std::uint32_t>(msgs));
    epochStartMsgs_ = pendingEpochMsgs_;

    if (SNAP_TRACE_ON(trace::kSync)) {
        // One span per barrier epoch (wait + detect + release) with
        // the epoch's inter-cluster message count as the instant.
        trace::simSpan(trace::kSync, ctx_.tracePid, trace::kTidScp,
                       "barrier.epoch", barrierStart_, curTick());
        trace::simInstantArg(trace::kSync, ctx_.tracePid,
                             trace::kTidScp, "epoch.msgs",
                             curTick(), msgs);
    }

    if (ctx_.perf)
        ctx_.perf->emit(0, curTick(), PerfEvent::BarrierComplete,
                        static_cast<std::uint32_t>(
                            ctx_.stats->barriers));

    // The release broadcasts landed this tick (wire events run ahead
    // of this one); the PUs are already moving again.
    phase_ = Phase::Issue;
    kickScp();
}

void
Controller::collectAdvance()
{
    snap_assert(phase_ == Phase::CollectWait, "collectAdvance phase");
    if (collectTarget_ >= numClusters_) {
        ++ctx_.stats->collects;
        ctx_.stats->collectedItems += collectAggregate_.nodes.size() +
                                      collectAggregate_.links.size();
        results_.push_back(std::move(collectAggregate_));
        collectAggregate_ = CollectResult{};
        if (ctx_.perf)
            ctx_.perf->emit(0, curTick(), PerfEvent::CollectDone,
                            collectSeq_);
        phase_ = Phase::Issue;
        kickScp();
        return;
    }

    if (!collectHave_[collectTarget_])
        return;  // resumed when the part arrives over the wire

    CollectResult part = std::move(collectParts_[collectTarget_]);
    collectParts_[collectTarget_] = CollectResult{};
    collectHave_[collectTarget_] = false;
    std::size_t items = part.nodes.size() + part.links.size();
    for (auto &nd : part.nodes)
        collectAggregate_.nodes.push_back(nd);
    for (auto &lk : part.links)
        collectAggregate_.links.push_back(lk);

    phase_ = Phase::CollectRead;
    Tick dur = ctrlCy(t_.collectSelectCycles +
                      static_cast<std::uint64_t>(items) *
                          t_.collectItemCycles);
    ctx_.stats->collectTicks += dur;
    if (ctx_.stats->categoryTimer.start(InstrCategory::Collection,
                                        curTick()) &&
        SNAP_TRACE_ON(trace::kInstr)) {
        trace::simBegin(
            trace::kInstr, ctx_.tracePid,
            trace::tidInstr(static_cast<std::uint32_t>(
                InstrCategory::Collection)),
            categoryName(InstrCategory::Collection), curTick());
    }
    scheduleRel(scpEvent_.get(), dur);
}

void
Controller::collectReadDone()
{
    if (ctx_.stats->categoryTimer.stop(InstrCategory::Collection,
                                       curTick()) &&
        SNAP_TRACE_ON(trace::kInstr)) {
        trace::simEnd(
            trace::kInstr, ctx_.tracePid,
            trace::tidInstr(static_cast<std::uint32_t>(
                InstrCategory::Collection)),
            categoryName(InstrCategory::Collection), curTick());
    }
    ++collectTarget_;
    phase_ = Phase::CollectWait;
    collectAdvance();
}

void
Controller::applyDeliverable(Deliverable &&d)
{
    snap_assert(d.kind == WireKind::CollectReady,
                "controller: bad deliverable kind %u",
                static_cast<unsigned>(d.kind));
    snap_assert(phase_ == Phase::CollectWait ||
                    phase_ == Phase::CollectRead,
                "collect part outside a collect");
    snap_assert(d.collectSeq == collectSeq_, "collect part seq %u vs %u",
                d.collectSeq, collectSeq_);
    snap_assert(d.sender < numClusters_ && !collectHave_[d.sender],
                "duplicate collect part from cluster %u", d.sender);
    collectParts_[d.sender] = std::move(d.collect);
    collectHave_[d.sender] = true;
    if (phase_ == Phase::CollectWait)
        collectAdvance();
}

void
Controller::wake()
{
    // This tick's releases are hidden from foldFreedSlots while the
    // wake runs; take them all, then retry the issue.
    Release r;
    while (ctx_.wire->takeRelease(numClusters_, r))
        slotFreed(r);
    kickScp();
}

void
Controller::releaseRecorded()
{
    awaitQueueSpace();
}

void
Controller::landBroadcast(const Broadcast &)
{
    snap_panic("controller: a broadcast landed on the SCP");
}

void
Controller::onQuiescentAt(Tick tstar)
{
    if (phase_ == Phase::Drain)
        finishProgram(std::max(tstar, drainEntry_));
}

void
Controller::finishProgram(Tick when)
{
    phase_ = Phase::Done;
    finishTick_ = when;
}

} // namespace snap
