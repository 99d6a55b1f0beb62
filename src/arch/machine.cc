#include "arch/machine.hh"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "common/host_prof.hh"
#include "common/stats.hh"
#include "runtime/reference.hh"
#include "trace/trace.hh"

namespace snap
{

namespace
{

/** Generation-counting centralized spin barrier.  Window boundaries
 *  come thousands per run, so parking on a futex/condvar would cost
 *  more than the windows themselves; the shards spin (with a yield
 *  once the wait gets long) and reuse the same two barriers all
 *  run. */
class SpinBarrier
{
  public:
    explicit SpinBarrier(std::uint32_t n) : total_(n) {}

    void
    arriveAndWait()
    {
        std::uint32_t gen = gen_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            total_) {
            count_.store(0, std::memory_order_relaxed);
            gen_.store(gen + 1, std::memory_order_release);
            return;
        }
        std::uint32_t spins = 0;
        while (gen_.load(std::memory_order_acquire) == gen) {
            if (++spins > 4096) {
                std::this_thread::yield();
                spins = 0;
            }
        }
    }

  private:
    const std::uint32_t total_;
    std::atomic<std::uint32_t> count_{0};
    std::atomic<std::uint32_t> gen_{0};
};

} // namespace

SnapMachine::SnapMachine(MachineConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.validate();
}

SnapMachine::~SnapMachine() = default;

void
SnapMachine::loadKb(const SemanticNetwork &net)
{
    // Tear down any previous array (events must be drained first).
    for (auto &sh : shards_)
        snap_assert(sh->eq.empty(), "loadKb while events are pending");
    controller_.reset();
    clusters_.clear();

    image_ = std::make_unique<KbImage>(net, cfg_);
    wireArray();
}

void
SnapMachine::loadKb(const KbImage &image)
{
    for (auto &sh : shards_)
        snap_assert(sh->eq.empty(), "loadKb while events are pending");
    if (image.numClusters() != cfg_.numClusters) {
        snap_fatal("image compiled for %u clusters but this machine "
                   "has %u", image.numClusters(), cfg_.numClusters);
    }
    controller_.reset();
    clusters_.clear();

    image_ = std::make_unique<KbImage>(image);
    wireArray();
}

Tick
SnapMachine::wireLag() const
{
    Tick broadcast = static_cast<Tick>(cfg_.t.instrWords) *
                     cfg_.t.busCyclesPerWord *
                     cfg_.controllerClockPeriod;
    Tick hop = static_cast<Tick>(cfg_.t.icnBytesPerMsg) *
               cfg_.t.icnByteNs * ticksPerNs;
    return std::min(broadcast, hop);
}

std::uint32_t
SnapMachine::shardOf(ClusterId c) const
{
    for (std::uint32_t s = 0; s < numShards_; ++s)
        if (c < shards_[s]->endCluster)
            return s;
    snap_panic("cluster %u not owned by any shard", c);
}

void
SnapMachine::wireArray()
{
    icn_ = std::make_unique<HypercubeIcn>(cfg_.numClusters, cfg_.t);
    perf_ = std::make_unique<PerfNet>(cfg_.numProcessors() + 1,
                                      cfg_.t, cfg_.perfNetEnabled);

    // Shards are created once and survive re-wiring (repair, reload):
    // their event queues carry the machine's simulated clock, which
    // must never move backwards.  Simulated-time tracing interleaves
    // all components on one timeline, so it forces one shard.
    std::uint32_t want =
        std::min(cfg_.hostThreads, cfg_.numClusters);
    if (trace::active())
        want = 1;
    if (shards_.empty()) {
        numShards_ = want;
        for (std::uint32_t s = 0; s < numShards_; ++s)
            shards_.push_back(std::make_unique<Shard>(
                cfg_.seedHotPath ? EventQueue::Impl::Heap
                                 : EventQueue::Impl::Indexed));
    }

    wire_ = std::make_unique<Wire>(cfg_.numClusters + 1, numShards_,
                                   wireLag(), cfg_.seedHotPath);
    if (faults_)
        faults_->bindClusters(cfg_.numClusters);

    // Contiguous block partition: the first (N % S) shards take one
    // extra cluster.  Deterministic in everything but numShards_,
    // which never affects simulated behaviour.
    const std::uint32_t per = cfg_.numClusters / numShards_;
    const std::uint32_t extra = cfg_.numClusters % numShards_;
    ClusterId next = 0;
    for (std::uint32_t s = 0; s < numShards_; ++s) {
        Shard &sh = *shards_[s];
        sh.sync = std::make_unique<SyncTree>(cfg_.numClusters);
        sh.stats = ExecBreakdown{};
        sh.perf = PerfNet::View(perf_.get());
        sh.alphaPerProp.clear();
        sh.firstCluster = next;
        next += per + (s < extra ? 1 : 0);
        sh.endCluster = next;

        sh.ctx = MachineContext{};
        sh.ctx.eq = &sh.eq;
        sh.ctx.cfg = &cfg_;
        sh.ctx.image = image_.get();
        sh.ctx.icn = icn_.get();
        sh.ctx.sync = sh.sync.get();
        sh.ctx.perf = &sh.perf;
        sh.ctx.stats = &sh.stats;
        sh.ctx.wire = wire_.get();
        sh.ctx.shard = s;
        sh.ctx.syncIsGlobal = (numShards_ == 1);
        sh.ctx.faults = faults_.get();
        sh.ctx.tracePid = trace::kSimPidBase + cfg_.traceDomain;
    }
    snap_assert(next == cfg_.numClusters, "cluster partition hole");

    if (trace::active())
        nameTraceTracks();
    shards_[0]->eq.recordTrace(schedTrace_);

    std::uint32_t pe_base = 0;
    for (ClusterId c = 0; c < cfg_.numClusters; ++c) {
        std::uint32_t s = shardOf(c);
        clusters_.push_back(std::make_unique<Cluster>(
            shards_[s]->ctx, c, cfg_.mus(c), pe_base));
        Cluster *cl = clusters_.back().get();
        wire_->bindEndpoint(c, s, &shards_[s]->eq,
                            [cl](Deliverable &&d) {
                                cl->applyDeliverable(std::move(d));
                            });
        pe_base += 2 + cfg_.mus(c);
    }
    controller_ =
        std::make_unique<Controller>(shards_[0]->ctx,
                                     cfg_.numClusters);
    Controller *ctl = controller_.get();
    wire_->bindEndpoint(cfg_.numClusters, 0, &shards_[0]->eq,
                        [ctl](Deliverable &&d) {
                            ctl->applyDeliverable(std::move(d));
                        });

    // Single-shard runs: the one tree is exact, so barrier completion
    // and quiescence are reported synchronously at the completing
    // mutation.  Sharded runs fold the trees at window boundaries
    // instead (pollMergedSync); both report the identical t*.
    if (numShards_ == 1) {
        SyncTree *st = shards_[0]->sync.get();
        Shard *sh0 = shards_[0].get();
        st->onComplete([this, st, sh0] {
            controller_->onSyncCompleteAt(st->lastMutation(),
                                          sh0->stats.messagesSent);
        });
        st->onQuiescent([this, st] {
            controller_->onQuiescentAt(st->lastMutation());
        });
    }
}

void
SnapMachine::nameTraceTracks() const
{
    const std::uint32_t pid = trace::kSimPidBase + cfg_.traceDomain;
    trace::nameProcess(
        pid, formatString("sim machine %u (ticks)",
                          cfg_.traceDomain));
    trace::nameTrack(pid, trace::kTidMachine, "machine");
    trace::nameTrack(pid, trace::kTidScp, "SCP");
    for (std::size_t c = 0; c < ExecBreakdown::numCats; ++c) {
        auto cat = static_cast<InstrCategory>(c);
        trace::nameTrack(
            pid, trace::tidInstr(static_cast<std::uint32_t>(c)),
            formatString("instr %s", categoryName(cat)));
    }
    for (ClusterId c = 0; c < cfg_.numClusters; ++c) {
        trace::nameTrack(pid, trace::tidCluster(c),
                         formatString("cluster %u MU", c));
        trace::nameTrack(pid, trace::tidCu(c),
                         formatString("cluster %u CU/ICN", c));
        trace::nameTrack(pid, trace::tidSem(c),
                         formatString("cluster %u sem", c));
    }
}

void
SnapMachine::installFaults(const FaultSpec &spec)
{
    faults_ = std::make_unique<FaultPlan>(spec);
    faults_->bindClusters(cfg_.numClusters);
    for (auto &sh : shards_)
        sh->ctx.faults = faults_.get();
}

void
SnapMachine::clearFaults()
{
    faults_.reset();
    for (auto &sh : shards_)
        sh->ctx.faults = nullptr;
}

void
SnapMachine::repair()
{
    if (!poisoned_)
        return;
    snap_assert(image_ != nullptr, "repair() before loadKb()");
    // The aborted run's in-flight events reference the old component
    // graph; drop them (and the wire's in-flight deliverables) before
    // tearing it down.  Marker state lives in image_ and survives the
    // re-wire; the shard queues survive too, so simulated time keeps
    // moving forward.
    for (auto &sh : shards_)
        sh->eq.clearPending();
    wire_->clear();
    controller_.reset();
    clusters_.clear();
    wireArray();
    poisoned_ = false;
    if (SNAP_TRACE_ON(trace::kFault)) {
        trace::simInstant(trace::kFault, shards_[0]->ctx.tracePid,
                          trace::kTidMachine, "fault.repair",
                          shards_[0]->eq.curTick());
    }
}

void
SnapMachine::scheduleRunFaults(Tick start)
{
    const FaultSpec &s = faults_->spec();

    // All entropy is drawn here, before the run starts, on the
    // machine stream and in a fixed order — the injected pattern is a
    // pure function of the plan state, never of shard interleaving.
    // The events themselves run on the owner cluster's shard and
    // mutate only that shard's state (plus its own tally stream).
    auto armAt = [&](FaultKind k, double rate) -> Tick {
        if (rate <= 0.0 || !faults_->rollRun(k, rate))
            return 0;
        return start + 1 +
               static_cast<Tick>(
                   faults_->drawUnit(k) *
                   static_cast<double>(s.scheduleWindowTicks));
    };
    auto armOn = [&](std::uint32_t shard, Tick at,
                     std::function<void()> fn, const char *name) {
        auto ev = std::make_unique<EventFunctionWrapper>(
            std::move(fn), name);
        EventQueue *q = &shards_[shard]->eq;
        q->schedule(ev.get(), at);
        faultEvents_.push_back(ArmedFault{q, std::move(ev)});
    };
    auto armMarker = [&](FaultKind k, double rate, bool stick,
                         const char *name, const char *traceName) {
        Tick at = armAt(k, rate);
        if (at == 0)
            return;
        auto c = static_cast<ClusterId>(faults_->draw(k) %
                                        cfg_.numClusters);
        ClusterKb &kb = image_->cluster(c);
        if (kb.numLocalNodes() == 0)
            return;
        auto m = static_cast<MarkerId>(faults_->draw(k) %
                                       capacity::numMarkers);
        auto l = static_cast<LocalNodeId>(faults_->draw(k) %
                                          kb.numLocalNodes());
        std::uint32_t shard = shardOf(c);
        armOn(shard, at, [this, c, m, l, stick, shard, traceName] {
            if (SNAP_TRACE_ON(trace::kFault)) {
                trace::simInstant(trace::kFault,
                                  shards_[shard]->ctx.tracePid,
                                  trace::kTidMachine, traceName,
                                  shards_[shard]->eq.curTick());
            }
            ClusterKb &ckb = image_->cluster(c);
            MarkerStore &ms = ckb.markers();
            FaultReport &t = faults_->tallyFor(c);
            if (!stick && ms.test(m, l)) {
                ms.clear(m, l);
                ++t.markerFlips;
                return;
            }
            ms.set(m, l, 1.0f, ckb.globalId(l));
            if (stick)
                ++t.markerSticks;
            else
                ++t.markerFlips;
        }, name);
    };

    armMarker(FaultKind::MarkerFlip, s.markerFlipRate, false,
              "fault.markerFlip", "fault.marker_flip");
    armMarker(FaultKind::MarkerStick, s.markerStickRate, true,
              "fault.markerStick", "fault.marker_stick");

    if (Tick at = armAt(FaultKind::SyncWedge, s.syncWedgeRate)) {
        // A phantom creation credit that is never consumed: the
        // level-0 completion aggregate can no longer reach zero,
        // exactly a lost completion pulse in the sync tree.  Shard
        // 0's tree takes the phantom (the merged sum is what wedges);
        // shard 0 is the coordinator, so the master tally is safe.
        armOn(0, at, [this] {
            shards_[0]->sync->created(0, shards_[0]->eq.curTick());
            ++faults_->tally().syncWedges;
            if (SNAP_TRACE_ON(trace::kFault)) {
                trace::simInstant(trace::kFault,
                                  shards_[0]->ctx.tracePid,
                                  trace::kTidMachine,
                                  "fault.sync_wedge",
                                  shards_[0]->eq.curTick());
            }
        }, "fault.syncWedge");
    }

    if (Tick at = armAt(FaultKind::DeadCluster, s.deadClusterRate)) {
        auto c = static_cast<ClusterId>(
            faults_->draw(FaultKind::DeadCluster) %
            cfg_.numClusters);
        std::uint32_t shard = shardOf(c);
        armOn(shard, at, [this, c, shard] {
            faults_->markDead(c);
            ++faults_->tallyFor(c).deadClusters;
            if (SNAP_TRACE_ON(trace::kFault)) {
                trace::simInstant(trace::kFault,
                                  shards_[shard]->ctx.tracePid,
                                  trace::kTidMachine,
                                  "fault.dead_cluster",
                                  shards_[shard]->eq.curTick());
            }
        }, "fault.deadCluster");
    }
}

void
SnapMachine::pollMergedSync()
{
    const bool wait_barrier = controller_->awaitingBarrier();
    const bool draining = controller_->draining();
    if (!wait_barrier && !draining)
        return;

    bool idle = true;
    std::size_t at_barrier = 0;
    Tick tstar = 0;
    std::uint64_t msgs = 0;
    for (auto &sh : shards_) {
        idle = idle && sh->sync->allIdle();
        at_barrier += sh->sync->numAtBarrier();
        tstar = std::max(tstar, sh->sync->lastMutation());
        msgs += sh->stats.messagesSent;
    }
    if (!idle)
        return;
    for (std::uint8_t l = 0; l < numSyncLevels; ++l) {
        std::int64_t sum = 0;
        for (auto &sh : shards_)
            sum += sh->sync->counter(l);
        if (sum != 0)
            return;
    }
    // Sync state is stable once the merged predicate holds (nothing
    // can create work), so the max mutation tick IS the tick the
    // predicate became true — identical to the single-shard
    // callback's notification tick.
    if (wait_barrier) {
        if (at_barrier == cfg_.numClusters)
            controller_->onSyncCompleteAt(tstar, msgs);
    } else {
        controller_->onQuiescentAt(tstar);
    }
}

bool
SnapMachine::runWindowed(Tick start, bool faulty)
{
    const Tick lag = wire_->lag();
    const Tick budget = faulty ? faults_->spec().watchdogTicks : 0;

    Tick boundary = start;

    // Single-threaded coordinator step between two windows.  Returns
    // false when the run is over (drained or watchdog abort).
    auto step = [&]() -> bool {
        wire_->flushOutboxes();
        pollMergedSync();

        // Done when nothing is pending anywhere but never-fired
        // scheduled faults: the program finished and drained its
        // trailing credits, or it wedged with the array idle.
        bool drained = wire_->empty();
        if (drained) {
            for (auto &sh : shards_) {
                std::size_t armed = 0;
                for (auto &fe : faultEvents_)
                    if (fe.eq == &sh->eq && fe.ev->scheduled())
                        ++armed;
                if (sh->eq.numScheduled() != armed) {
                    drained = false;
                    break;
                }
            }
        }
        if (drained)
            return false;
        // The watchdog lives on the boundary grid, which is a pure
        // function of simulated state — so whether it fires (and the
        // abort point) is identical at every thread count.
        if (budget != 0 && boundary - start > budget) {
            faults_->tally().watchdogFired = true;
            return false;
        }
        // Next window: [min pending tick, that + lag).  Every
        // deliverable staged inside it arrives >= its staging tick +
        // lag >= the next boundary, so exchanging at boundaries
        // misses nothing.  Jumping to the earliest pending event
        // (instead of boundary + lag) skips idle stretches, e.g. the
        // wait for a far-future armed fault.
        Tick min_next = maxTick;
        for (auto &sh : shards_)
            min_next = std::min(min_next, sh->eq.nextEventTick());
        snap_assert(min_next != maxTick,
                    "windowed run stalled with deliverables in "
                    "flight");
        boundary = min_next + lag;
        return true;
    };

    if (numShards_ == 1) {
        while (step())
            shards_[0]->eq.runBefore(boundary);
        return controller_->finished();
    }

    std::atomic<bool> stop{false};
    SpinBarrier enter(numShards_);
    SpinBarrier exit(numShards_);
    auto worker = [&](std::uint32_t s) {
        EventQueue &q = shards_[s]->eq;
        for (;;) {
            enter.arriveAndWait();
            if (stop.load(std::memory_order_acquire))
                break;
            q.runBefore(boundary);
            exit.arriveAndWait();
        }
        hostprof::foldThread();
    };
    std::vector<std::thread> threads;
    threads.reserve(numShards_ - 1);
    for (std::uint32_t s = 1; s < numShards_; ++s)
        threads.emplace_back(worker, s);
    // The calling thread coordinates and drives shard 0.  `boundary`
    // and `stop` are published by the enter barrier and shard state
    // is collected after the exit barrier.
    for (;;) {
        if (!step()) {
            stop.store(true, std::memory_order_release);
            enter.arriveAndWait();
            break;
        }
        enter.arriveAndWait();
        shards_[0]->eq.runBefore(boundary);
        exit.arriveAndWait();
    }
    for (auto &t : threads)
        t.join();
    return controller_->finished();
}

void
SnapMachine::checkIntegrity(const Program &prog,
                            const MarkerStore &entry, RunResult &result)
{
    result.fault.integrityChecked = true;
    // The shadow network is never mutated: integrity runs only for
    // pure programs (no maintenance opcodes).
    ReferenceInterpreter ref(
        const_cast<SemanticNetwork &>(*shadowNet_));
    ref.store() = entry;
    ResultSet want = ref.run(prog);
    bool ok = resultsEquivalent(want, result.results) &&
              markersEquivalent(ref.store(), image_->flatten());
    result.fault.integrityFailed = !ok;
}

RunResult
SnapMachine::run(const Program &prog)
{
    snap_assert(image_ != nullptr,
                "run() before loadKb(): no knowledge base");
    snap_assert(!poisoned_,
                "run() on a poisoned machine: repair() first");
    for (auto &sh : shards_)
        snap_assert(sh->eq.empty(), "run() while events are pending");
    snap_assert(wire_->empty(), "run() with deliverables in flight");

    const bool faulty = faults_ && faults_->spec().any();
    // The windowed driver serves every sharded run, and every fault
    // run regardless of shard count: the watchdog's boundary grid
    // must not depend on the thread count.
    const bool windowed = faulty || numShards_ > 1;

    stats_ = ExecBreakdown{};
    for (auto &sh : shards_) {
        sh->stats = ExecBreakdown{};
        sh->stats.categoryTimer.recordIntervals(numShards_ > 1);
        sh->alphaPerProp.assign(prog.size(), 0);
        sh->ctx.rules = &prog.rules();
        sh->ctx.alphaPerProp = &sh->alphaPerProp;
    }
    for (auto &c : clusters_)
        c->resetForRun();

    // Under a live plan, capture the entry marker state the integrity
    // shadow will replay from.
    std::unique_ptr<MarkerStore> entry;
    if (faulty) {
        faults_->beginRun();
        if (shadowNet_ && programIsPure(prog))
            entry = std::make_unique<MarkerStore>(image_->flatten());
    }

    // Realign the shard clocks at a common run start (their last
    // events of the previous run landed at different ticks).
    const Tick start = now();
    for (auto &sh : shards_)
        sh->eq.advanceTo(start);

    controller_->startProgram(prog);
    if (faulty)
        scheduleRunFaults(start);

    bool completed;
    if (!windowed) {
        shards_[0]->eq.run();
        completed = true;
        snap_assert(controller_->finished(),
                    "event queue drained but the program did not "
                    "finish (deadlock in the machine model)");
    } else {
        completed = runWindowed(start, faulty);
        if (!faulty) {
            snap_assert(completed,
                        "event queues drained but the program did "
                        "not finish (deadlock in the machine model)");
        }
    }

    if (faulty) {
        // Disarm never-fired scheduled faults and drop whatever an
        // abort left in flight.  Completed runs are already drained,
        // so this is a no-op for them.
        for (auto &fe : faultEvents_)
            if (fe.ev->scheduled())
                fe.eq->deschedule(fe.ev.get());
        for (auto &sh : shards_)
            sh->eq.clearPending();
        faultEvents_.clear();
        if (!completed)
            faults_->tally().wedged = true;
        // A watchdog abort can stop shards with units mid-work; force
        // the union intervals closed at each shard's own present so
        // the partial category times stay meaningful.
        for (auto &sh : shards_)
            sh->stats.categoryTimer.closeAll(sh->eq.curTick());
    } else {
        for (auto &sh : shards_)
            snap_assert(sh->stats.categoryTimer.allClosed(),
                        "ActiveTimer interval left open");
    }

    // Simulated wall time ends at the controller's finish tick; the
    // trailing credit deliverables that drain afterwards are wire
    // bookkeeping, not program execution.
    stats_.wallTicks =
        (completed ? controller_->finishTick() : now()) - start;

    // --- fold the shard-local state into the machine-wide view ----
    for (auto &sh : shards_)
        stats_.addShard(sh->stats);
    stats_.msgsPerEpoch = std::move(shards_[0]->stats.msgsPerEpoch);
    if (numShards_ == 1) {
        stats_.categoryTimer.mergeClosed(
            shards_[0]->stats.categoryTimer);
    } else {
        std::vector<const ActiveTimer *> parts;
        parts.reserve(numShards_);
        for (auto &sh : shards_)
            parts.push_back(&sh->stats.categoryTimer);
        stats_.categoryTimer.mergeUnion(parts);
    }

    // Per-cluster deltas fold in canonical cluster order so the
    // floating-point accumulator state is independent of the shard
    // layout and thread count.
    for (auto &cl : clusters_) {
        Cluster::IcnDelta &d = cl->icnDelta();
        icn_->messagesInjected += static_cast<double>(d.injected);
        icn_->hopsTraversed += static_cast<double>(d.hops);
        icn_->relays += static_cast<double>(d.relays);
        icn_->blockedSends += static_cast<double>(d.blockedSends);
        icn_->messagesDropped += static_cast<double>(d.dropped);
        icn_->hopDist.merge(d.hopDist);
        icn_->latency.merge(d.latency);
        stats_.msgLatency.merge(cl->msgLatencyDelta());
    }

    {
        std::vector<PerfNet::View *> views;
        views.reserve(numShards_);
        for (auto &sh : shards_)
            views.push_back(&sh->perf);
        perf_->fold(views);
    }

    if (faulty)
        faults_->foldTallies();

    if (SNAP_TRACE_ON(trace::kMachine)) {
        trace::simSpan(trace::kMachine, shards_[0]->ctx.tracePid,
                       trace::kTidMachine, "machine.run", start,
                       start + stats_.wallTicks);
        std::uint64_t flow = trace::takeArmedFlow();
        if (flow != 0) {
            trace::simFlowEnd(trace::kMachine,
                              shards_[0]->ctx.tracePid,
                              trace::kTidMachine, flow, start);
        }
    }
    if (faulty && !completed && SNAP_TRACE_ON(trace::kFault)) {
        trace::simInstant(trace::kFault, shards_[0]->ctx.tracePid,
                          trace::kTidMachine,
                          faults_->tally().watchdogFired
                              ? "fault.watchdog_abort"
                              : "fault.wedge_demoted",
                          now());
    }

    RunResult result;
    if (completed) {
        for (std::size_t i = 0; i < prog.size(); ++i) {
            if (prog[i].op != Opcode::Propagate)
                continue;
            std::uint64_t alpha = 0;
            for (auto &sh : shards_)
                alpha += sh->alphaPerProp[i];
            stats_.alphaDist.sample(static_cast<double>(alpha));
        }
        result.results = controller_->takeResults();
    } else {
        // Component state (inboxes, sync counters, controller phase,
        // in-flight deliverables) is dirty; refuse further runs until
        // repair().
        poisoned_ = true;
    }
    result.wallTicks = stats_.wallTicks;
    result.stats = stats_;
    if (faulty) {
        result.fault = faults_->tally();
        if (completed && entry)
            checkIntegrity(prog, *entry, result);
    }

    for (auto &sh : shards_) {
        sh->ctx.rules = nullptr;
        sh->ctx.alphaPerProp = nullptr;
    }
    return result;
}

std::string
SnapMachine::formatComponentStats() const
{
    snap_assert(icn_ != nullptr, "stats before loadKb()");
    std::ostringstream os;

    stats::Group icn_group("icn");
    icn_group.addScalar("messagesInjected",
                        &icn_->messagesInjected);
    icn_group.addScalar("hopsTraversed", &icn_->hopsTraversed);
    icn_group.addScalar("relays", &icn_->relays);
    icn_group.addScalar("blockedSends", &icn_->blockedSends);
    icn_group.addScalar("messagesDropped", &icn_->messagesDropped);
    icn_group.addDistribution("hops", &icn_->hopDist);
    icn_group.addDistribution("latencyTicks", &icn_->latency);
    os << icn_group.format();

    stats::Group perf_group("perfNet");
    perf_group.addScalar("emitted", &perf_->emitted);
    perf_group.addScalar("dropped", &perf_->droppedRecords);
    os << perf_group.format();

    std::uint64_t created = 0, consumed = 0;
    for (const auto &sh : shards_) {
        created += sh->sync->totalCreated();
        consumed += sh->sync->totalConsumed();
    }
    os << "sync.totalCreated " << created << "\n";
    os << "sync.totalConsumed " << consumed << "\n";

    for (const auto &c : clusters_) {
        os << "cluster" << c->id() << ".activationOutHighWater "
           << c->activationOutHighWater() << "\n";
        os << "cluster" << c->id() << ".arrivalsHighWater "
           << c->arrivalsHighWater() << "\n";
        os << "cluster" << c->id() << ".muBusyMs "
           << ticksToMs(c->muBusyLocal()) << "\n";
    }
    return os.str();
}

void
SnapMachine::exportMetrics(MetricsRegistry &reg,
                           MetricsRegistry::Labels labels) const
{
    snap_assert(icn_ != nullptr, "metrics before loadKb()");

    stats::Group icn_group("icn");
    icn_group.addScalar("messagesInjected",
                        &icn_->messagesInjected);
    icn_group.addScalar("hopsTraversed", &icn_->hopsTraversed);
    icn_group.addScalar("relays", &icn_->relays);
    icn_group.addScalar("blockedSends", &icn_->blockedSends);
    icn_group.addScalar("messagesDropped", &icn_->messagesDropped);
    icn_group.addDistribution("hops", &icn_->hopDist);
    icn_group.addDistribution("latencyTicks", &icn_->latency);
    icn_group.exportTo(reg, labels);

    stats::Group perf_group("perfNet");
    perf_group.addScalar("emitted", &perf_->emitted);
    perf_group.addScalar("dropped", &perf_->droppedRecords);
    perf_group.exportTo(reg, labels);

    std::uint64_t created = 0, consumed = 0;
    for (const auto &sh : shards_) {
        created += sh->sync->totalCreated();
        consumed += sh->sync->totalConsumed();
    }
    reg.counter("snap_sync_total_created",
                static_cast<double>(created),
                "sync-tree creation credits", labels);
    reg.counter("snap_sync_total_consumed",
                static_cast<double>(consumed),
                "sync-tree consumption credits", labels);

    for (const auto &c : clusters_) {
        MetricsRegistry::Labels l = labels;
        l.emplace_back("cluster", formatString("%u", c->id()));
        reg.gauge("snap_cluster_activation_out_high_water",
                  static_cast<double>(c->activationOutHighWater()),
                  "activation-out queue high-water mark", l);
        reg.gauge("snap_cluster_arrivals_high_water",
                  static_cast<double>(c->arrivalsHighWater()),
                  "arrival queue high-water mark", l);
        reg.counter("snap_cluster_mu_busy_ticks",
                    static_cast<double>(c->muBusyLocal()),
                    "cumulative MU busy ticks on this cluster", l);
    }
}

} // namespace snap
