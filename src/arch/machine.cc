#include "arch/machine.hh"

#include <algorithm>
#include <utility>

#include "runtime/reference.hh"
#include "trace/trace.hh"

namespace snap
{

SnapMachine::SnapMachine(MachineConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.validate();
}

SnapMachine::~SnapMachine() = default;

void
SnapMachine::loadKb(const SemanticNetwork &net)
{
    // Tear down any previous array (events must be drained first).
    snap_assert(eq_.empty(), "loadKb while events are pending");
    controller_.reset();
    clusters_.clear();

    image_ = std::make_unique<KbImage>(net, cfg_);
    wireArray();
}

void
SnapMachine::loadKb(const KbImage &image)
{
    snap_assert(eq_.empty(), "loadKb while events are pending");
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

void
SnapMachine::wireArray()
{
    icn_ = std::make_unique<HypercubeIcn>(cfg_.numClusters, cfg_.t);
    perf_ = std::make_unique<PerfNet>(cfg_.numProcessors() + 1,
                                      cfg_.t, cfg_.perfNetEnabled);
    wire_ = std::make_unique<Wire>(eq_, cfg_.numClusters + 1,
                                   wireLag());
    sync_ = std::make_unique<SyncTree>(cfg_.numClusters);
    if (faults_)
        faults_->bindClusters(cfg_.numClusters);

    ctx_ = MachineContext{};
    ctx_.eq = &eq_;
    ctx_.cfg = &cfg_;
    ctx_.image = image_.get();
    ctx_.icn = icn_.get();
    ctx_.sync = sync_.get();
    // Units skip their PerfNet calls outright when the network is off.
    ctx_.perf = cfg_.perfNetEnabled ? perf_.get() : nullptr;
    ctx_.stats = &stats_;
    ctx_.wire = wire_.get();
    ctx_.faults = faults_.get();
    ctx_.tracePid = trace::kSimPidBase + cfg_.traceDomain;

    if (trace::active())
        nameTraceTracks();

    std::uint32_t pe_base = 0;
    for (ClusterId c = 0; c < cfg_.numClusters; ++c) {
        clusters_.push_back(std::make_unique<Cluster>(
            ctx_, c, cfg_.mus(c), pe_base));
        wire_->bindEndpoint(c, clusters_.back().get());
        pe_base += 2 + cfg_.mus(c);
    }
    controller_ =
        std::make_unique<Controller>(ctx_, cfg_.numClusters);
    wire_->bindEndpoint(cfg_.numClusters, controller_.get());

    // Barrier completion and quiescence are reported synchronously at
    // the completing sync-tree mutation.
    sync_->onComplete([this] {
        controller_->onSyncCompleteAt(sync_->lastMutation(),
                                      stats_.messagesSent);
    });
    sync_->onQuiescent([this] {
        controller_->onQuiescentAt(sync_->lastMutation());
    });
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
    ctx_.faults = faults_.get();
}

void
SnapMachine::clearFaults()
{
    faults_.reset();
    ctx_.faults = nullptr;
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
    // re-wire; the queue survives too, so simulated time keeps moving
    // forward.
    eq_.clearPending();
    wire_->clear();
    controller_.reset();
    clusters_.clear();
    wireArray();
    poisoned_ = false;
    if (SNAP_TRACE_ON(trace::kFault)) {
        trace::simInstant(trace::kFault, ctx_.tracePid,
                          trace::kTidMachine, "fault.repair",
                          eq_.curTick());
    }
}

void
SnapMachine::scheduleRunFaults(Tick start)
{
    const FaultSpec &s = faults_->spec();

    // All entropy is drawn here, before the run starts, on the
    // machine stream and in a fixed order — the injected pattern is a
    // pure function of the plan state.
    auto armAt = [&](FaultKind k, double rate) -> Tick {
        if (rate <= 0.0 || !faults_->rollRun(k, rate))
            return 0;
        return start + 1 +
               static_cast<Tick>(
                   faults_->drawUnit(k) *
                   static_cast<double>(s.scheduleWindowTicks));
    };
    auto arm = [&](Tick at, std::function<void()> fn,
                   const char *name) {
        auto ev = std::make_unique<EventFunctionWrapper>(
            std::move(fn), name);
        eq_.schedule(ev.get(), at);
        faultEvents_.push_back(std::move(ev));
    };
    auto traceFault = [this](const char *name) {
        if (SNAP_TRACE_ON(trace::kFault)) {
            trace::simInstant(trace::kFault, ctx_.tracePid,
                              trace::kTidMachine, name,
                              eq_.curTick());
        }
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
        arm(at, [this, c, m, l, stick, traceFault, traceName] {
            traceFault(traceName);
            ClusterKb &ckb = image_->cluster(c);
            MarkerStore &ms = ckb.markers();
            FaultReport &t = faults_->tally();
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
        // exactly a lost completion pulse in the sync tree.
        arm(at, [this, traceFault] {
            sync_->created(0, eq_.curTick());
            ++faults_->tally().syncWedges;
            traceFault("fault.sync_wedge");
        }, "fault.syncWedge");
    }

    if (Tick at = armAt(FaultKind::DeadCluster, s.deadClusterRate)) {
        auto c = static_cast<ClusterId>(
            faults_->draw(FaultKind::DeadCluster) %
            cfg_.numClusters);
        arm(at, [this, c, traceFault] {
            faults_->markDead(c);
            ++faults_->tally().deadClusters;
            traceFault("fault.dead_cluster");
        }, "fault.deadCluster");
    }
}

bool
SnapMachine::runWatched(Tick start)
{
    const Tick lag = wireLag();
    const Tick budget = faults_->spec().watchdogTicks;
    Tick boundary = start;
    for (;;) {
        // Done when nothing is pending but never-fired scheduled
        // faults and no slot release is still ahead: the program
        // finished and its trailing releases retired, or it wedged
        // with the array idle.
        std::size_t armed = 0;
        for (const auto &ev : faultEvents_)
            armed += ev->scheduled() ? 1 : 0;
        if (eq_.numScheduled() == armed &&
            wire_->nextRelease() == maxTick)
            break;
        if (budget != 0 && boundary - start > budget) {
            faults_->tally().watchdogFired = true;
            break;
        }
        // Jumping to the earliest pending event or release skips
        // idle stretches, e.g. the wait for a far-future armed fault.
        // A release counts as a point in time like an event: the
        // clock reaches the latest one the step retires.
        boundary =
            std::min(eq_.nextEventTick(), wire_->nextRelease()) + lag;
        eq_.runBefore(boundary);
        eq_.advanceTo(wire_->retireBefore(boundary));
    }
    return controller_->finished();
}

void
SnapMachine::checkIntegrity(const Program &prog, MarkerStore entry,
                            RunResult &result)
{
    result.fault.integrityChecked = true;
    // The shadow network is never mutated: integrity runs only for
    // pure programs (no maintenance opcodes).
    ReferenceInterpreter ref(
        const_cast<SemanticNetwork &>(*shadowNet_));
    ref.store() = std::move(entry);
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
    snap_assert(eq_.empty(), "run() while events are pending");
    snap_assert(wire_->empty(), "run() with deliverables in flight");

    const bool faulty = faults_ && faults_->spec().any();

    stats_ = ExecBreakdown{};
    alphaPerProp_.assign(prog.size(), 0);
    ctx_.rules = &prog.rules();
    ctx_.alphaPerProp = &alphaPerProp_;
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

    const Tick start = now();
    controller_->startProgram(prog);

    bool completed;
    if (!faulty) {
        eq_.run();
        // The run ends once its last slot release is due, so the next
        // run starts where the releases leave the clock.
        eq_.advanceTo(wire_->retireBefore(maxTick));
        completed = true;
        snap_assert(controller_->finished(),
                    "event queue drained but the program did not "
                    "finish (deadlock in the machine model)");
        snap_assert(stats_.categoryTimer.allClosed(),
                    "ActiveTimer interval left open");
    } else {
        scheduleRunFaults(start);
        completed = runWatched(start);
        // Disarm never-fired scheduled faults and drop whatever an
        // abort left in flight.  Completed runs are already drained,
        // so this is a no-op for them.
        for (auto &ev : faultEvents_)
            if (ev->scheduled())
                eq_.deschedule(ev.get());
        eq_.clearPending();
        faultEvents_.clear();
        if (!completed)
            faults_->tally().wedged = true;
        // A watchdog abort can stop units mid-work; force the
        // category intervals closed at the present so the partial
        // category times stay meaningful.
        stats_.categoryTimer.closeAll(eq_.curTick());
    }

    // Simulated wall time ends at the controller's finish tick; the
    // slot releases still due afterwards are queue bookkeeping, not
    // program execution.
    stats_.wallTicks =
        (completed ? controller_->finishTick() : now()) - start;

    // Per-cluster deltas fold in canonical cluster order, which fixes
    // the floating-point accumulator state.
    for (auto &cl : clusters_) {
        Cluster::IcnDelta &d = cl->icnDelta();
        icn_->messagesInjected += d.injected;
        icn_->hopsTraversed += d.hops;
        icn_->relays += d.relays;
        icn_->blockedSends += d.blockedSends;
        icn_->messagesDropped += d.dropped;
        icn_->hopDist.merge(d.hopDist);
        icn_->latency.merge(d.latency);
        stats_.msgLatency.merge(cl->msgLatencyDelta());
    }
    perf_->endRun();

    if (SNAP_TRACE_ON(trace::kMachine)) {
        trace::simSpan(trace::kMachine, ctx_.tracePid,
                       trace::kTidMachine, "machine.run", start,
                       start + stats_.wallTicks);
        std::uint64_t flow = trace::takeArmedFlow();
        if (flow != 0) {
            trace::simFlowEnd(trace::kMachine, ctx_.tracePid,
                              trace::kTidMachine, flow, start);
        }
    }
    if (faulty && !completed && SNAP_TRACE_ON(trace::kFault)) {
        trace::simInstant(trace::kFault, ctx_.tracePid,
                          trace::kTidMachine,
                          faults_->tally().watchdogFired
                              ? "fault.watchdog_abort"
                              : "fault.wedge_demoted",
                          now());
    }

    RunResult result;
    if (completed) {
        for (std::size_t i = 0; i < prog.size(); ++i) {
            if (prog[i].op == Opcode::Propagate)
                stats_.alphaDist.sample(
                    static_cast<double>(alphaPerProp_[i]));
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
            checkIntegrity(prog, std::move(*entry), result);
    }

    ctx_.rules = nullptr;
    ctx_.alphaPerProp = nullptr;
    return result;
}

void
SnapMachine::exportMetrics(MetricsRegistry &reg,
                           MetricsRegistry::Labels labels) const
{
    snap_assert(icn_ != nullptr, "metrics before loadKb()");

    // Component stats export as snap_<component>_<stat>, by stat
    // name within each component.
    auto counter = [&](const char *component, const char *stat,
                       std::uint64_t v) {
        reg.counter(formatString("snap_%s_%s", component, stat),
                    static_cast<double>(v),
                    formatString("component counter %s.%s", component,
                                 stat),
                    labels);
    };
    auto distribution = [&](const char *stat,
                            const stats::Distribution &d) {
        const std::string base = formatString("snap_icn_%s", stat);
        reg.counter(base + "_count", static_cast<double>(d.count()),
                    formatString("sample count of icn.%s", stat),
                    labels);
        reg.counter(base + "_sum", d.sum(),
                    formatString("sample sum of icn.%s", stat), labels);
        reg.gauge(base + "_min", d.min(), "", labels);
        reg.gauge(base + "_max", d.max(), "", labels);
        reg.gauge(base + "_mean", d.mean(), "", labels);
    };
    counter("icn", "blockedSends", icn_->blockedSends);
    counter("icn", "hopsTraversed", icn_->hopsTraversed);
    counter("icn", "messagesDropped", icn_->messagesDropped);
    counter("icn", "messagesInjected", icn_->messagesInjected);
    counter("icn", "relays", icn_->relays);
    distribution("hops", icn_->hopDist);
    distribution("latencyTicks", icn_->latency);
    counter("perfNet", "dropped", perf_->droppedRecords);
    counter("perfNet", "emitted", perf_->emitted);

    reg.counter("snap_sync_total_created",
                static_cast<double>(sync_->totalCreated()),
                "sync-tree creation credits", labels);
    reg.counter("snap_sync_total_consumed",
                static_cast<double>(sync_->totalConsumed()),
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
