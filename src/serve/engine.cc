#include "serve/engine.hh"

#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/trace.hh"

namespace snap
{
namespace serve
{

namespace
{

double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** True when every node id that @p prog makes the machine place (or
 *  the reference interpreter index) is below @p num_nodes. */
bool
nodesWithin(const Program &prog, std::uint32_t num_nodes)
{
    for (const Instruction &in : prog.instructions()) {
        switch (in.op) {
          case Opcode::Create:
            if (in.endNode >= num_nodes)
                return false;
            [[fallthrough]];
          case Opcode::Delete:
          case Opcode::SetColor:
          case Opcode::SetWeight:
          case Opcode::SearchNode:
            if (in.node >= num_nodes)
                return false;
            break;
          case Opcode::MarkerCreate:
          case Opcode::MarkerDelete:
            if (in.endNode >= num_nodes)
                return false;
            break;
          default:
            break;
        }
    }
    return true;
}

} // namespace

const char *
requestStatusName(RequestStatus s)
{
    switch (s) {
      case RequestStatus::Ok: return "ok";
      case RequestStatus::Rejected: return "rejected";
      case RequestStatus::TimedOut: return "timed-out";
      case RequestStatus::Failed: return "failed";
    }
    return "?";
}

std::uint64_t
requestSeed(std::uint64_t base_seed, std::uint64_t request_id)
{
    // One splitmix64 step over the combined word: well-mixed,
    // platform-independent, and trivially replayable.
    return splitmix64(base_seed + 0x9e3779b97f4a7c15ull * request_id);
}

ServeEngine::ServeEngine(const SemanticNetwork &net, ServeConfig cfg)
    : ServeEngine(net, nullptr, std::move(cfg))
{
}

ServeEngine::ServeEngine(const SemanticNetwork &net,
                         std::unique_ptr<KbImage> image, ServeConfig cfg)
    : cfg_(std::move(cfg)),
      queue_(cfg_.queueCapacity),
      sessions_(net.numNodes()),
      metrics_(cfg_.numWorkers),
      startedAt_(Clock::now())
{
    if (cfg_.numWorkers < 1)
        snap_fatal("ServeConfig.numWorkers must be >= 1");
    if (image) {
        // Adopting a deserialized image: its partition decides the
        // cluster count, not the configured default.
        if (image->numNodes() != net.numNodes()) {
            snap_fatal("adopted image holds %u nodes but the network "
                       "has %u", image->numNodes(), net.numNodes());
        }
        cfg_.machine.numClusters = image->numClusters();
    }
    cfg_.machine.validate();
    cfg_.faults.validate();

    // Compile once (or adopt the pre-compiled image); stamp
    // bit-identical replicas from the master.
    master_ = image ? std::move(image)
                    : std::make_unique<KbImage>(net, cfg_.machine);
    const bool faulty = cfg_.faults.any();
    if (faulty) {
        // Functional shadow for end-of-run integrity checks: a plain
        // copy of the source network, replayed by the reference
        // interpreter against each run's entry marker state.
        shadowNet_ = std::make_unique<SemanticNetwork>(net);
    }
    machines_.reserve(cfg_.numWorkers);
    health_.assign(cfg_.numWorkers, 0);
    for (std::uint32_t w = 0; w < cfg_.numWorkers; ++w) {
        // Each replica gets its own trace domain (Perfetto
        // "process"), so the per-machine simulated-time tracks of
        // different workers never interleave.
        MachineConfig worker_cfg = cfg_.machine;
        worker_cfg.traceDomain = w;
        machines_.push_back(
            std::make_unique<SnapMachine>(worker_cfg));
        machines_.back()->loadKb(*master_);
        if (faulty) {
            // Independent per-replica fault stream: same plan, seed
            // re-mixed with the worker index.
            FaultSpec spec = cfg_.faults;
            spec.seed = requestSeed(spec.seed, w);
            machines_.back()->installFaults(spec);
            machines_.back()->setIntegrityShadow(shadowNet_.get());
        }
    }

    if (trace::active()) {
        trace::nameProcess(trace::kHostPid, "snapserve host (ns)");
        trace::nameTrack(trace::kHostPid, trace::kTidAdmission,
                         "admission");
        for (std::uint32_t w = 0; w < cfg_.numWorkers; ++w) {
            trace::nameTrack(trace::kHostPid, trace::tidWorker(w),
                             formatString("worker %u", w));
        }
    }

    if (!cfg_.startPaused)
        start();
}

ServeEngine::~ServeEngine()
{
    shutdown();
}

void
ServeEngine::start()
{
    std::lock_guard<std::mutex> lock(lifecycleMu_);
    if (started_ || shutdown_)
        return;
    started_ = true;
    workers_.reserve(cfg_.numWorkers);
    for (std::uint32_t w = 0; w < cfg_.numWorkers; ++w)
        workers_.emplace_back([this, w] { workerMain(w); });
}

void
ServeEngine::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(lifecycleMu_);
        if (shutdown_)
            return;
        shutdown_ = true;
        // A paused engine must still drain whatever was admitted.
        if (!started_ && outstandingCount() > 0) {
            started_ = true;
            workers_.reserve(cfg_.numWorkers);
            for (std::uint32_t w = 0; w < cfg_.numWorkers; ++w)
                workers_.emplace_back([this, w] { workerMain(w); });
        }
    }
    queue_.close();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

std::uint64_t
ServeEngine::outstandingCount() const
{
    std::lock_guard<std::mutex> lock(doneMu_);
    return outstanding_;
}

/**
 * Shared admission: assign id/seed/deadline, answer a cache hit, or
 * take the session turn and enqueue — all under admitMu_, so queue
 * order == session order and swapImage cannot flush the cache
 * between a probe and its outstanding count.  Unless the request
 * was queued, the response is in @p early and @p pending still holds
 * the record; a rejected request's session turn is released.
 */
ServeEngine::Admission
ServeEngine::admit(Request &&req, std::unique_ptr<Pending> &pending,
                   Response &early)
{
    std::lock_guard<std::mutex> admit_lock(admitMu_);

    req.id = nextId_++;
    if (req.rngSeed == 0)
        req.rngSeed = requestSeed(cfg_.baseSeed, req.id);
    if (req.timeoutMs == 0.0)
        req.timeoutMs = cfg_.defaultTimeoutMs;

    pending->enqueuedAt = Clock::now();
    if (req.timeoutMs > 0.0) {
        pending->hasDeadline = true;
        pending->deadline =
            pending->enqueuedAt +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    req.timeoutMs));
    }

    const bool sessioned = !req.sessionId.empty();
    early.id = req.id;
    early.rngSeed = req.rngSeed;

    // Graceful degradation: during a fault storm, shed stateless
    // load at admission so retries of already-admitted work get the
    // capacity.  Session requests are never shed — their marker
    // state must advance in submission order.
    if (!sessioned && cfg_.shedThreshold > 0 &&
        stormFaults_.load(std::memory_order_relaxed) >=
            cfg_.shedThreshold) {
        metrics_.noteShed();
        if (SNAP_TRACE_ON(trace::kServe)) {
            trace::hostInstant(trace::kServe, trace::kTidAdmission,
                               "admit.shed");
        }
        early.status = RequestStatus::Rejected;
        return Admission::Refused;
    }

    // A hit never waits behind the runs in the queue.  A miss is
    // neither counted nor recorded here: its worker looks it up.
    if (!sessioned && programIsPure(req.prog)) {
        pending->cacheable = true;
        pending->hash = req.prog.contentHash();
        const std::uint64_t lookup_ns =
            SNAP_TRACE_ON(trace::kServe) ? trace::hostNowNs() : 0;
        if (!queue_.closed() &&
            cache_.probe(req.prog, pending->hash, early.results,
                         early.wallTicks)) {
            if (lookup_ns != 0) {
                trace::hostSpan(trace::kServe, trace::kTidAdmission,
                                "cache.hit", lookup_ns,
                                trace::hostNowNs());
                trace::hostAsyncBegin(trace::kServe,
                                      trace::kTidAdmission, "request",
                                      req.id);
            }
            early.status = RequestStatus::Ok;
            early.serviceMs =
                msBetween(pending->enqueuedAt, Clock::now());
            metrics_.noteAnsweredAtAdmission(early.serviceMs,
                                             early.wallTicks);
            std::lock_guard<std::mutex> lock(doneMu_);
            ++outstanding_;
            return Admission::Hit;
        }
    }

    if (sessioned)
        pending->sessionSeq = sessions_.admit(req.sessionId);
    pending->req = std::move(req);

    const std::uint64_t rid = pending->req.id;
    if (SNAP_TRACE_ON(trace::kServe))
        pending->traceAdmitNs = trace::hostNowNs();

    {
        std::lock_guard<std::mutex> lock(doneMu_);
        ++outstanding_;
    }
    if (!queue_.tryPush(pending)) {
        // Backpressure: answer immediately and release the session
        // turn so successors are not blocked behind a hole.
        if (sessioned)
            sessions_.cancel(pending->req.sessionId,
                             pending->sessionSeq);
        metrics_.noteRejected();
        if (SNAP_TRACE_ON(trace::kServe)) {
            trace::hostInstant(trace::kServe, trace::kTidAdmission,
                               "admit.reject");
        }
        early.status = RequestStatus::Rejected;
        noteDone();
        return Admission::Refused;
    }
    metrics_.noteSubmitted();
    if (SNAP_TRACE_ON(trace::kServe)) {
        // One async-nestable lifecycle per request on the admission
        // track; closed by deliverResponse.
        trace::hostAsyncBegin(trace::kServe, trace::kTidAdmission,
                              "request", rid);
    }
    return Admission::Queued;
}

std::future<Response>
ServeEngine::submit(Request req)
{
    // std::function needs a copyable target, so the promise is shared.
    auto promise = std::make_shared<std::promise<Response>>();
    std::future<Response> fut = promise->get_future();
    submit(std::move(req), [promise](Response &&resp) {
        promise->set_value(std::move(resp));
    });
    return fut;
}

void
ServeEngine::submit(Request req, std::function<void(Response &&)> done)
{
    snap_assert(done != nullptr, "submit with a null callback");
    auto pending = std::make_unique<Pending>();
    pending->callback = std::move(done);

    Response early;
    switch (admit(std::move(req), pending, early)) {
      case Admission::Queued:
        break;
      case Admission::Hit:
        deliverResponse(std::move(pending), std::move(early));
        break;
      case Admission::Refused:
        pending->callback(std::move(early));
        break;
    }
}

void
ServeEngine::deliverResponse(std::unique_ptr<Pending> p,
                             Response &&resp)
{
    if (SNAP_TRACE_ON(trace::kServe)) {
        trace::hostAsyncEnd(trace::kServe, trace::kTidAdmission,
                            "request", resp.id);
    }
    p->callback(std::move(resp));
    noteDone();
}

void
ServeEngine::workerMain(std::uint32_t idx)
{
    while (auto pending = queue_.pop())
        serveOne(idx, std::move(*pending));
}

void
ServeEngine::serveOne(std::uint32_t idx, std::unique_ptr<Pending> p)
{
    Request &req = p->req;
    const bool sessioned = !req.sessionId.empty();

    // Take the session turn first: deadline time spent waiting for a
    // predecessor counts against the request, like queue time.
    if (sessioned)
        sessions_.awaitTurn(req.sessionId, p->sessionSeq);

    Clock::time_point begin = Clock::now();
    double queue_ms = msBetween(p->enqueuedAt, begin);

    if (SNAP_TRACE_ON(trace::kServe) && p->traceAdmitNs != 0) {
        trace::hostSpan(trace::kServe, trace::tidWorker(idx),
                        "queue.wait", p->traceAdmitNs,
                        trace::hostNowNs());
    }
    if (SNAP_TRACE_ON(trace::kServe) && req.traceSampled) {
        // Stamp the inbound fleet trace id on the worker track, so
        // the serve/machine spans that follow carry the distributed
        // context a merged timeline groups by.
        trace::hostInstant(trace::kServe, trace::tidWorker(idx),
                           "trace.ctx", req.traceId, true);
    }

    Response resp;
    resp.id = req.id;
    resp.rngSeed = req.rngSeed;
    resp.worker = idx;
    resp.queueMs = queue_ms;

    if (p->hasDeadline && begin > p->deadline) {
        if (sessioned)
            sessions_.cancel(req.sessionId, p->sessionSeq);
        metrics_.noteTimedOut(queue_ms);
        if (SNAP_TRACE_ON(trace::kServe)) {
            trace::hostInstant(trace::kServe, trace::tidWorker(idx),
                               "deadline.expired");
        }
        resp.status = RequestStatus::TimedOut;
        deliverResponse(std::move(p), std::move(resp));
        return;
    }

    // A program that names a node outside the image is answered
    // Failed before anything sees it: the machine's placement would
    // assert on it.  The worker reads master_ here as quarantine
    // does; swapImage keeps the node count.
    if (!nodesWithin(req.prog, master_->numNodes())) {
        if (sessioned)
            sessions_.cancel(req.sessionId, p->sessionSeq);
        SNAP_LOG_EVERY_N(Warn, 64,
                         "serve: request %llu names a node outside "
                         "the %u-node image; answered failed",
                         static_cast<unsigned long long>(req.id),
                         master_->numNodes());
        metrics_.noteFailed(queue_ms);
        resp.status = RequestStatus::Failed;
        deliverResponse(std::move(p), std::move(resp));
        return;
    }

    // A stateless pure program is looked up again before any replica
    // runs: its answer may have been admitted while it queued.  A hit
    // is the answer of an earlier clean run of the same program
    // against this image, results and wallTicks alike.
    if (p->cacheable) {
        const std::uint64_t lookup_ns =
            SNAP_TRACE_ON(trace::kServe) ? trace::hostNowNs() : 0;
        if (cache_.lookup(req.prog, p->hash, resp.results,
                          resp.wallTicks)) {
            if (lookup_ns != 0) {
                trace::hostSpan(trace::kServe, trace::tidWorker(idx),
                                "cache.hit", lookup_ns,
                                trace::hostNowNs());
            }
            resp.serviceMs = msBetween(begin, Clock::now());
            resp.status = RequestStatus::Ok;
            metrics_.noteCompleted(idx, queue_ms, resp.serviceMs,
                                   resp.wallTicks, false);
            deliverResponse(std::move(p), std::move(resp));
            return;
        }
    }

    SnapMachine &machine = *machines_.at(idx);

    // Execute-with-recovery: re-run (from re-stamped marker state) as
    // long as fault detection trips and the retry budget allows.  On
    // a fault-free engine run.fault.ok() is vacuously true and the
    // loop is a single pass with no extra work.
    RunResult run;
    std::uint32_t attempts = 0;
    for (;;) {
        if (sessioned) {
            machine.image().restoreMarkers(
                sessions_.fetch(req.sessionId));
        } else {
            // Fresh-query state: the determinism anchor for stateless
            // requests (identical replicas + cleared markers => the
            // run is a pure function of the program).  It also wipes
            // any marker corruption a faulted attempt left behind.
            machine.image().resetMarkers();
        }
        std::uint64_t flow_id = 0;
        std::uint64_t attempt_ns = 0;
        if (SNAP_TRACE_ON(trace::kServe)) {
            // Link this host-side attempt to the simulated-time
            // machine.run span it is about to produce: emit the
            // flow start here and arm the id; SnapMachine::run
            // consumes it and emits the matching finish.
            flow_id = trace::nextFlowId();
            attempt_ns = trace::hostNowNs();
            trace::hostFlowStart(trace::kServe,
                                 trace::tidWorker(idx), flow_id,
                                 attempt_ns);
            trace::armFlow(flow_id);
        }
        run = machine.run(req.prog);
        accumulateRunStats(run.stats);
        if (flow_id != 0) {
            trace::hostSpanArg(trace::kServe, trace::tidWorker(idx),
                               "attempt", attempt_ns,
                               trace::hostNowNs(), attempts);
        }
        if (run.fault.ok())
            break;
        noteReplicaFault(idx, run.fault);
        if (attempts >= cfg_.maxRetries)
            break;
        ++attempts;
        metrics_.noteRetry();
        if (SNAP_TRACE_ON(trace::kServe)) {
            trace::hostInstant(trace::kServe, trace::tidWorker(idx),
                               "retry", attempts, true);
        }
    }
    Clock::time_point end = Clock::now();
    resp.serviceMs = msBetween(begin, end);
    resp.retries = attempts;

    if (!run.fault.ok()) {
        // Retry budget exhausted; the answer is untrustworthy and is
        // withheld.  A typed failure, never a silently wrong result.
        if (sessioned)
            sessions_.cancel(req.sessionId, p->sessionSeq);
        resp.status = RequestStatus::Failed;
        resp.faultDetected = true;
        metrics_.noteFailed(queue_ms);
        deliverResponse(std::move(p), std::move(resp));
        return;
    }

    noteReplicaOk(idx);
    if (sessioned) {
        sessions_.complete(req.sessionId, p->sessionSeq,
                           machine.image().flatten());
    }
    // Only a run with nothing injected is the fault-free answer (a
    // delay can pass the integrity shadow yet shift wallTicks).
    // Inserted before delivery, so swapImage's drain also waits for
    // it and no old-image answer lands after the flush.
    if (p->cacheable && run.fault.injected() == 0)
        cache_.insert(req.prog, p->hash, run.results, run.wallTicks);

    resp.status = RequestStatus::Ok;
    resp.results = std::move(run.results);
    resp.wallTicks = run.wallTicks;
    resp.faultDetected = attempts > 0;
    metrics_.noteCompleted(idx, queue_ms, resp.serviceMs,
                           resp.wallTicks);
    if (attempts > 0)
        metrics_.noteRecovered();
    deliverResponse(std::move(p), std::move(resp));
}

/**
 * One run attempt on replica @p idx tripped fault detection.  Repair
 * the machine if the fault wedged it, score the replica's health
 * (quarantine after quarantineThreshold consecutive faults), and
 * advance the engine-wide storm counter that drives admission
 * shedding.  health_[idx] is only ever touched by worker idx.
 */
void
ServeEngine::noteReplicaFault(std::uint32_t idx, const FaultReport &r)
{
    SnapMachine &machine = *machines_.at(idx);
    if (machine.poisoned())
        machine.repair();
    metrics_.noteFaultDetected(r.wedged || r.watchdogFired);
    // Fault storms produce one of these per failing attempt;
    // rate-limit so the log stays readable under sustained injection.
    SNAP_LOG_EVERY_N(Warn, 64,
                     "serve: replica %u tripped fault detection "
                     "(wedged=%d watchdog=%d)",
                     idx, r.wedged ? 1 : 0, r.watchdogFired ? 1 : 0);
    if (SNAP_TRACE_ON(trace::kServe)) {
        trace::hostInstant(trace::kServe, trace::tidWorker(idx),
                           "replica.fault");
    }
    stormFaults_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.quarantineThreshold > 0 &&
        ++health_[idx] >= cfg_.quarantineThreshold) {
        quarantineReplica(idx);
        health_[idx] = 0;
    }
}

void
ServeEngine::noteReplicaOk(std::uint32_t idx)
{
    health_[idx] = 0;
    stormFaults_.store(0, std::memory_order_relaxed);
}

/**
 * The replica's runs keep tripping detection: distrust its state
 * wholesale.  Re-stamp the knowledge base from the immutable master
 * image and bump the fault plan's generation so subsequent draws come
 * from a fresh stream (re-seeded replica selection — the retry does
 * not deterministically re-hit the same fault).
 */
void
ServeEngine::quarantineReplica(std::uint32_t idx)
{
    SnapMachine &machine = *machines_.at(idx);
    machine.loadKb(*master_);
    if (machine.faultPlan())
        machine.faultPlan()->bumpGeneration();
    metrics_.noteQuarantine();
    SNAP_LOG_EVERY_N(Warn, 64,
                     "serve: replica %u quarantined (re-stamped "
                     "from master, fault stream re-seeded)",
                     idx);
    if (SNAP_TRACE_ON(trace::kServe)) {
        trace::hostInstant(trace::kServe, trace::tidWorker(idx),
                           "replica.quarantine");
    }
}

bool
ServeEngine::checkImage(const SemanticNetwork &net, const KbImage &image,
                        std::string &err) const
{
    if (image.numClusters() != cfg_.machine.numClusters) {
        err = formatString("new image has %u clusters but the pool "
                           "was stamped for %u",
                           image.numClusters(),
                           cfg_.machine.numClusters);
        return false;
    }
    if (image.numNodes() != master_->numNodes()) {
        err = formatString("new image holds %u nodes but the serving "
                           "image holds %u (sessions and wire node "
                           "ids are sized by it)",
                           image.numNodes(), master_->numNodes());
        return false;
    }
    if (image.numNodes() != net.numNodes()) {
        err = formatString("new image holds %u nodes but its network "
                           "has %u", image.numNodes(), net.numNodes());
        return false;
    }
    return true;
}

/**
 * Epoch hot-swap.  Admissions are blocked (admitMu_ held) while
 * everything already admitted drains, so no request ever runs half on
 * the old image and half on the new; then every replica is re-stamped
 * — the same machinery quarantine uses, pointed at a new master — and
 * the answer cache, whose entries describe the old image, is flushed.
 * Session marker stores are global-node-id keyed and survive as long
 * as the node count matches, which is checked up front.
 */
bool
ServeEngine::swapImage(const SemanticNetwork &net,
                       std::unique_ptr<KbImage> image, std::string &err)
{
    snap_assert(image != nullptr, "swapImage(null)");
    if (!checkImage(net, *image, err))
        return false;

    std::lock_guard<std::mutex> admit_lock(admitMu_);
    drain();

    // All workers are parked in queue_.pop() now: nothing reads
    // master_ or the shadow, so the swap is plain stores.
    master_ = std::move(image);
    cache_.clear();
    if (shadowNet_) {
        auto shadow = std::make_unique<SemanticNetwork>(net);
        shadowNet_ = std::move(shadow);
    }
    for (std::uint32_t w = 0; w < cfg_.numWorkers; ++w) {
        machines_[w]->loadKb(*master_);
        if (shadowNet_)
            machines_[w]->setIntegrityShadow(shadowNet_.get());
    }
    metrics_.noteImageSwap();
    snap_inform("serve: hot-swapped knowledge image (%u nodes, %u "
                "clusters); %u replicas re-stamped",
                master_->numNodes(), master_->numClusters(),
                cfg_.numWorkers);
    return true;
}

void
ServeEngine::noteDone()
{
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        snap_assert(outstanding_ > 0, "noteDone underflow");
        --outstanding_;
        if (outstanding_ > 0)
            return;
    }
    allDone_.notify_all();
}

void
ServeEngine::drain()
{
    std::unique_lock<std::mutex> lock(doneMu_);
    allDone_.wait(lock, [&] { return outstanding_ == 0; });
}

void
ServeEngine::accumulateRunStats(const ExecBreakdown &stats)
{
    std::lock_guard<std::mutex> lock(statsMu_);
    aggExec_.merge(stats);
    // The per-epoch message series grows with every run and is not
    // exported; drop it so a long-lived engine stays bounded.
    aggExec_.msgsPerEpoch.clear();
    aggExec_.msgsPerEpoch.shrink_to_fit();
}

void
ServeEngine::exportMetrics(MetricsRegistry &reg) const
{
    metricsSnapshot().exportMetrics(reg);
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        aggExec_.exportMetrics(reg);
    }
    for (std::uint32_t w = 0; w < cfg_.numWorkers; ++w) {
        machines_[w]->exportMetrics(reg,
                                    {{"worker", std::to_string(w)}});
    }
}

MetricsSnapshot
ServeEngine::metricsSnapshot() const
{
    double uptime = std::chrono::duration<double>(
                        Clock::now() - startedAt_).count();
    MetricsSnapshot s = metrics_.snapshot(
        queue_.depth(), queue_.highWater(), queue_.capacity(), uptime);
    s.answerCache = cache_.stats();
    return s;
}

MarkerStore
ServeEngine::sessionMarkers(const std::string &id) const
{
    return sessions_.fetch(id);
}

std::vector<std::string>
ServeEngine::sessionIds() const
{
    return sessions_.sessionIds();
}

bool
ServeEngine::trySessionMarkers(const std::string &id,
                               MarkerStore &out) const
{
    return sessions_.tryFetch(id, out);
}

bool
ServeEngine::restoreSession(const std::string &id, MarkerStore state,
                            std::string &err)
{
    if (state.numNodes() != master_->numNodes()) {
        err = formatString("session checkpoint has %u nodes, the "
                           "served image has %u",
                           state.numNodes(), master_->numNodes());
        return false;
    }
    sessions_.restore(id, std::move(state));
    return true;
}

} // namespace serve
} // namespace snap
