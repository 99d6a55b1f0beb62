#include "shard/router.hh"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <sys/socket.h>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/trace.hh"

namespace snap
{
namespace shard
{

ShardRouter::ShardRouter(RouterConfig cfg)
    : cfg_(std::move(cfg)),
      ring_(static_cast<std::uint32_t>(cfg_.shards.empty()
                                           ? 1
                                           : cfg_.shards.size()),
            cfg_.vnodes)
{
    if (cfg_.shards.empty())
        snap_fatal("router needs at least one shard endpoint");
    if (cfg_.maxInflightPerShard < 1)
        snap_fatal("maxInflightPerShard must be >= 1");
    if (cfg_.replication < 1)
        snap_fatal("replication must be >= 1");
    if (cfg_.hedgeDelayMs < 0.0 || cfg_.reconnectMs < 0.0)
        snap_fatal("hedgeDelayMs / reconnectMs must be >= 0");
    if (cfg_.traceSample < 0.0 || cfg_.traceSample > 1.0)
        snap_fatal("traceSample must be in [0, 1]");
    if (cfg_.statsIntervalMs < 0.0)
        snap_fatal("statsIntervalMs must be >= 0");
    // R > N degenerates to every-shard-owns-every-key; clamp so the
    // replica-set walks terminate at the shard count.
    cfg_.replication = std::min(
        cfg_.replication, static_cast<std::uint32_t>(cfg_.shards.size()));
    shards_.reserve(cfg_.shards.size());
    down_.assign(cfg_.shards.size(), true);
    for (const std::string &text : cfg_.shards) {
        auto shard = std::make_unique<Shard>();
        std::string detail;
        if (!parseEndpoint(text, shard->ep, detail))
            snap_fatal("shard endpoint: %s", detail.c_str());
        shards_.push_back(std::move(shard));
    }
    lastStats_.resize(cfg_.shards.size());
}

ShardRouter::~ShardRouter()
{
    closing_.store(true, std::memory_order_release);
    monitorCv_.notify_all();
    replCv_.notify_all();
    pinCv_.notify_all();
    if (monitor_.joinable())
        monitor_.join();
    if (replicator_.joinable())
        replicator_.join();
    for (auto &shard : shards_) {
        if (shard->fd >= 0)
            ::shutdown(shard->fd, SHUT_RDWR);
    }
    for (auto &shard : shards_) {
        if (shard->reader.joinable())
            shard->reader.join();
        closeFd(shard->fd);
        shard->fd = -1;
    }
    // Anything still pending after the readers exited was failed by
    // their shardDown sweeps; outstanding_ is zero here for callers
    // that drained, and untracked work dies with the process for
    // those that did not.
}

bool
ShardRouter::dialShard(std::uint32_t idx, double timeout_ms,
                       std::string &detail, IoErrorKind &kind)
{
    Shard &shard = *shards_[idx];
    kind = IoErrorKind::None;
    const int fd = connectEndpoint(shard.ep, timeout_ms, detail, kind);
    if (fd < 0) {
        detail = formatString("shard %u (%s): %s", idx,
                              shard.ep.toString().c_str(),
                              detail.c_str());
        return false;
    }
    // Synchronous handshake before any reader thread owns the read
    // side.
    WireWriter w;
    encodeHello(w, HelloFrame{});
    if (!writeFrame(fd, FrameType::Hello, w.bytes())) {
        closeFd(fd);
        kind = IoErrorKind::IoError;
        detail = formatString("shard %u: hello write failed", idx);
        return false;
    }
    FrameType type;
    std::vector<std::uint8_t> payload;
    if (!readFrame(fd, type, payload, detail, kind) ||
        type != FrameType::HelloAck) {
        closeFd(fd);
        if (kind == IoErrorKind::None)
            kind = IoErrorKind::BadType;
        detail = formatString("shard %u: no hello-ack (%s)", idx,
                              detail.c_str());
        return false;
    }
    WireReader r(payload.data(), payload.size());
    HelloAckFrame ack;
    if (!decodeHelloAck(r, ack)) {
        closeFd(fd);
        kind = IoErrorKind::BadType;
        detail = formatString("shard %u: malformed hello-ack", idx);
        return false;
    }
    if (ack.version != protocolVersion) {
        closeFd(fd);
        kind = IoErrorKind::BadType;
        detail = formatString("shard %u speaks protocol %u, this "
                              "router speaks %u", idx, ack.version,
                              protocolVersion);
        return false;
    }
    if (fingerprint_ != 0 && ack.fingerprint != fingerprint_) {
        closeFd(fd);
        kind = IoErrorKind::BadType;
        detail = formatString(
            "shard %u serves image %016llx but the fleet serves "
            "%016llx — shards must serve the same knowledge", idx,
            static_cast<unsigned long long>(ack.fingerprint),
            static_cast<unsigned long long>(fingerprint_));
        return false;
    }
    if (numNodes_ != 0 && ack.numNodes != numNodes_) {
        // The session codecs are keyed to one node count.
        closeFd(fd);
        kind = IoErrorKind::BadType;
        detail = formatString("shard %u serves %u nodes, the fleet "
                              "serves %u", idx, ack.numNodes,
                              numNodes_);
        return false;
    }
    if (fingerprint_ == 0)
        fingerprint_ = ack.fingerprint;
    if (numNodes_ == 0)
        numNodes_ = ack.numNodes;
    epoch_ = std::max(epoch_, ack.epoch);
    // Clock alignment for snaptrace merge: the ack carries the
    // shard's trace-clock reading of (approximately) this instant.
    shard.clockOffsetNs.store(
        static_cast<std::int64_t>(ack.traceClockNs) -
            static_cast<std::int64_t>(trace::hostNowNs()),
        std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.fd = fd;
        shard.up = true;
    }
    shard.lastError.store(IoErrorKind::None, std::memory_order_release);
    return true;
}

bool
ShardRouter::connect(std::string &detail)
{
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        IoErrorKind kind = IoErrorKind::None;
        if (!dialShard(i, cfg_.connectTimeoutMs, detail, kind)) {
            shards_[i]->lastError.store(kind,
                                        std::memory_order_release);
            return false;
        }
    }
    {
        std::lock_guard<std::mutex> lock(downMu_);
        down_.assign(shards_.size(), false);
    }
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        shards_[i]->reader =
            std::thread([this, i] { readerMain(i); });
    }
    // Warm-backup replication (sessions survive a primary hard-kill)
    // and the monitor (hedged retries + automatic re-dial of down
    // shards) are background threads for the connection's lifetime.
    if (cfg_.replication >= 2)
        replicator_ = std::thread([this] { replicatorMain(); });
    if (cfg_.hedgeDelayMs > 0.0 || cfg_.reconnectMs > 0.0 ||
        cfg_.statsIntervalMs > 0.0)
        monitor_ = std::thread([this] { monitorMain(); });
    detail.clear();
    return true;
}

bool
ShardRouter::shardHealthy(std::uint32_t shard) const
{
    std::lock_guard<std::mutex> lock(downMu_);
    return shard < down_.size() && !down_[shard];
}

IoErrorKind
ShardRouter::shardLastError(std::uint32_t shard) const
{
    if (shard >= shards_.size())
        return IoErrorKind::None;
    return shards_[shard]->lastError.load(std::memory_order_acquire);
}

std::uint64_t
ShardRouter::rerouteCount() const
{
    std::lock_guard<std::mutex> lock(doneMu_);
    return rerouted_;
}

std::uint64_t
ShardRouter::hedgeCount() const
{
    std::lock_guard<std::mutex> lock(doneMu_);
    return hedged_;
}

std::uint64_t
ShardRouter::corruptResponseCount() const
{
    std::lock_guard<std::mutex> lock(doneMu_);
    return corruptResponses_;
}

std::uint64_t
ShardRouter::failoverCount() const
{
    std::lock_guard<std::mutex> lock(pinMu_);
    return failovers_;
}

std::uint64_t
ShardRouter::migratedCount() const
{
    std::lock_guard<std::mutex> lock(pinMu_);
    return migrated_;
}

std::uint64_t
ShardRouter::warmupCount() const
{
    std::lock_guard<std::mutex> lock(replMu_);
    return warmups_;
}

std::uint64_t
ShardRouter::drainCount() const
{
    std::lock_guard<std::mutex> lock(pinMu_);
    return drains_;
}

std::int64_t
ShardRouter::shardClockOffsetNs(std::uint32_t shard) const
{
    if (shard >= shards_.size())
        return 0;
    return shards_[shard]->clockOffsetNs.load(
        std::memory_order_acquire);
}

std::vector<SlowQuery>
ShardRouter::slowQueries() const
{
    std::lock_guard<std::mutex> lock(slowMu_);
    return std::vector<SlowQuery>(slowLog_.begin(), slowLog_.end());
}

std::uint64_t
ShardRouter::slowQueryCount() const
{
    std::lock_guard<std::mutex> lock(slowMu_);
    return slowLogged_;
}

void
ShardRouter::readerMain(std::uint32_t idx)
{
    Shard &shard = *shards_[idx];
    IoErrorKind exit_kind = IoErrorKind::None;
    for (;;) {
        FrameType type;
        std::vector<std::uint8_t> payload;
        std::string detail;
        IoErrorKind kind = IoErrorKind::None;
        if (!readFrame(shard.fd, type, payload, detail, kind)) {
            exit_kind = kind;
            break;
        }
        WireReader r(payload.data(), payload.size());
        switch (type) {
          case FrameType::Response: {
            ResponseFrame resp;
            if (!decodeResponse(r, resp)) {
                // Malformed or checksum-failed: a byzantine-corrupt
                // payload must never be served.  Treat the whole
                // connection as compromised; in-flight work fails
                // over and the monitor re-dials.
                {
                    std::lock_guard<std::mutex> lock(doneMu_);
                    ++corruptResponses_;
                }
                snap_warn("router: shard %u sent a corrupt or "
                          "malformed response", idx);
                exit_kind = IoErrorKind::BadType;
                goto done;
            }
            PendingPtr p;
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                auto it = shard.pending.find(resp.id);
                if (it != shard.pending.end()) {
                    p = std::move(it->second);
                    shard.pending.erase(it);
                }
            }
            shard.windowCv.notify_all();
            if (p) {
                p->copies.fetch_sub(1, std::memory_order_acq_rel);
                if (!p->answered.exchange(
                        true, std::memory_order_acq_rel)) {
                    // Keep the session's backup warm with its
                    // post-turn state (the turn just completed).
                    const bool warm =
                        !p->stateless &&
                        resp.status == serve::RequestStatus::Ok &&
                        cfg_.replication >= 2;
                    std::string sid =
                        warm ? p->frame.sessionId : std::string();
                    if (p->logHops)
                        noteDelivered(*p, idx, trace::hostNowNs());
                    p->done(std::move(resp));
                    noteDone();
                    if (warm)
                        enqueueWarmup(sid);
                }
                // else: the losing copy of a hedged request.
            }
            break;
          }
          case FrameType::HealthAck:
          case FrameType::PrepareAck:
          case FrameType::CommitAck:
          case FrameType::SessionState:
          case FrameType::SessionPushAck:
          case FrameType::StatsSnapshot: {
            // A control op's answer: the op that is waiting decodes
            // it and checks it is the answer it asked for.
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.controlAck.type = type;
            shard.controlAck.payload = std::move(payload);
            shard.controlReady = true;
            shard.controlCv.notify_all();
            break;
          }
          default:
            snap_warn("router: unexpected %s frame from shard %u",
                      frameTypeName(type), idx);
            exit_kind = IoErrorKind::BadType;
            goto done;
        }
    }
  done:
    if (exit_kind != IoErrorKind::None) {
        shard.lastError.store(exit_kind, std::memory_order_release);
    }
    shardDown(idx);
}

/**
 * The shard's connection is gone.  In-flight stateless requests are
 * re-dispatched to the next live shard on the ring — the answer is a
 * pure function of the program, so a re-route is invisible to the
 * client.  In-flight session requests fail (the turn's execution
 * fate is unknown; replaying it could double-apply marker state),
 * but the *session* survives when a warm backup exists: the next
 * request promotes the backup via pickSessionShard.  A hedged
 * request whose other copy is still live on another shard is simply
 * forgotten here; the surviving copy answers.
 */
void
ShardRouter::shardDown(std::uint32_t idx)
{
    Shard &shard = *shards_[idx];
    {
        std::lock_guard<std::mutex> lock(downMu_);
        if (down_[idx])
            return;
        down_[idx] = true;
    }
    if (!closing_.load(std::memory_order_acquire)) {
        snap_warn("router: shard %u (%s) is down (%s)", idx,
                  shard.ep.toString().c_str(),
                  ioErrorKindName(shard.lastError.load(
                      std::memory_order_acquire)));
    }

    std::vector<PendingPtr> orphans;
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.up = false;
        orphans.reserve(shard.pending.size());
        for (auto &kv : shard.pending)
            orphans.push_back(std::move(kv.second));
        shard.pending.clear();
    }
    shard.windowCv.notify_all();
    shard.controlCv.notify_all();
    pinCv_.notify_all();

    const bool closing = closing_.load(std::memory_order_acquire);
    for (auto &p : orphans) {
        if (p->copies.fetch_sub(1, std::memory_order_acq_rel) > 1)
            continue; // a hedged copy is still live elsewhere
        if (p->answered.load(std::memory_order_acquire))
            continue;
        if (!closing && p->stateless &&
            p->attempts < cfg_.maxRetries) {
            ++p->attempts;
            {
                std::lock_guard<std::mutex> lock(doneMu_);
                ++rerouted_;
            }
            dispatch(p);
        } else {
            failRequest(p);
        }
    }
}

std::vector<bool>
ShardRouter::effectiveDown() const
{
    std::vector<bool> down;
    {
        std::lock_guard<std::mutex> lock(downMu_);
        down = down_;
    }
    for (std::size_t i = 0; i < down.size(); ++i) {
        if (shards_[i]->draining.load(std::memory_order_acquire))
            down[i] = true;
    }
    return down;
}

ShardRouter::ShardState
ShardRouter::shardState(std::uint32_t idx) const
{
    if (shards_[idx]->draining.load(std::memory_order_acquire))
        return ShardState::Draining;
    std::lock_guard<std::mutex> lock(downMu_);
    return down_[idx] ? ShardState::Down : ShardState::Up;
}

bool
ShardRouter::pickShard(std::uint64_t key, std::uint32_t &out,
                       bool &any_draining)
{
    const std::vector<bool> down = effectiveDown();
    any_draining = false;
    bool any_up = false;
    for (std::size_t i = 0; i < down.size(); ++i)
        any_up = any_up || !down[i];
    if (!any_up) {
        // Anything not hard-down was excluded by a drain, which
        // completes — worth waiting for, unlike a death.
        std::lock_guard<std::mutex> lock(downMu_);
        for (std::size_t i = 0; i < down_.size(); ++i)
            any_draining = any_draining || !down_[i];
        return false;
    }
    out = ring_.ownerSkipping(key, down);
    return true;
}

/**
 * Choose (or re-choose) a backup owner for @p pin: the first live
 * shard of the key's replica set that is neither the primary nor
 * @p excluded.  Caller holds pinMu_.
 */
void
ShardRouter::assignBackup(SessionPin &pin, std::uint64_t key,
                          std::int64_t excluded)
{
    pin.hasBackup = false;
    if (cfg_.replication < 2)
        return;
    const std::vector<std::uint32_t> owners =
        ring_.owners(key, cfg_.replication);
    for (std::uint32_t s : owners) {
        if (s == pin.primary)
            continue;
        if (excluded >= 0 &&
            s == static_cast<std::uint32_t>(excluded))
            continue;
        if (shardState(s) != ShardState::Up)
            continue;
        pin.backup = s;
        pin.hasBackup = true;
        return;
    }
}

/**
 * The session placement state machine.  A session is pinned to a
 * primary (plus a designated warm backup when replication >= 2);
 * this resolves the pin, waiting out planned drains (the drain
 * re-pins losslessly) and promoting the backup after a hard kill
 * (the session continues from its last replicated state — bounded
 * loss, never a wrong answer).
 */
bool
ShardRouter::pickSessionShard(const std::string &sid,
                              std::uint64_t key, std::uint32_t &out)
{
    // A connection blip is not a session death: when the primary is
    // down with no warm backup but the background re-dialer is on
    // (and the shard is not retired), give revival this long before
    // declaring the session's state unreachable.
    const auto grace = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(std::max(
            5.0 * cfg_.reconnectMs, cfg_.reconnectMs > 0 ? 250.0
                                                         : 0.0)));
    const Clock::time_point give_up = Clock::now() + grace;
    std::unique_lock<std::mutex> lock(pinMu_);
    for (;;) {
        if (closing_.load(std::memory_order_acquire))
            return false;
        auto it = pins_.find(sid);
        if (it == pins_.end()) {
            // First query of this session: pin primary + backup from
            // the replica set.  A draining shard takes no new
            // sessions.
            SessionPin pin;
            bool have = false;
            const std::vector<std::uint32_t> owners =
                ring_.owners(key, cfg_.replication);
            for (std::uint32_t s : owners) {
                if (shardState(s) == ShardState::Up) {
                    pin.primary = s;
                    have = true;
                    break;
                }
            }
            if (!have)
                return false; // every replica owner is gone
            assignBackup(pin, key, -1);
            it = pins_.emplace(sid, pin).first;
        }
        SessionPin &pin = it->second;
        switch (shardState(pin.primary)) {
          case ShardState::Up:
            out = pin.primary;
            return true;
          case ShardState::Draining:
            // A planned drain is migrating this session; it re-pins
            // before the drain completes.
            pinCv_.wait_for(lock, std::chrono::milliseconds(10));
            continue;
          case ShardState::Down:
            break;
        }
        // Hard kill of the primary.
        if (pin.hasBackup &&
            shardState(pin.backup) == ShardState::Draining) {
            pinCv_.wait_for(lock, std::chrono::milliseconds(10));
            continue;
        }
        if (pin.hasBackup &&
            shardState(pin.backup) == ShardState::Up) {
            pin.primary = pin.backup;
            pin.hasBackup = false;
            assignBackup(pin, key, -1);
            ++failovers_;
            snap_warn("router: session %s failed over to shard %u",
                      sid.c_str(), pin.primary);
            continue; // loop re-evaluates the promoted primary
        }
        if (cfg_.reconnectMs > 0 &&
            !shards_[pin.primary]->retired.load(
                std::memory_order_acquire) &&
            Clock::now() < give_up) {
            // No live backup, but the primary may be re-dialed any
            // moment — its session state is still on the shard.
            pinCv_.wait_for(lock, std::chrono::milliseconds(10));
            continue;
        }
        return false; // no live owner for this session
    }
}

void
ShardRouter::failRequest(const PendingPtr &p)
{
    if (p->answered.exchange(true, std::memory_order_acq_rel))
        return;
    ResponseFrame resp;
    resp.id = p->frame.id;
    resp.rngSeed = p->frame.rngSeed;
    resp.status = serve::RequestStatus::Failed;
    p->done(std::move(resp));
    noteDone();
}

/**
 * Stamp a fresh per-attempt span id into the frame's trace context
 * and encode it.  Every attempt — the primary send, each failover
 * reroute, the hedged duplicate — gets its own span id, so each
 * wire copy anchors its own cross-process flow arrow and the merged
 * timeline shows exactly which attempt each shard execution belongs
 * to.  hopMu serializes against a concurrent encode of the same
 * frame (a reroute racing hedgeOne).
 */
std::uint64_t
ShardRouter::stampAttempt(PendingRoute &p, WireWriter &w)
{
    if (!p.sampled) {
        encodeRequest(w, p.frame);
        return 0;
    }
    std::lock_guard<std::mutex> lock(p.hopMu);
    const std::uint32_t seq = p.attemptSeq++;
    // Keyed on the trace id and attempt ordinal, so a replayed run
    // stamps the same span ids.
    const std::uint64_t span_id = splitmix64(p.traceId ^ (seq + 1));
    p.frame.traceParent = span_id;
    encodeRequest(w, p.frame);
    return span_id;
}

/** Record one attempt's hop for the slow-query log before its bytes
 *  go out: the shard can answer before the write returns, and the
 *  reader's noteDelivered must find the hop. */
void
ShardRouter::beginAttempt(PendingRoute &p, const RouterHop &hop)
{
    std::lock_guard<std::mutex> lock(p.hopMu);
    p.hops.push_back(hop);
}

/** The attempt's write returned: on success start the cross-process
 *  "xrpc" flow the shard's serve span will terminate; on failure
 *  forget the hop (nothing was sent). */
void
ShardRouter::endAttempt(PendingRoute &p, const RouterHop &hop,
                        bool written)
{
    if (!written) {
        std::lock_guard<std::mutex> lock(p.hopMu);
        for (auto it = p.hops.rbegin(); it != p.hops.rend(); ++it) {
            if (it->shard == hop.shard && it->sentNs == hop.sentNs &&
                it->spanId == hop.spanId) {
                p.hops.erase(std::next(it).base());
                break;
            }
        }
        return;
    }
    if (p.sampled && SNAP_TRACE_ON(trace::kServe)) {
        trace::hostFlowStartNamed(trace::kServe,
                                  trace::tidShardLink(hop.shard),
                                  "xrpc", hop.spanId, hop.sentNs);
    }
}

/** The winning response is in hand: close the winning attempt's
 *  router-side span and, past the threshold, append a slow-query
 *  record attributing the latency hop by hop. */
void
ShardRouter::noteDelivered(PendingRoute &p, std::uint32_t shard,
                           std::uint64_t done_ns)
{
    RouterHop win;
    bool have = false;
    std::vector<RouterHop> hops;
    {
        std::lock_guard<std::mutex> lock(p.hopMu);
        hops = p.hops;
        for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
            if (it->shard == shard) {
                win = *it;
                have = true;
                break;
            }
        }
    }
    if (have && p.sampled && SNAP_TRACE_ON(trace::kServe)) {
        trace::hostSpanArg(trace::kServe, trace::tidShardLink(shard),
                           "rpc.attempt", win.sentNs, done_ns,
                           p.traceId);
    }
    if (cfg_.slowQueryMs < 0.0)
        return;
    const double total_ms =
        static_cast<double>(done_ns - p.submitNs) * 1e-6;
    if (total_ms < cfg_.slowQueryMs)
        return;
    SlowQuery q;
    q.traceId = p.traceId;
    q.requestId = p.frame.id;
    q.sessionId = p.frame.sessionId;
    q.totalMs = total_ms;
    q.winner = shard;
    q.winnerKind = have ? win.kind : "primary";
    q.retries = p.attempts.load(std::memory_order_relaxed);
    q.hedged = p.hedged.load(std::memory_order_relaxed);
    q.hops = std::move(hops);
    std::lock_guard<std::mutex> lock(slowMu_);
    ++slowLogged_;
    slowLog_.push_back(std::move(q));
    if (slowLog_.size() > maxSlowQueries)
        slowLog_.pop_front();
}

void
ShardRouter::dispatch(PendingPtr p)
{
    for (;;) {
        std::uint32_t idx;
        if (p->stateless) {
            bool any_draining = false;
            if (!pickShard(p->routeKey, idx, any_draining)) {
                if (any_draining &&
                    !closing_.load(std::memory_order_acquire)) {
                    // Every live shard is mid-drain; drains finish.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                    continue;
                }
                failRequest(p);
                return;
            }
        } else if (!pickSessionShard(p->frame.sessionId, p->routeKey,
                                     idx)) {
            failRequest(p);
            return;
        }
        Shard &shard = *shards_[idx];
        const std::uint64_t id = p->frame.id;
        const char *kind =
            p->attempts.load(std::memory_order_relaxed) > 0
                ? "reroute"
                : "primary";
        WireWriter w;
        const std::uint64_t span_id = stampAttempt(*p, w);
        {
            std::unique_lock<std::mutex> lock(shard.mu);
            shard.windowCv.wait(lock, [&] {
                return !shard.up ||
                       shard.draining.load(
                           std::memory_order_acquire) ||
                       shard.pending.size() <
                           cfg_.maxInflightPerShard;
            });
            if (!shard.up ||
                shard.draining.load(std::memory_order_acquire))
                continue; // re-pick: died or started draining
            if (!shard.pending.emplace(id, p).second)
                return; // a concurrent path already re-registered it
            p->copies.fetch_add(1, std::memory_order_relaxed);
            p->sentAt = Clock::now();
        }
        const RouterHop hop{idx, kind,
                            p->logHops ? trace::hostNowNs() : 0,
                            span_id};
        if (p->logHops)
            beginAttempt(*p, hop);
        bool ok;
        {
            std::lock_guard<std::mutex> wlock(shard.writeMu);
            ok = writeFrame(shard.fd, FrameType::Request, w.bytes());
        }
        if (p->logHops)
            endAttempt(*p, hop, ok);
        if (ok)
            return;
        // Broken pipe: reclaim our entry (if shardDown has not
        // already) and decide retry vs fail ourselves.
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            auto it = shard.pending.find(id);
            if (it == shard.pending.end() || it->second != p) {
                shardDown(idx);
                return; // shardDown owns it now
            }
            shard.pending.erase(it);
        }
        p->copies.fetch_sub(1, std::memory_order_acq_rel);
        shardDown(idx);
        if (p->copies.load(std::memory_order_acquire) > 0)
            return; // a hedged copy is still live elsewhere
        if (p->answered.load(std::memory_order_acquire))
            return;
        if (p->stateless && p->attempts < cfg_.maxRetries) {
            ++p->attempts;
            std::lock_guard<std::mutex> lock(doneMu_);
            ++rerouted_;
            continue;
        }
        failRequest(p);
        return;
    }
}

void
ShardRouter::submit(RouterRequest req, ResponseFn done)
{
    snap_assert(done != nullptr, "submit with a null callback");
    auto p = std::make_shared<PendingRoute>();
    p->frame = std::move(req);
    p->frame.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    p->frame.traceId = 0;
    p->frame.traceParent = 0;
    p->frame.traceSampled = false;
    p->stateless = p->frame.sessionId.empty();
    p->routeKey = p->stateless ? p->frame.prog.contentHash()
                               : fnv1a64(p->frame.sessionId);
    p->done = std::move(done);

    // Head-based sampling: decided once here, deterministically off
    // the wire id, and carried through every attempt — hedged
    // duplicates, failover reroutes, and post-migration turns all
    // share the one trace id chosen now.
    if (cfg_.traceSample > 0.0) {
        p->traceId = splitmix64(p->frame.id);
        const auto threshold = static_cast<std::uint64_t>(
            cfg_.traceSample * 10000.0 + 0.5);
        p->sampled = (p->traceId % 10000u) < threshold;
        if (p->sampled) {
            p->frame.traceId = p->traceId;
            p->frame.traceSampled = true;
        }
    }
    p->logHops = p->sampled || cfg_.slowQueryMs >= 0.0;
    if (p->logHops)
        p->submitNs = trace::hostNowNs();

    {
        // Epoch-swap gate: requests arriving during a swap are held
        // here (not dropped, not answered early) until the flip
        // completes.  Count them as outstanding only once admitted,
        // so the swap's drain() cannot wait on work parked at the
        // gate it controls.
        std::unique_lock<std::mutex> gate(dispatchMu_);
        swapCv_.wait(gate, [&] { return !swapInProgress_; });
        std::lock_guard<std::mutex> lock(doneMu_);
        ++outstanding_;
    }
    // Every shard's decoder refuses a program longer than the
    // controller's sequence space by cutting the connection, so it is
    // answered here instead of downing (and rerouting over) the fleet.
    if (p->frame.prog.size() > capacity::maxInstructions) {
        failRequest(p);
        return;
    }
    dispatch(std::move(p));
}

void
ShardRouter::noteDone()
{
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        snap_assert(outstanding_ > 0, "router noteDone underflow");
        --outstanding_;
        if (outstanding_ > 0)
            return;
    }
    allDone_.notify_all();
}

void
ShardRouter::drain()
{
    std::unique_lock<std::mutex> lock(doneMu_);
    allDone_.wait(lock, [&] { return outstanding_ == 0; });
}

template <typename Ack, typename Decode, typename Echo>
ShardRouter::Reply
ShardRouter::exchange(std::uint32_t idx, FrameType type,
                      const WireWriter &request, FrameType ack_type,
                      Decode decode, Echo echoes, Ack &ack,
                      double timeout_ms, const char *what,
                      std::string &err)
{
    Shard &shard = *shards_[idx];
    auto silent = [&] {
        err = formatString("shard %u did not answer the %s", idx, what);
        return Reply::Silent;
    };
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (!shard.up)
            return silent();
        shard.controlReady = false;
    }
    {
        std::lock_guard<std::mutex> wlock(shard.writeMu);
        if (!writeFrame(shard.fd, type, request.bytes()))
            return silent();
    }
    ControlAck answer;
    {
        std::unique_lock<std::mutex> lock(shard.mu);
        const bool got = shard.controlCv.wait_for(
            lock,
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::duration<double, std::milli>(timeout_ms)),
            [&] { return shard.controlReady || !shard.up; });
        if (!got || !shard.controlReady)
            return silent();
        answer = std::move(shard.controlAck);
    }
    WireReader r(answer.payload);
    if (answer.type != ack_type || !decode(r, ack) || !echoes(ack)) {
        err = formatString("shard %u answered the %s with a wrong ack",
                           idx, what);
        return Reply::Wrong;
    }
    err.clear();
    return Reply::Ok;
}

bool
ShardRouter::probeShard(std::uint32_t idx, std::string &err)
{
    snap_assert(idx < shards_.size(), "probe of shard %u of %zu", idx,
                shards_.size());
    HealthAckFrame ack;
    return probe(idx, ack, err);
}

bool
ShardRouter::probe(std::uint32_t idx, HealthAckFrame &ack,
                   std::string &err)
{
    Shard &shard = *shards_[idx];
    std::lock_guard<std::mutex> op(shard.controlOpMu);
    HealthFrame health;
    health.nonce = nextId_.fetch_add(1, std::memory_order_relaxed) |
                   (1ull << 63);
    WireWriter w;
    encodeHealth(w, health);
    const Reply reply = exchange(
        idx, FrameType::Health, w, FrameType::HealthAck, decodeHealthAck,
        [&](const HealthAckFrame &a) { return a.nonce == health.nonce; },
        ack, 5000.0, "health probe", err);
    if (reply == Reply::Silent && shardHealthy(idx)) {
        // The connection is nominally up but the shard sat on a
        // probe for seconds: a wedged shard is as gone as a dead
        // one.  Mark it down so in-flight work fails over; the
        // monitor re-dials it if it comes back.
        shard.lastError.store(IoErrorKind::Timeout,
                              std::memory_order_release);
        shardDown(idx);
    }
    return reply == Reply::Ok;
}

bool
ShardRouter::pullShardStats(std::uint32_t idx,
                            StatsSnapshotFrame &out, std::string &err)
{
    if (idx >= shards_.size()) {
        err = formatString("no shard %u (fleet has %zu)", idx,
                           shards_.size());
        return false;
    }
    Shard &shard = *shards_[idx];
    std::lock_guard<std::mutex> op(shard.controlOpMu);
    StatsPullFrame pull;
    pull.nonce = nextId_.fetch_add(1, std::memory_order_relaxed) |
                 (1ull << 62);
    WireWriter w;
    encodeStatsPull(w, pull);
    if (exchange(idx, FrameType::StatsPull, w, FrameType::StatsSnapshot,
                 decodeStatsSnapshot,
                 [&](const StatsSnapshotFrame &f) {
                     return f.nonce == pull.nonce;
                 },
                 out, 5000.0, "stats pull", err) != Reply::Ok)
        return false;
    std::lock_guard<std::mutex> lock(statsMu_);
    lastStats_[idx] = out;
    return true;
}

/** Periodic telemetry sweep: refresh every live shard's cached
 *  metrics snapshot (best-effort — a missed pull keeps the previous
 *  snapshot). */
void
ShardRouter::statsScan()
{
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        if (!shardHealthy(i))
            continue;
        StatsSnapshotFrame snap;
        std::string err;
        pullShardStats(i, snap, err);
    }
}

void
ShardRouter::exportFleetMetrics(MetricsRegistry &reg) const
{
    reg.counter("snap_router_reroutes_total", rerouteCount(),
                "Stateless requests re-dispatched after a shard "
                "death");
    reg.counter("snap_router_hedges_total", hedgeCount(),
                "Hedged duplicate requests actually sent");
    reg.counter("snap_router_failovers_total", failoverCount(),
                "Sessions promoted to their backup after a hard "
                "kill");
    reg.counter("snap_router_migrated_sessions_total",
                migratedCount(),
                "Sessions migrated losslessly by planned drains");
    reg.counter("snap_router_drains_total", drainCount(),
                "Planned shard drains completed losslessly");
    reg.counter("snap_router_warmups_total", warmupCount(),
                "Completed warm-backup session replications");
    reg.counter("snap_router_corrupt_responses_total",
                corruptResponseCount(),
                "Responses rejected as corrupt or malformed "
                "(checksum or codec)");
    std::uint32_t up = 0;
    for (std::uint32_t i = 0; i < shards_.size(); ++i)
        up += shardHealthy(i) ? 1u : 0u;
    reg.gauge("snap_router_shards_up", up,
              "Shard connections currently healthy");
    reg.gauge("snap_router_shards_total",
              static_cast<double>(shards_.size()),
              "Shard endpoints configured");
    reg.counter("snap_router_slow_queries_total",
                static_cast<double>(slowQueryCount()),
                "Requests recorded in the slow-query log");

    // Every cached shard snapshot, re-emitted with a shard label —
    // the aggregated fleet view one scrape sees.
    std::lock_guard<std::mutex> lock(statsMu_);
    for (std::uint32_t i = 0; i < lastStats_.size(); ++i) {
        for (const MetricsRegistry::Sample &s :
             lastStats_[i].samples) {
            MetricsRegistry::Labels labels = s.labels;
            labels.emplace_back("shard", formatString("%u", i));
            reg.add(s.name, s.kind, s.value, s.help,
                    std::move(labels));
        }
    }
}

bool
ShardRouter::pullSession(std::uint32_t idx, const std::string &sid,
                         SessionStateFrame &out, std::string &err)
{
    Shard &shard = *shards_[idx];
    std::lock_guard<std::mutex> op(shard.controlOpMu);
    SessionPullFrame pull;
    pull.sessionId = sid;
    WireWriter w;
    encodeSessionPull(w, pull);
    const auto decode = [this](WireReader &r, SessionStateFrame &f) {
        return decodeSessionState(r, numNodes_, f);
    };
    return exchange(idx, FrameType::SessionPull, w,
                    FrameType::SessionState, decode,
                    [&](const SessionStateFrame &f) {
                        return f.sessionId == sid;
                    },
                    out, 30000.0, "session pull", err) == Reply::Ok;
}

bool
ShardRouter::pushSession(std::uint32_t idx, const std::string &sid,
                         const MarkerStore &markers, std::string &err)
{
    Shard &shard = *shards_[idx];
    std::lock_guard<std::mutex> op(shard.controlOpMu);
    SessionPushFrame push;
    push.sessionId = sid;
    push.numNodes = numNodes_;
    push.markers = markers;
    WireWriter w;
    encodeSessionPush(w, push);
    SessionPushAckFrame ack;
    if (exchange(idx, FrameType::SessionPush, w, FrameType::SessionPushAck,
                 decodeSessionPushAck,
                 [&](const SessionPushAckFrame &a) {
                     return a.sessionId == sid;
                 },
                 ack, 30000.0, "session push", err) != Reply::Ok)
        return false;
    if (!ack.ok) {
        err = formatString("shard %u refused the session push: %s",
                           idx, ack.detail.c_str());
        return false;
    }
    return true;
}

bool
ShardRouter::drainShard(std::uint32_t idx, std::string &err)
{
    if (idx >= shards_.size()) {
        err = formatString("no shard %u (fleet has %zu)", idx,
                           shards_.size());
        return false;
    }
    Shard &shard = *shards_[idx];
    if (!shardHealthy(idx)) {
        err = formatString("shard %u is already down", idx);
        return false;
    }
    if (shard.draining.exchange(true, std::memory_order_acq_rel)) {
        err = formatString("shard %u is already draining", idx);
        return false;
    }
    snap_inform("router: draining shard %u (%s)", idx,
                shard.ep.toString().c_str());
    shard.windowCv.notify_all();

    // 1. New dispatch to the shard stopped above; let the in-flight
    //    window empty (responses still flow).
    {
        std::unique_lock<std::mutex> lock(shard.mu);
        shard.windowCv.wait(lock, [&] {
            return !shard.up || shard.pending.empty();
        });
    }

    // 2. Migrate every session pinned here: pull its checkpointed
    //    marker state, push it onto the backup owner (any live shard
    //    when no designated backup), re-pin.  Zero dropped sessions
    //    on a planned drain.
    std::vector<std::string> sids;
    {
        std::lock_guard<std::mutex> lock(pinMu_);
        for (const auto &kv : pins_) {
            if (kv.second.primary == idx)
                sids.push_back(kv.first);
        }
    }
    bool all_ok = true;
    err.clear();
    for (const std::string &sid : sids) {
        const std::uint64_t key = fnv1a64(sid);
        std::uint32_t target = 0;
        bool have = false;
        {
            std::lock_guard<std::mutex> lock(pinMu_);
            auto it = pins_.find(sid);
            if (it != pins_.end() && it->second.hasBackup &&
                shardState(it->second.backup) == ShardState::Up) {
                target = it->second.backup;
                have = true;
            }
        }
        if (!have) {
            std::vector<bool> down = effectiveDown();
            down[idx] = true;
            bool any = false;
            for (std::size_t i = 0; i < down.size(); ++i)
                any = any || !down[i];
            if (any) {
                target = ring_.ownerSkipping(key, down);
                have = target != idx;
            }
        }
        std::string op_err;
        SessionStateFrame st;
        bool ok = have;
        if (!ok)
            op_err = "no live shard to migrate to";
        if (ok)
            ok = pullSession(idx, sid, st, op_err);
        if (ok && st.found)
            ok = pushSession(target, sid, st.markers, op_err);
        if (ok) {
            std::lock_guard<std::mutex> lock(pinMu_);
            auto it = pins_.find(sid);
            if (it != pins_.end()) {
                it->second.primary = target;
                assignBackup(it->second, key,
                             static_cast<std::int64_t>(idx));
            }
            ++migrated_;
        } else {
            all_ok = false;
            snap_warn("router: drain of shard %u could not migrate "
                      "session %s: %s", idx, sid.c_str(),
                      op_err.c_str());
            if (err.empty())
                err = formatString("session %s: %s", sid.c_str(),
                                   op_err.c_str());
        }
    }

    // 3. Retire the shard: polite Shutdown, sever, mark down.  The
    //    retired mark keeps the monitor from re-dialing it — it was
    //    stopped on purpose; reviveShard() clears the mark.
    shard.retired.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> wlock(shard.writeMu);
        writeFrame(shard.fd, FrameType::Shutdown, {});
    }
    if (shard.fd >= 0)
        ::shutdown(shard.fd, SHUT_RD);
    shardDown(idx);

    // 4. Resume: the ring routes around the retired shard, and
    //    session dispatch parked on the drain re-resolves its pins.
    shard.draining.store(false, std::memory_order_release);
    shard.windowCv.notify_all();
    pinCv_.notify_all();
    if (all_ok) {
        {
            std::lock_guard<std::mutex> lock(pinMu_);
            ++drains_;
        }
        snap_inform("router: shard %u drained, %zu sessions migrated",
                    idx, sids.size());
    }
    return all_ok;
}

bool
ShardRouter::reviveWith(std::uint32_t idx, double timeout_ms,
                        std::string &err)
{
    Shard &shard = *shards_[idx];
    std::lock_guard<std::mutex> op(shard.controlOpMu);
    if (shardHealthy(idx)) {
        err.clear();
        return true;
    }
    // Sever whatever is left of the old connection; its reader has
    // exited (or exits now) via its shardDown.
    {
        std::lock_guard<std::mutex> wlock(shard.writeMu);
        if (shard.fd >= 0)
            ::shutdown(shard.fd, SHUT_RDWR);
    }
    if (shard.reader.joinable())
        shard.reader.join();
    {
        std::lock_guard<std::mutex> wlock(shard.writeMu);
        closeFd(shard.fd);
        shard.fd = -1;
        IoErrorKind kind = IoErrorKind::None;
        if (!dialShard(idx, timeout_ms, err, kind)) {
            shard.lastError.store(kind, std::memory_order_release);
            return false;
        }
    }
    shard.retired.store(false, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(downMu_);
        down_[idx] = false;
    }
    shard.reader = std::thread([this, idx] { readerMain(idx); });
    shard.windowCv.notify_all();
    pinCv_.notify_all();
    snap_inform("router: shard %u (%s) rejoined the fleet", idx,
                shard.ep.toString().c_str());
    err.clear();
    return true;
}

bool
ShardRouter::reviveShard(std::uint32_t idx, std::string &err)
{
    if (idx >= shards_.size()) {
        err = formatString("no shard %u (fleet has %zu)", idx,
                           shards_.size());
        return false;
    }
    return reviveWith(idx, cfg_.connectTimeoutMs, err);
}

void
ShardRouter::enqueueWarmup(const std::string &sid)
{
    {
        std::lock_guard<std::mutex> lock(replMu_);
        if (!replQueued_.insert(sid).second)
            return; // already queued; one pass replicates the latest
        replQueue_.push_back(sid);
    }
    replCv_.notify_one();
}

/**
 * Warm-backup replication: after each completed session turn, copy
 * the session's marker state onto its backup owner.  Asynchronous
 * and coalesced (a burst of turns replicates once, with the latest
 * state) — the request path never waits on replication; the cost is
 * that a hard kill loses turns completed after the last replication.
 * Bounded loss, by design.
 */
void
ShardRouter::replicatorMain()
{
    for (;;) {
        std::string sid;
        {
            std::unique_lock<std::mutex> lock(replMu_);
            replCv_.wait_for(
                lock, std::chrono::milliseconds(50), [&] {
                    return closing_.load(
                               std::memory_order_acquire) ||
                           !replQueue_.empty();
                });
            if (closing_.load(std::memory_order_acquire))
                return;
            if (replQueue_.empty())
                continue;
            sid = replQueue_.front();
            replQueue_.pop_front();
            replQueued_.erase(sid);
        }
        std::uint32_t primary = 0;
        std::uint32_t backup = 0;
        bool have = false;
        {
            std::lock_guard<std::mutex> lock(pinMu_);
            auto it = pins_.find(sid);
            if (it != pins_.end() && !it->second.hasBackup) {
                // A failover consumed the backup; try to appoint a
                // fresh one (a shard may have rejoined since).
                assignBackup(it->second, fnv1a64(sid), -1);
            }
            if (it != pins_.end() && it->second.hasBackup) {
                primary = it->second.primary;
                backup = it->second.backup;
                have = true;
            }
        }
        if (!have)
            continue;
        if (!shardHealthy(primary) || !shardHealthy(backup))
            continue; // best-effort; the next turn re-enqueues
        SessionStateFrame st;
        std::string err;
        if (!pullSession(primary, sid, st, err) || !st.found)
            continue;
        if (!pushSession(backup, sid, st.markers, err))
            continue;
        {
            std::lock_guard<std::mutex> lock(replMu_);
            ++warmups_;
        }
    }
}

void
ShardRouter::hedgeOne(std::uint32_t cur, const PendingPtr &p)
{
    if (p->answered.load(std::memory_order_acquire))
        return;
    if (p->hedged.exchange(true, std::memory_order_acq_rel))
        return; // one hedge per request, ever
    std::vector<bool> down = effectiveDown();
    if (cur < down.size())
        down[cur] = true;
    bool any = false;
    for (std::size_t i = 0; i < down.size(); ++i)
        any = any || !down[i];
    if (!any)
        return;
    const std::uint32_t target =
        ring_.ownerSkipping(p->routeKey, down);
    if (target == cur || down[target])
        return;
    Shard &t = *shards_[target];
    WireWriter w;
    const std::uint64_t span_id = stampAttempt(*p, w);
    {
        std::lock_guard<std::mutex> lock(t.mu);
        if (!t.up)
            return;
        // Hedges bypass the window: they are bounded at one per
        // request and exist precisely because the primary is slow.
        if (!t.pending.emplace(p->frame.id, p).second)
            return;
        p->copies.fetch_add(1, std::memory_order_relaxed);
    }
    const RouterHop hop{target, "hedge",
                        p->logHops ? trace::hostNowNs() : 0, span_id};
    if (p->logHops)
        beginAttempt(*p, hop);
    bool ok;
    {
        std::lock_guard<std::mutex> wlock(t.writeMu);
        ok = writeFrame(t.fd, FrameType::Request, w.bytes());
    }
    if (p->logHops)
        endAttempt(*p, hop, ok);
    if (!ok) {
        // The hedge target broke; the original copy still stands.
        std::lock_guard<std::mutex> lock(t.mu);
        auto it = t.pending.find(p->frame.id);
        if (it != t.pending.end() && it->second == p) {
            t.pending.erase(it);
            p->copies.fetch_sub(1, std::memory_order_acq_rel);
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        ++hedged_;
    }
}

void
ShardRouter::hedgeScan()
{
    const Clock::time_point threshold =
        Clock::now() -
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                cfg_.hedgeDelayMs));
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        if (!shardHealthy(i))
            continue;
        Shard &shard = *shards_[i];
        std::vector<PendingPtr> stale;
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            for (const auto &kv : shard.pending) {
                const PendingPtr &p = kv.second;
                if (p->stateless &&
                    !p->hedged.load(std::memory_order_relaxed) &&
                    !p->answered.load(std::memory_order_relaxed) &&
                    p->sentAt <= threshold)
                    stale.push_back(p);
            }
        }
        for (const PendingPtr &p : stale)
            hedgeOne(i, p);
    }
}

void
ShardRouter::reviveScan()
{
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        Shard &shard = *shards_[i];
        if (shard.retired.load(std::memory_order_acquire) ||
            shard.draining.load(std::memory_order_acquire))
            continue;
        if (shardHealthy(i))
            continue;
        const Clock::time_point now = Clock::now();
        if (now - shard.lastReviveAttempt <
            std::chrono::duration<double, std::milli>(
                cfg_.reconnectMs))
            continue;
        shard.lastReviveAttempt = now;
        // One short dial per round: a restarted shard answers
        // instantly, a still-dead one costs at most the dial timeout.
        std::string err;
        reviveWith(i, 50.0, err);
    }
}

/**
 * Fleet monitor: hedged retries for slow shards, automatic re-dial
 * of dead (non-retired) ones, and the periodic telemetry pull.  All
 * are polling scans — the tick is short enough that hedge latency
 * stays near hedgeDelayMs and a restarted shard rejoins within
 * ~reconnectMs.
 */
void
ShardRouter::monitorMain()
{
    const double tick_ms =
        cfg_.hedgeDelayMs > 0.0
            ? std::max(1.0, std::min(cfg_.hedgeDelayMs / 2.0, 25.0))
            : 25.0;
    const auto tick =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double, std::milli>(tick_ms));
    const auto stats_every =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                cfg_.statsIntervalMs));
    lastStatsPull_ = Clock::now();
    std::unique_lock<std::mutex> lock(monitorMu_);
    for (;;) {
        monitorCv_.wait_for(lock, tick, [&] {
            return closing_.load(std::memory_order_acquire);
        });
        if (closing_.load(std::memory_order_acquire))
            return;
        lock.unlock();
        if (cfg_.hedgeDelayMs > 0.0)
            hedgeScan();
        if (cfg_.reconnectMs > 0.0)
            reviveScan();
        if (cfg_.statsIntervalMs > 0.0 &&
            Clock::now() - lastStatsPull_ >= stats_every) {
            lastStatsPull_ = Clock::now();
            statsScan();
        }
        lock.lock();
    }
}

bool
ShardRouter::swapEpoch(const std::string &image_path, std::string &err)
{
    // Close the gate: new submits hold at the gate, then drain what
    // is already in flight — the barrier half of the swap.
    {
        std::unique_lock<std::mutex> gate(dispatchMu_);
        swapCv_.wait(gate, [&] { return !swapInProgress_; });
        swapInProgress_ = true;
    }
    drain();

    const std::uint64_t next_epoch = epoch_ + 1;
    bool all_ok = true;
    err.clear();

    // Send Commit(epoch) to shard i and check that the ack names it.
    // Swapping an image in drains and re-stamps the pool, so the
    // Prepare's deadline applies.
    auto commit = [&](std::uint32_t i, std::uint64_t epoch) {
        EpochFrame frame;
        frame.epoch = epoch;
        WireWriter w;
        encodeEpoch(w, frame);
        std::lock_guard<std::mutex> op(shards_[i]->controlOpMu);
        EpochFrame ack;
        std::string why;
        if (exchange(i, FrameType::Commit, w, FrameType::CommitAck,
                     decodeEpoch,
                     [&](const EpochFrame &a) { return a.epoch == epoch; },
                     ack, 120000.0, "commit", why) != Reply::Ok)
            snap_warn("router: %s of epoch %llu", why.c_str(),
                      static_cast<unsigned long long>(epoch));
    };

    // Prepare: every live shard loads, validates and stages the
    // image, and must positively ack before any shard flips.
    std::vector<std::uint32_t> staged;
    for (std::uint32_t i = 0; i < shards_.size() && all_ok; ++i) {
        if (!shardHealthy(i))
            continue;
        PrepareFrame prep;
        prep.epoch = next_epoch;
        prep.imagePath = image_path;
        WireWriter w;
        encodePrepare(w, prep);
        std::lock_guard<std::mutex> op(shards_[i]->controlOpMu);
        PrepareAckFrame ack;
        // Loading an image is seconds of work at most; minutes means
        // the shard is wedged.
        if (exchange(i, FrameType::Prepare, w, FrameType::PrepareAck,
                     decodePrepareAck,
                     [&](const PrepareAckFrame &a) {
                         return a.epoch == next_epoch;
                     },
                     ack, 120000.0, "prepare", err) != Reply::Ok) {
            all_ok = false;
        } else if (!ack.ok) {
            err = formatString("shard %u refused the new image: %s", i,
                               ack.detail.c_str());
            all_ok = false;
        } else {
            staged.push_back(i);
        }
    }

    if (!all_ok) {
        // Abandoned: a Commit of the epoch the fleet stays on makes
        // every shard that staged the image drop it.
        for (std::uint32_t i : staged)
            if (shardHealthy(i))
                commit(i, epoch_);
    } else {
        // Commit: each shard swaps its staged image in.
        for (std::uint32_t i = 0; i < shards_.size(); ++i)
            if (shardHealthy(i))
                commit(i, next_epoch);

        // A lost ack does not undo a commit, so the probes decide:
        // the fleet serves the image of any shard now on the new
        // epoch, else the old one.  A shard on any other image (or
        // that cannot say) is downed; the re-dialer's handshake keeps
        // it out until it serves the fleet's fingerprint.
        std::vector<std::uint64_t> served(shards_.size(), 0);
        bool moved = false;
        std::uint64_t target = fingerprint_;
        for (std::uint32_t i = 0; i < shards_.size(); ++i) {
            HealthAckFrame ack;
            std::string probe_err;
            if (!shardHealthy(i) || !probe(i, ack, probe_err))
                continue;
            served[i] = ack.fingerprint;
            if (ack.epoch == next_epoch && !moved) {
                moved = true;
                target = ack.fingerprint;
            }
        }
        for (std::uint32_t i = 0; i < shards_.size(); ++i) {
            if (!shardHealthy(i) || served[i] == target)
                continue;
            snap_warn("router: shard %u does not serve the fleet's "
                      "image; downing it", i);
            shards_[i]->lastError.store(IoErrorKind::BadType,
                                        std::memory_order_release);
            shardDown(i);
        }
        fingerprint_ = target;
        if (moved) {
            epoch_ = next_epoch;
        } else {
            err = "no shard committed the new image";
            all_ok = false;
        }
    }

    {
        std::lock_guard<std::mutex> gate(dispatchMu_);
        swapInProgress_ = false;
    }
    swapCv_.notify_all();
    return all_ok;
}

void
ShardRouter::shutdownShards()
{
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        Shard &shard = *shards_[i];
        // Administratively stopped: the monitor must not re-dial.
        shard.retired.store(true, std::memory_order_release);
        bool up;
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            up = shard.up;
        }
        if (!up)
            continue;
        std::lock_guard<std::mutex> wlock(shard.writeMu);
        writeFrame(shard.fd, FrameType::Shutdown, {});
    }
}

} // namespace shard
} // namespace snap
