#include "shard/shard_server.hh"

#include <algorithm>
#include <chrono>
#include <sys/socket.h>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "trace/trace.hh"

namespace snap
{
namespace shard
{

ShardServer::ShardServer(KbImageFile kb, ShardServerConfig cfg)
    : cfg_(std::move(cfg)), net_(std::move(kb.net))
{
    std::string detail;
    if (!parseEndpoint(cfg_.listen, endpoint_, detail))
        snap_fatal("shard listen endpoint: %s", detail.c_str());
    engine_ = std::make_unique<serve::ServeEngine>(
        net_, std::move(kb.image), cfg_.serve);
    fingerprint_.store(kb.fingerprint, std::memory_order_release);
    if (cfg_.fleetFaults.any())
        fleetPlan_ = std::make_unique<FleetFaultPlan>(cfg_.fleetFaults);
}

ShardServer::~ShardServer()
{
    stop();
    // Reader threads exit once stop() has shut their fds down.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        threads.swap(connThreads_);
        // run() closes the listener on its way out; this closes the
        // listener of a server that was bound but never run.
        if (listenFd_ >= 0) {
            closeFd(listenFd_);
            listenFd_ = -1;
        }
    }
    for (std::thread &t : threads)
        t.join();
}

bool
ShardServer::bind(std::string &detail)
{
    listenFd_ = listenEndpoint(endpoint_, detail);
    return listenFd_ >= 0;
}

void
ShardServer::run()
{
    // run() owns the listener: stop() only shuts it down, which wakes
    // accept, and the fd is closed after the loop, so accept never
    // sees a closed (or reused) fd number.
    const int listen_fd = listenFd_;
    snap_assert(listen_fd >= 0, "run() before bind()");
    snap_inform("shard: serving %u nodes / %u clusters on %s "
                "(fingerprint %016llx)",
                engine_->sharedImage().numNodes(),
                engine_->sharedImage().numClusters(),
                endpoint_.toString().c_str(),
                static_cast<unsigned long long>(fingerprint()));
    for (;;) {
        std::string detail;
        int fd = acceptConnection(listen_fd, detail);
        if (fd < 0) {
            // stop() shut the listener down; anything else is fatal to
            // the accept loop but existing connections keep serving.
            if (!stopping_.load(std::memory_order_acquire))
                snap_warn("shard: accept failed: %s", detail.c_str());
            break;
        }
        std::lock_guard<std::mutex> lock(connMu_);
        if (stopping_.load(std::memory_order_acquire)) {
            closeFd(fd);
            break;
        }
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
    {
        std::lock_guard<std::mutex> lock(connMu_);
        closeFd(listenFd_);
        listenFd_ = -1;
    }
    // Finish everything already admitted before returning, so a
    // Shutdown-initiated exit never abandons an in-flight answer.
    engine_->drain();
}

void
ShardServer::stop()
{
    bool was = stopping_.exchange(true, std::memory_order_acq_rel);
    if (was)
        return;
    // Shutting the fds down unblocks the accept loop and every
    // reader; their owners close them.
    std::lock_guard<std::mutex> lock(connMu_);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    for (int fd : connFds_)
        ::shutdown(fd, SHUT_RDWR);
}

void
ShardServer::serveConnection(int fd)
{
    // One write mutex per connection: engine workers deliver
    // responses concurrently and frames must not interleave.
    std::mutex write_mu;
    const std::uint32_t conn =
        connSeq_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
        FrameType type;
        std::vector<std::uint8_t> payload;
        std::string detail;
        if (!readFrame(fd, type, payload, detail)) {
            if (!stopping_.load(std::memory_order_acquire) &&
                detail != "connection closed")
                snap_warn("shard: %s", detail.c_str());
            break;
        }
        if (!handleFrame(fd, conn, write_mu, type, payload))
            break;
    }
    // Answers still in flight on this connection would write to a
    // dead fd — harmless (send fails, response dropped), but drain
    // first so the Pending callbacks never outlive write_mu.
    engine_->drain();
    // Unlist the fd before closing it, so stop() never shuts down a
    // reused fd number.
    {
        std::lock_guard<std::mutex> lock(connMu_);
        connFds_.erase(std::find(connFds_.begin(), connFds_.end(), fd));
    }
    closeFd(fd);
}

bool
ShardServer::handleFrame(int fd, std::uint32_t conn,
                         std::mutex &write_mu, FrameType type,
                         const std::vector<std::uint8_t> &payload)
{
    WireReader r(payload.data(), payload.size());
    // A failed reply does not drop the connection: a peer that has
    // stopped reading (a router retiring this shard) may still have a
    // Shutdown queued behind this frame, and only the read side sees
    // where the stream ends.
    auto reply = [&](FrameType reply_type, const WireWriter &w) {
        std::lock_guard<std::mutex> lock(write_mu);
        writeFrame(fd, reply_type, w.bytes());
        return true;
    };
    switch (type) {
      case FrameType::Hello: {
        HelloFrame hello;
        if (!decodeHello(r, hello)) {
            snap_warn("shard: malformed hello");
            return false;
        }
        HelloAckFrame ack;
        ack.version = protocolVersion;
        ack.fingerprint = fingerprint();
        ack.epoch = epoch();
        ack.numNodes = engine_->sharedImage().numNodes();
        ack.numClusters = engine_->sharedImage().numClusters();
        // Clock exchange for snaptrace merge: our trace-clock
        // reading of (approximately) the same instant the router
        // receives this ack lets it compute the per-shard offset
        // that aligns the two process timelines.
        ack.traceClockNs = trace::hostNowNs();
        WireWriter w;
        encodeHelloAck(w, ack);
        return reply(FrameType::HelloAck, w);
      }
      case FrameType::Request: {
        RequestFrame frame;
        if (!decodeRequest(r, frame)) {
            // A peer that sends undecodable requests is broken;
            // cut the connection rather than guess.
            snap_warn("shard: malformed request frame");
            return false;
        }
        handleRequest(fd, conn, write_mu, std::move(frame));
        return true;
      }
      case FrameType::Health: {
        HealthFrame health;
        if (!decodeHealth(r, health))
            return false;
        HealthAckFrame ack;
        ack.nonce = health.nonce;
        ack.epoch = epoch();
        ack.fingerprint = fingerprint();
        WireWriter w;
        encodeHealthAck(w, ack);
        return reply(FrameType::HealthAck, w);
      }
      case FrameType::Prepare: {
        PrepareFrame prep;
        if (!decodePrepare(r, prep))
            return false;
        handlePrepare(fd, write_mu, prep);
        return true;
      }
      case FrameType::Commit: {
        EpochFrame commit;
        if (!decodeEpoch(r, commit))
            return false;
        EpochFrame ack;
        ack.epoch = commitStaged(commit.epoch);
        WireWriter w;
        encodeEpoch(w, ack);
        return reply(FrameType::CommitAck, w);
      }
      case FrameType::SessionPull: {
        SessionPullFrame pull;
        if (!decodeSessionPull(r, pull)) {
            snap_warn("shard: malformed session-pull frame");
            return false;
        }
        SessionStateFrame st;
        st.sessionId = pull.sessionId;
        MarkerStore m(engine_->sharedImage().numNodes());
        if (engine_->trySessionMarkers(pull.sessionId, m)) {
            st.found = true;
            st.numNodes = m.numNodes();
            st.markers = std::move(m);
        }
        WireWriter w;
        encodeSessionState(w, st);
        return reply(FrameType::SessionState, w);
      }
      case FrameType::SessionPush: {
        SessionPushFrame push;
        SessionPushAckFrame ack;
        if (!decodeSessionPush(r, engine_->sharedImage().numNodes(),
                               push)) {
            // Unlike a malformed request, answer with a typed nack:
            // the router is mid-migration and needs the verdict.
            ack.ok = false;
            ack.detail = "malformed session-push frame";
        } else {
            ack.sessionId = push.sessionId;
            std::string err;
            ack.ok = engine_->restoreSession(push.sessionId,
                                             std::move(push.markers),
                                             err);
            ack.detail = err;
        }
        if (!ack.ok)
            snap_warn("shard: session-push('%s') refused: %s",
                      ack.sessionId.c_str(), ack.detail.c_str());
        WireWriter w;
        encodeSessionPushAck(w, ack);
        return reply(FrameType::SessionPushAck, w);
      }
      case FrameType::StatsPull: {
        StatsPullFrame pull;
        if (!decodeStatsPull(r, pull))
            return false;
        // Point-in-time snapshot: engine metrics plus the logger's
        // per-level emit/suppression counters, serialized straight
        // from the registry's sample list.
        StatsSnapshotFrame snap;
        snap.nonce = pull.nonce;
        MetricsRegistry reg;
        engine_->exportMetrics(reg);
        Logger::exportMetrics(reg);
        snap.samples = reg.samples();
        WireWriter w;
        encodeStatsSnapshot(w, snap);
        return reply(FrameType::StatsSnapshot, w);
      }
      case FrameType::Shutdown: {
        stop();
        return false;
      }
      default:
        snap_warn("shard: unexpected %s frame",
                  frameTypeName(type));
        return false;
    }
}

void
ShardServer::handleRequest(int fd, std::uint32_t conn,
                           std::mutex &write_mu, serve::Request &&req)
{
    // The engine re-ids the request at admission; the response goes
    // back under the router's wire id.
    const std::uint64_t wire_id = req.id;
    // Cross-process join point: the "rpc.serve" span covers receipt
    // to response-ready, and the 'f' half of the router's "xrpc"
    // flow arrow lands on it, keyed by the attempt's span id — each
    // hedged duplicate or reroute pairs with its own arrow.
    const bool traced =
        req.traceSampled && SNAP_TRACE_ON(trace::kServe);
    const std::uint64_t recv_ns = traced ? trace::hostNowNs() : 0;
    const std::uint64_t trace_id = req.traceId;
    const std::uint64_t parent = req.traceParent;
    engine_->submit(
        std::move(req),
        [this, fd, &write_mu, wire_id, conn, traced, recv_ns,
         trace_id, parent](serve::Response &&resp) {
            if (traced && SNAP_TRACE_ON(trace::kServe)) {
                const std::uint64_t done_ns = trace::hostNowNs();
                trace::hostFlowEndNamed(trace::kServe,
                                        trace::tidRpcConn(conn),
                                        "xrpc", parent, recv_ns);
                trace::hostSpanArg(trace::kServe,
                                   trace::tidRpcConn(conn),
                                   "rpc.serve", recv_ns, done_ns,
                                   trace_id);
            }
            resp.id = wire_id;
            WireWriter w;
            encodeResponse(w, resp);
            writeResponseWithFaults(fd, write_mu, wire_id, w.take());
        });
}

/**
 * Write one encoded Response, injecting any armed fleet-level faults:
 * delay (slow shard), byte corruption (caught by the response
 * checksum on the router), mid-frame truncation, and connection drop.
 * Every kind is rolled exactly once per response so each stream's
 * draw history is independent of the other kinds' rates.
 */
void
ShardServer::writeResponseWithFaults(int fd, std::mutex &write_mu,
                                     std::uint64_t wire_id,
                                     std::vector<std::uint8_t> bytes)
{
    bool drop = false;
    bool trunc = false;
    if (fleetPlan_) {
        if (fleetPlan_->rollDelay()) {
            SNAP_LOG_EVERY_N(Inform, 64,
                             "shard: fleet fault: delaying response "
                             "%llu by %.0f ms",
                             static_cast<unsigned long long>(wire_id),
                             fleetPlan_->spec().delayMs);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    fleetPlan_->spec().delayMs));
        }
        if (fleetPlan_->rollCorrupt() && !bytes.empty()) {
            const std::uint64_t d =
                fleetPlan_->draw(FleetFaultKind::Corrupt);
            const std::size_t at = d % bytes.size();
            bytes[at] ^= static_cast<std::uint8_t>(1u << (d >> 32 & 7));
            SNAP_LOG_EVERY_N(Inform, 64,
                             "shard: fleet fault: corrupting byte "
                             "%zu of response %llu", at,
                             static_cast<unsigned long long>(wire_id));
        }
        trunc = fleetPlan_->rollTruncate();
        drop = fleetPlan_->rollConnDrop();
    }
    std::lock_guard<std::mutex> lock(write_mu);
    if (drop) {
        SNAP_LOG_EVERY_N(Inform, 64,
                         "shard: fleet fault: dropping connection "
                         "instead of response %llu",
                         static_cast<unsigned long long>(wire_id));
        ::shutdown(fd, SHUT_RDWR);
        return;
    }
    if (trunc) {
        const std::size_t cut =
            bytes.empty()
                ? 0
                : fleetPlan_->draw(FleetFaultKind::Truncate) %
                      bytes.size();
        SNAP_LOG_EVERY_N(Inform, 64,
                         "shard: fleet fault: truncating response "
                         "%llu at byte %zu",
                         static_cast<unsigned long long>(wire_id), cut);
        writeFrameTruncated(fd, FrameType::Response, bytes, cut);
        ::shutdown(fd, SHUT_RDWR);
        return;
    }
    if (!writeFrame(fd, FrameType::Response, bytes)) {
        SNAP_LOG_EVERY_N(Warn, 64,
                         "shard: dropping response %llu (peer gone)",
                         static_cast<unsigned long long>(wire_id));
    }
}

void
ShardServer::handlePrepare(int fd, std::mutex &write_mu,
                           const PrepareFrame &prep)
{
    PrepareAckFrame ack;
    ack.epoch = prep.epoch;

    std::lock_guard<std::mutex> swap_lock(swapMu_);
    // A new Prepare replaces whatever an abandoned swap left staged.
    staged_.reset();

    auto next = std::make_unique<KbImageFile>();
    std::string detail;
    KbImgStatus status = loadKbImageFile(prep.imagePath, *next, detail);
    if (status != KbImgStatus::Ok) {
        // Typed rejection: the old image keeps serving.
        ack.detail = formatString("%s: %s", kbImgStatusName(status),
                                  detail.c_str());
    } else if (engine_->checkImage(next->net, *next->image,
                                   ack.detail)) {
        ack.ok = true;
        snap_inform("shard: staged epoch %llu from '%s' "
                    "(fingerprint %016llx)",
                    static_cast<unsigned long long>(prep.epoch),
                    prep.imagePath.c_str(),
                    static_cast<unsigned long long>(next->fingerprint));
        staged_ = std::move(next);
        stagedEpoch_ = prep.epoch;
    }
    if (!ack.ok) {
        snap_warn("shard: prepare(%llu, '%s') refused: %s",
                  static_cast<unsigned long long>(prep.epoch),
                  prep.imagePath.c_str(), ack.detail.c_str());
    }

    WireWriter w;
    encodePrepareAck(w, ack);
    std::lock_guard<std::mutex> lock(write_mu);
    if (!writeFrame(fd, FrameType::PrepareAck, w.bytes()))
        snap_warn("shard: prepare-ack write failed");
}

std::uint64_t
ShardServer::stagedEpoch() const
{
    std::lock_guard<std::mutex> swap_lock(swapMu_);
    return staged_ ? stagedEpoch_ : 0;
}

std::uint64_t
ShardServer::commitStaged(std::uint64_t epoch)
{
    std::lock_guard<std::mutex> swap_lock(swapMu_);
    if (!staged_ || stagedEpoch_ != epoch) {
        // A Commit of any other epoch abandons the staged swap: the
        // router sends Commit(current epoch) after a refused Prepare.
        if (staged_) {
            snap_inform("shard: commit(%llu) drops the image staged "
                        "for epoch %llu",
                        static_cast<unsigned long long>(epoch),
                        static_cast<unsigned long long>(stagedEpoch_));
            staged_.reset();
        } else if (epoch != this->epoch()) {
            snap_warn("shard: commit(%llu) with no image staged for it",
                      static_cast<unsigned long long>(epoch));
        }
        return this->epoch();
    }
    std::unique_ptr<KbImageFile> next = std::move(staged_);
    std::string err;
    // The engine's admission gate orders the swap against request
    // traffic.  checkImage passed at Prepare and only a Commit changes
    // the serving image, so a refusal here is not expected; it keeps
    // the old image.
    if (!engine_->swapImage(next->net, std::move(next->image), err)) {
        snap_warn("shard: commit(%llu) refused: %s",
                  static_cast<unsigned long long>(epoch), err.c_str());
        return this->epoch();
    }
    net_ = std::move(next->net);
    fingerprint_.store(next->fingerprint, std::memory_order_release);
    epoch_.store(epoch, std::memory_order_release);
    snap_inform("shard: committed epoch %llu (fingerprint %016llx)",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(fingerprint()));
    return epoch;
}

} // namespace shard
} // namespace snap
