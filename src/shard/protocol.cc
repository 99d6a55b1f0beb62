#include "shard/protocol.hh"

#include "runtime/snapshot.hh"

namespace snap
{
namespace shard
{

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello: return "hello";
      case FrameType::HelloAck: return "hello-ack";
      case FrameType::Request: return "request";
      case FrameType::Response: return "response";
      case FrameType::Health: return "health";
      case FrameType::HealthAck: return "health-ack";
      case FrameType::Prepare: return "prepare";
      case FrameType::PrepareAck: return "prepare-ack";
      case FrameType::Commit: return "commit";
      case FrameType::CommitAck: return "commit-ack";
      case FrameType::Shutdown: return "shutdown";
      case FrameType::SessionPull: return "session-pull";
      case FrameType::SessionState: return "session-state";
      case FrameType::SessionPush: return "session-push";
      case FrameType::SessionPushAck: return "session-push-ack";
      case FrameType::StatsPull: return "stats-pull";
      case FrameType::StatsSnapshot: return "stats-snapshot";
    }
    return "?";
}

// --- results ------------------------------------------------------------

void
encodeResults(WireWriter &w, const ResultSet &results)
{
    w.u32(static_cast<std::uint32_t>(results.size()));
    for (const CollectResult &cr : results) {
        w.u8(static_cast<std::uint8_t>(cr.op));
        w.u8(cr.marker);
        w.u8(cr.color);
        w.u16(cr.rel);
        w.u32(static_cast<std::uint32_t>(cr.nodes.size()));
        for (const CollectedNode &n : cr.nodes) {
            w.u32(n.node);
            w.f32(n.value);
            w.u32(n.origin);
        }
        w.u32(static_cast<std::uint32_t>(cr.links.size()));
        for (const CollectedLink &l : cr.links) {
            w.u32(l.src);
            w.u16(l.rel);
            w.u32(l.dst);
            w.f32(l.weight);
        }
    }
}

bool
decodeResults(WireReader &r, ResultSet &out)
{
    out.clear();
    // A result is >= 13 bytes (op, marker, color, rel, and the two
    // list counts), a node 12 and a link 14.
    const std::uint32_t count = r.count(13);
    if (r.failed())
        return false;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        CollectResult cr;
        const std::uint8_t op = r.u8();
        cr.marker = r.u8();
        cr.color = r.u8();
        cr.rel = r.u16();
        if (r.failed() ||
            op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
            return false;
        cr.op = static_cast<Opcode>(op);
        const std::uint32_t num_nodes = r.count(12);
        if (r.failed())
            return false;
        cr.nodes.reserve(num_nodes);
        for (std::uint32_t k = 0; k < num_nodes; ++k) {
            CollectedNode n;
            n.node = r.u32();
            n.value = r.f32();
            n.origin = r.u32();
            cr.nodes.push_back(n);
        }
        const std::uint32_t num_links = r.count(14);
        if (r.failed())
            return false;
        cr.links.reserve(num_links);
        for (std::uint32_t k = 0; k < num_links; ++k) {
            CollectedLink l;
            l.src = r.u32();
            l.rel = r.u16();
            l.dst = r.u32();
            l.weight = r.f32();
            cr.links.push_back(l);
        }
        if (r.failed())
            return false;
        out.push_back(std::move(cr));
    }
    return !r.failed();
}

// --- frames -------------------------------------------------------------

void
encodeHello(WireWriter &w, const HelloFrame &f)
{
    w.u32(f.version);
}

bool
decodeHello(WireReader &r, HelloFrame &f)
{
    f.version = r.u32();
    return r.done();
}

void
encodeHelloAck(WireWriter &w, const HelloAckFrame &f)
{
    w.u32(f.version);
    w.u64(f.fingerprint);
    w.u64(f.epoch);
    w.u32(f.numNodes);
    w.u32(f.numClusters);
    w.u64(f.traceClockNs);
}

bool
decodeHelloAck(WireReader &r, HelloAckFrame &f)
{
    f.version = r.u32();
    f.fingerprint = r.u64();
    f.epoch = r.u64();
    f.numNodes = r.u32();
    f.numClusters = r.u32();
    f.traceClockNs = r.u64();
    return r.done();
}

void
encodeRequest(WireWriter &w, const RequestFrame &f)
{
    w.u64(f.id);
    w.str(f.sessionId);
    w.f64(f.timeoutMs);
    w.u64(f.rngSeed);
    encodeProgram(w, f.prog);
    // The trace context, zeroed for an unsampled request.
    w.u64(f.traceSampled ? f.traceId : 0);
    w.u64(f.traceSampled ? f.traceParent : 0);
    w.u8(f.traceSampled ? 1 : 0);
}

bool
decodeRequest(WireReader &r, RequestFrame &f)
{
    f.id = r.u64();
    f.sessionId = r.str(4096);
    f.timeoutMs = r.f64();
    f.rngSeed = r.u64();
    if (r.failed() || !decodeProgram(r, f.prog))
        return false;
    f.traceId = r.u64();
    f.traceParent = r.u64();
    const std::uint8_t flags = r.u8();
    // The flags byte is the sampled bit alone, and an unsampled
    // context is all zeros; the encoder never emits anything else.
    if (flags > 1 ||
        (flags == 0 && (f.traceId != 0 || f.traceParent != 0)))
        return false;
    f.traceSampled = flags != 0;
    return r.done();
}

void
encodeResponse(WireWriter &w, const ResponseFrame &f)
{
    w.u64(f.id);
    w.u8(static_cast<std::uint8_t>(f.status));
    w.u64(f.wallTicks);
    w.u64(f.rngSeed);
    w.f64(f.queueMs);
    w.f64(f.serviceMs);
    w.u32(f.worker);
    w.u32(f.retries);
    w.u8(f.faultDetected ? 1 : 0);
    encodeResults(w, f.results);
    // Trailing checksum over every payload byte written above, so a
    // corrupt-but-well-framed response is detected, never served.
    w.u64(fnv1a64(w.bytes().data(), w.size()));
}

bool
decodeResponse(WireReader &r, ResponseFrame &f)
{
    // Integrity first: the mandatory trailing checksum is verified
    // over the whole payload before any field — and so any count —
    // is read from it.
    if (r.remaining() < 8)
        return false;
    const std::uint8_t *payload = r.data() + r.pos();
    const std::size_t body_len = r.remaining() - 8;
    WireReader tail(payload + body_len, 8);
    if (tail.u64() != fnv1a64(payload, body_len))
        return false;

    WireReader body(payload, body_len);
    f.id = body.u64();
    const std::uint8_t status = body.u8();
    f.wallTicks = body.u64();
    f.rngSeed = body.u64();
    f.queueMs = body.f64();
    f.serviceMs = body.f64();
    f.worker = body.u32();
    f.retries = body.u32();
    f.faultDetected = body.u8() != 0;
    if (body.failed() ||
        status > static_cast<std::uint8_t>(serve::RequestStatus::Failed))
        return false;
    f.status = static_cast<serve::RequestStatus>(status);
    return decodeResults(body, f.results) && body.done();
}

void
encodeHealth(WireWriter &w, const HealthFrame &f)
{
    w.u64(f.nonce);
}

bool
decodeHealth(WireReader &r, HealthFrame &f)
{
    f.nonce = r.u64();
    return r.done();
}

void
encodeHealthAck(WireWriter &w, const HealthAckFrame &f)
{
    w.u64(f.nonce);
    w.u64(f.epoch);
    w.u64(f.fingerprint);
}

bool
decodeHealthAck(WireReader &r, HealthAckFrame &f)
{
    f.nonce = r.u64();
    f.epoch = r.u64();
    f.fingerprint = r.u64();
    return r.done();
}

void
encodePrepare(WireWriter &w, const PrepareFrame &f)
{
    w.u64(f.epoch);
    w.str(f.imagePath);
}

bool
decodePrepare(WireReader &r, PrepareFrame &f)
{
    f.epoch = r.u64();
    f.imagePath = r.str(4096);
    return r.done();
}

void
encodePrepareAck(WireWriter &w, const PrepareAckFrame &f)
{
    w.u64(f.epoch);
    w.u8(f.ok ? 1 : 0);
    w.str(f.detail);
}

bool
decodePrepareAck(WireReader &r, PrepareAckFrame &f)
{
    f.epoch = r.u64();
    f.ok = r.u8() != 0;
    f.detail = r.str(4096);
    return r.done();
}

void
encodeEpoch(WireWriter &w, const EpochFrame &f)
{
    w.u64(f.epoch);
}

bool
decodeEpoch(WireReader &r, EpochFrame &f)
{
    f.epoch = r.u64();
    return r.done();
}

void
encodeSessionPull(WireWriter &w, const SessionPullFrame &f)
{
    w.str(f.sessionId);
}

bool
decodeSessionPull(WireReader &r, SessionPullFrame &f)
{
    f.sessionId = r.str(4096);
    return r.done();
}

void
encodeSessionState(WireWriter &w, const SessionStateFrame &f)
{
    w.str(f.sessionId);
    w.u8(f.found ? 1 : 0);
    w.u32(f.numNodes);
    if (f.found)
        encodeMarkers(w, f.markers);
}

bool
decodeSessionState(WireReader &r, std::uint32_t expect_nodes,
                   SessionStateFrame &f)
{
    f.markers = MarkerStore(0);
    f.sessionId = r.str(4096);
    f.found = r.u8() != 0;
    f.numNodes = r.u32();
    if (r.failed())
        return false;
    if (!f.found)
        return r.done();
    if (f.numNodes != expect_nodes)
        return false;
    f.markers = MarkerStore(f.numNodes);
    if (!decodeMarkers(r, f.markers))
        return false;
    return r.done();
}

void
encodeSessionPush(WireWriter &w, const SessionPushFrame &f)
{
    w.str(f.sessionId);
    w.u32(f.numNodes);
    encodeMarkers(w, f.markers);
}

bool
decodeSessionPush(WireReader &r, std::uint32_t expect_nodes,
                  SessionPushFrame &f)
{
    f.sessionId = r.str(4096);
    f.numNodes = r.u32();
    if (r.failed() || f.sessionId.empty() || f.numNodes != expect_nodes)
        return false;
    f.markers = MarkerStore(f.numNodes);
    if (!decodeMarkers(r, f.markers))
        return false;
    return r.done();
}

void
encodeSessionPushAck(WireWriter &w, const SessionPushAckFrame &f)
{
    w.str(f.sessionId);
    w.u8(f.ok ? 1 : 0);
    w.str(f.detail);
}

bool
decodeSessionPushAck(WireReader &r, SessionPushAckFrame &f)
{
    f.sessionId = r.str(4096);
    f.ok = r.u8() != 0;
    f.detail = r.str(4096);
    return r.done();
}

void
encodeStatsPull(WireWriter &w, const StatsPullFrame &f)
{
    w.u64(f.nonce);
}

bool
decodeStatsPull(WireReader &r, StatsPullFrame &f)
{
    f.nonce = r.u64();
    return r.done();
}

void
encodeStatsSnapshot(WireWriter &w, const StatsSnapshotFrame &f)
{
    w.u64(f.nonce);
    w.u32(static_cast<std::uint32_t>(f.samples.size()));
    for (const MetricsRegistry::Sample &s : f.samples) {
        w.str(s.name);
        w.str(s.help);
        w.u8(s.kind == MetricsRegistry::Kind::Counter ? 0 : 1);
        w.u16(static_cast<std::uint16_t>(s.labels.size()));
        for (const auto &kv : s.labels) {
            w.str(kv.first);
            w.str(kv.second);
        }
        w.f64(s.value);
    }
}

bool
decodeStatsSnapshot(WireReader &r, StatsSnapshotFrame &f)
{
    f.samples.clear();
    f.nonce = r.u64();
    // A sample is >= 19 bytes (two empty strings, kind, label count,
    // value).
    const std::uint32_t count = r.count(19);
    if (r.failed())
        return false;
    f.samples.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        MetricsRegistry::Sample s;
        s.name = r.str(512);
        s.help = r.str(4096);
        const std::uint8_t kind = r.u8();
        const std::uint32_t num_labels = r.u16();
        if (r.failed() || kind > 1 || num_labels > 64)
            return false;
        s.kind = kind == 0 ? MetricsRegistry::Kind::Counter
                           : MetricsRegistry::Kind::Gauge;
        s.labels.reserve(num_labels);
        for (std::uint32_t k = 0; k < num_labels; ++k) {
            std::string key = r.str(256);
            std::string value = r.str(4096);
            s.labels.emplace_back(std::move(key), std::move(value));
        }
        s.value = r.f64();
        if (r.failed())
            return false;
        f.samples.push_back(std::move(s));
    }
    return r.done();
}

} // namespace shard
} // namespace snap
