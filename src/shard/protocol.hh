/**
 * @file
 * The snapshard wire protocol: length-prefixed frames between the
 * router and its shard workers.
 *
 * Framing (see docs/sharding.md for the full state machines):
 *
 *     u32 payload length | u8 frame type | payload
 *
 * all little-endian, payload capped at maxFramePayload.  One
 * connection carries a strictly ordered stream of frames; the shard
 * answers Request frames in completion order (responses carry the
 * router-assigned id, so ordering is the router's concern), and
 * control frames (health, epoch swap) in receive order.
 *
 * Codec layer only: everything here turns structs into bytes and
 * back, with every decode bounds-checked and *typed* — a malformed
 * frame yields false, never a crash or a fatal, because frames cross
 * a trust boundary.  Socket I/O lives in shard/endpoint.
 */

#ifndef SNAP_SHARD_PROTOCOL_HH
#define SNAP_SHARD_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics_registry.hh"
#include "common/wire_format.hh"
#include "isa/encoding.hh"
#include "isa/program.hh"
#include "runtime/marker_store.hh"
#include "runtime/results.hh"
#include "serve/request.hh"

namespace snap
{
namespace shard
{

// The codec lives in common/ (the .kbimg format uses it too); these
// keep the names that callers spell shard::WireWriter and so on.
using snap::fnv1a64;
using snap::WireReader;
using snap::WireWriter;

/** Protocol revision; bumped on any incompatible frame change.
 *  v2: Response frames carry a trailing FNV-1a64 payload checksum
 *  and the session migration frames (SessionPull..SessionPushAck)
 *  exist.
 *  v3: Request frames may carry a trailing distributed-trace
 *  context (only when sampling is on, so trace-off bytes are
 *  unchanged), HelloAck carries a trailing shard trace-clock
 *  reading for cross-process timeline alignment, and the Stats
 *  pull frames (StatsPull/StatsSnapshot) exist.
 *  v4: Response frames drop the batch-lane count, and their
 *  checksum is mandatory and verified over the whole payload before
 *  any field is parsed.
 *  v5: no optional tails: every Request carries the 17-byte trace
 *  context (all zeros when not sampled) and every HelloAck its
 *  trace clock; a payload of any other length is rejected.
 *  v6: the Hung response status (4) is gone.  A v5 shard may still
 *  send it and a v6 decoder rejects any status past Failed, so the
 *  two must not talk.  A Request's trace flags byte must be 0 or 1
 *  (the sampled bit).  Request and Response bytes are otherwise
 *  those of v5.
 *  v7: a Request's program travels in the program codec
 *  (isa/encoding.hh): rules first, without names, then per
 *  instruction an operand mask and only the operands that differ
 *  from their defaults — about 1.2 KB for a sentence parse against
 *  5.8 KB in v6's fixed 29-byte instructions.  Prepare only stages
 *  the new image; Commit swaps it in.  Every other frame's bytes
 *  are those of v6.
 *  A peer of another version is refused at Hello. */
constexpr std::uint32_t protocolVersion = 7;

/** Hard cap on one frame's payload (a serialized Program or
 *  ResultSet is well under this; the cap bounds a hostile peer). */
constexpr std::uint32_t maxFramePayload = 64u * 1024 * 1024;

/** Frame types. */
enum class FrameType : std::uint8_t
{
    /** Router -> shard, once per connection: version check. */
    Hello = 1,
    /** Shard -> router: version + image fingerprint + epoch. */
    HelloAck = 2,
    /** Router -> shard: one query to execute. */
    Request = 3,
    /** Shard -> router: the query's answer. */
    Response = 4,
    /** Router -> shard: liveness probe (nonce echo). */
    Health = 5,
    /** Shard -> router: probe answer + current epoch/fingerprint. */
    HealthAck = 6,
    /** Router -> shard: load and validate a .kbimg and stage it;
     *  the serving image is untouched. */
    Prepare = 7,
    /** Shard -> router: staging outcome (ok or typed detail). */
    PrepareAck = 8,
    /** Router -> shard: every shard staged the epoch; swap the
     *  staged image in (drain, re-stamp) and serve it. */
    Commit = 9,
    /** Shard -> router: the epoch the shard now serves (the
     *  commit's epoch unless nothing was staged for it). */
    CommitAck = 10,
    /** Router -> shard: drain and exit. */
    Shutdown = 11,
    /** Router -> shard: checkpoint one session's marker state. */
    SessionPull = 12,
    /** Shard -> router: the session checkpoint (or not-found). */
    SessionState = 13,
    /** Router -> shard: restore a session checkpoint onto this
     *  shard (drain migration / warm backup replication). */
    SessionPush = 14,
    /** Shard -> router: restore outcome (ok or typed detail). */
    SessionPushAck = 15,
    /** Router -> shard: pull a metrics snapshot (nonce echo). */
    StatsPull = 16,
    /** Shard -> router: the MetricsRegistry snapshot. */
    StatsSnapshot = 17,
};

/** Highest valid frame type on the wire (framing-layer range check). */
constexpr std::uint8_t maxFrameType =
    static_cast<std::uint8_t>(FrameType::StatsSnapshot);

const char *frameTypeName(FrameType t);

// --- payload structs ----------------------------------------------------

struct HelloFrame
{
    std::uint32_t version = protocolVersion;
};

struct HelloAckFrame
{
    std::uint32_t version = protocolVersion;
    /** .kbimg fingerprint the shard is serving (KbImageFile). */
    std::uint64_t fingerprint = 0;
    std::uint64_t epoch = 0;
    std::uint32_t numNodes = 0;
    std::uint32_t numClusters = 0;
    /** The shard's trace-epoch host clock (trace::hostNowNs) at ack
     *  time.  The router subtracts it from its own clock to get the
     *  per-shard offset `snaptrace merge` uses to align the process
     *  timelines. */
    std::uint64_t traceClockNs = 0;
};

/** One query on the wire: the engine's own request record.  The id
 *  is router-assigned and opaque to the shard; it is echoed verbatim
 *  in the response.  The trace context is always encoded, all zeros
 *  when not sampled, and traceSampled travels as a flags byte. */
using RequestFrame = serve::Request;

/** The query's answer on the wire: the engine's own response record,
 *  carrying the router's wire id. */
using ResponseFrame = serve::Response;

struct HealthFrame
{
    std::uint64_t nonce = 0;
};

struct HealthAckFrame
{
    std::uint64_t nonce = 0;
    std::uint64_t epoch = 0;
    std::uint64_t fingerprint = 0;
};

struct PrepareFrame
{
    std::uint64_t epoch = 0;
    /** Path to the .kbimg generation to swap to (shard-local). */
    std::string imagePath;
};

struct PrepareAckFrame
{
    std::uint64_t epoch = 0;
    bool ok = false;
    /** Typed failure detail when !ok (e.g. kbImgStatusName + why). */
    std::string detail;
};

struct EpochFrame
{
    std::uint64_t epoch = 0;
};

struct SessionPullFrame
{
    std::string sessionId;
};

/** A session's checkpointed marker state.  `found == false` means
 *  the shard has no such session (markers stay empty). */
struct SessionStateFrame
{
    std::string sessionId;
    bool found = false;
    std::uint32_t numNodes = 0;
    MarkerStore markers{0};
};

struct SessionPushFrame
{
    std::string sessionId;
    std::uint32_t numNodes = 0;
    MarkerStore markers{0};
};

struct SessionPushAckFrame
{
    std::string sessionId;
    bool ok = false;
    /** Typed failure detail when !ok. */
    std::string detail;
};

struct StatsPullFrame
{
    std::uint64_t nonce = 0;
};

/** A shard's point-in-time MetricsRegistry snapshot (engine + logger
 *  counters), pulled periodically by the router and re-exported in
 *  the aggregated fleet view with a shard label. */
struct StatsSnapshotFrame
{
    std::uint64_t nonce = 0;
    std::vector<MetricsRegistry::Sample> samples;
};

// --- results codec ------------------------------------------------------
// (A Request's program travels in the program codec, isa/encoding, and
// a session's marker state in the marker-state codec, runtime/snapshot.)

void encodeResults(WireWriter &w, const ResultSet &results);
/** Replaces @p out with the decoded results. */
bool decodeResults(WireReader &r, ResultSet &out);

// --- frame payload codecs ----------------------------------------------
// A decoder sets every field the wire carries, replacing lists rather
// than appending to them, so one frame can be reused across reads;
// after a false return the frame is unspecified.

void encodeHello(WireWriter &w, const HelloFrame &f);
bool decodeHello(WireReader &r, HelloFrame &f);
void encodeHelloAck(WireWriter &w, const HelloAckFrame &f);
bool decodeHelloAck(WireReader &r, HelloAckFrame &f);
void encodeRequest(WireWriter &w, const RequestFrame &f);
bool decodeRequest(WireReader &r, RequestFrame &f);
void encodeResponse(WireWriter &w, const ResponseFrame &f);
bool decodeResponse(WireReader &r, ResponseFrame &f);
void encodeHealth(WireWriter &w, const HealthFrame &f);
bool decodeHealth(WireReader &r, HealthFrame &f);
void encodeHealthAck(WireWriter &w, const HealthAckFrame &f);
bool decodeHealthAck(WireReader &r, HealthAckFrame &f);
void encodePrepare(WireWriter &w, const PrepareFrame &f);
bool decodePrepare(WireReader &r, PrepareFrame &f);
void encodePrepareAck(WireWriter &w, const PrepareAckFrame &f);
bool decodePrepareAck(WireReader &r, PrepareAckFrame &f);
void encodeEpoch(WireWriter &w, const EpochFrame &f);
bool decodeEpoch(WireReader &r, EpochFrame &f);
void encodeSessionPull(WireWriter &w, const SessionPullFrame &f);
bool decodeSessionPull(WireReader &r, SessionPullFrame &f);
void encodeSessionState(WireWriter &w, const SessionStateFrame &f);
/** @p expect_nodes is the decoder's own node count; a found
 *  checkpoint with a different node count is rejected. */
bool decodeSessionState(WireReader &r, std::uint32_t expect_nodes,
                        SessionStateFrame &f);
void encodeSessionPush(WireWriter &w, const SessionPushFrame &f);
bool decodeSessionPush(WireReader &r, std::uint32_t expect_nodes,
                       SessionPushFrame &f);
void encodeSessionPushAck(WireWriter &w, const SessionPushAckFrame &f);
bool decodeSessionPushAck(WireReader &r, SessionPushAckFrame &f);
void encodeStatsPull(WireWriter &w, const StatsPullFrame &f);
bool decodeStatsPull(WireReader &r, StatsPullFrame &f);
void encodeStatsSnapshot(WireWriter &w, const StatsSnapshotFrame &f);
bool decodeStatsSnapshot(WireReader &r, StatsSnapshotFrame &f);

} // namespace shard
} // namespace snap

#endif // SNAP_SHARD_PROTOCOL_HH
