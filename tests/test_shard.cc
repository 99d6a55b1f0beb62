/**
 * @file
 * Tests for the snapshard subsystem: consistent-hash ring placement,
 * wire-protocol codecs (including malformed-frame rejection — frames
 * cross a trust boundary), and an in-process router + shard-server
 * fleet over unix sockets: bit-identical answers vs a direct
 * ServeEngine, stateless failover when a shard dies, and the
 * epoch-based KB hot-swap under live traffic.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/kb_image_io.hh"
#include "arch/machine.hh"
#include "common/wire_format.hh"
#include "fault/fleet_fault.hh"
#include "runtime/marker_store.hh"
#include "serve/engine.hh"
#include "shard/endpoint.hh"
#include "shard/hash_ring.hh"
#include "shard/protocol.hh"
#include "shard/router.hh"
#include "shard/shard_server.hh"
#include "tests/test_helpers.hh"
#include "workload/kb_gen.hh"

// Largest single heap allocation made while g_trackAllocs is set: the
// decoders must never size an allocation from an unverified count.
static std::atomic<bool> g_trackAllocs{false};
static std::atomic<std::size_t> g_largestAlloc{0};

static void *
trackedAlloc(std::size_t n)
{
    if (g_trackAllocs.load(std::memory_order_relaxed)) {
        std::size_t seen = g_largestAlloc.load(std::memory_order_relaxed);
        while (n > seen &&
               !g_largestAlloc.compare_exchange_weak(seen, n))
        {}
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new(std::size_t n) { return trackedAlloc(n); }
void *operator new[](std::size_t n) { return trackedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace snap
{
namespace
{

using shard::FrameType;
using shard::HashRing;
using shard::IoErrorKind;
using shard::ShardRouter;
using shard::ShardServer;

// --- hash ring ----------------------------------------------------------

TEST(HashRing, CoversAllShardsRoughlyEvenly)
{
    constexpr std::uint32_t kShards = 4;
    constexpr std::uint64_t kKeys = 20000;
    HashRing ring(kShards, 64);
    std::vector<std::uint64_t> hits(kShards, 0);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        std::uint32_t s = ring.owner(k * 0x9e3779b97f4a7c15ull + 3);
        ASSERT_LT(s, kShards);
        ++hits[s];
    }
    for (std::uint32_t s = 0; s < kShards; ++s) {
        EXPECT_GT(hits[s], kKeys / kShards / 2)
            << "shard " << s << " starves";
        EXPECT_LT(hits[s], kKeys * 2 / kShards)
            << "shard " << s << " hoards";
    }
}

TEST(HashRing, PlacementIsDeterministic)
{
    HashRing a(3, 64), b(3, 64);
    for (std::uint64_t k = 0; k < 1000; ++k)
        EXPECT_EQ(a.owner(k), b.owner(k));
}

TEST(HashRing, SkippingMovesOnlyOrphanedKeys)
{
    constexpr std::uint32_t kShards = 4;
    HashRing ring(kShards, 64);
    std::vector<bool> down(kShards, false);
    down[2] = true;
    for (std::uint64_t k = 0; k < 5000; ++k) {
        std::uint32_t home = ring.owner(k);
        std::uint32_t live = ring.ownerSkipping(k, down);
        EXPECT_NE(live, 2u);
        if (home != 2) {
            EXPECT_EQ(live, home)
                << "healthy placements must not move";
        }
    }
    // All shards down: the walk gives up and returns the home shard.
    std::vector<bool> all(kShards, true);
    EXPECT_EQ(ring.ownerSkipping(42, all), ring.owner(42));
}

TEST(HashRing, OwnersAreDistinctAndLedByTheOwner)
{
    constexpr std::uint32_t kShards = 4;
    HashRing ring(kShards, 64);
    for (std::uint64_t k = 0; k < 2000; ++k) {
        std::vector<std::uint32_t> two = ring.owners(k, 2);
        ASSERT_EQ(two.size(), 2u);
        EXPECT_EQ(two[0], ring.owner(k))
            << "owners[0] must be the primary";
        EXPECT_NE(two[0], two[1])
            << "a replica set must not repeat a shard";
        std::vector<std::uint32_t> one = ring.owners(k, 1);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_EQ(one[0], ring.owner(k));
    }
    // Asking for more replicas than shards exist clamps to the fleet.
    std::vector<std::uint32_t> all = ring.owners(42, kShards + 3);
    EXPECT_EQ(all.size(), kShards);
    std::vector<bool> seen(kShards, false);
    for (std::uint32_t s : all) {
        ASSERT_LT(s, kShards);
        EXPECT_FALSE(seen[s]);
        seen[s] = true;
    }
}

// --- wire codecs --------------------------------------------------------

Program
countQuery(NodeId start, RelationType rel)
{
    Program prog;
    RuleId rule = prog.addRule(PropRule::chain(rel));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));
    return prog;
}

/** Results and simulated time equal to a solo run's (node order
 *  aside). */
bool
sameAnswer(const shard::ResponseFrame &got, const RunResult &ref)
{
    if (got.wallTicks != ref.wallTicks ||
        got.results.size() != ref.results.size())
        return false;
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
        CollectResult a = got.results[i], b = ref.results[i];
        a.sortNodes();
        b.sortNodes();
        if (a.nodes != b.nodes || a.links != b.links)
            return false;
    }
    return true;
}

TEST(ShardProtocol, RequestRoundTripPreservesTheProgram)
{
    shard::RequestFrame in;
    in.id = 0x1122334455667788ull;
    in.sessionId = "alice";
    in.timeoutMs = 125.5;
    in.rngSeed = 99;
    in.prog = countQuery(7, 2);

    WireWriter w;
    shard::encodeRequest(w, in);
    WireReader r(w.bytes().data(), w.bytes().size());
    shard::RequestFrame out;
    ASSERT_TRUE(shard::decodeRequest(r, out));
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.sessionId, in.sessionId);
    EXPECT_DOUBLE_EQ(out.timeoutMs, in.timeoutMs);
    EXPECT_EQ(out.rngSeed, in.rngSeed);
    EXPECT_EQ(out.prog.contentHash(), in.prog.contentHash());
}

TEST(ShardProtocol, ResponseRoundTripPreservesResults)
{
    shard::ResponseFrame in;
    in.id = 42;
    in.status = serve::RequestStatus::Ok;
    in.wallTicks = 12345;
    in.rngSeed = 7;
    in.queueMs = 0.25;
    in.serviceMs = 3.5;
    in.worker = 2;
    in.retries = 1;
    in.faultDetected = true;
    CollectResult res;
    res.op = Opcode::CollectMarker;
    res.marker = 1;
    res.nodes.push_back(CollectedNode{11, 2.5f, 3});
    res.nodes.push_back(CollectedNode{12, 0.0f, invalidNode});
    res.links.push_back(CollectedLink{1, 2, 3, 0.75f});
    in.results.push_back(res);

    WireWriter w;
    shard::encodeResponse(w, in);
    WireReader r(w.bytes().data(), w.bytes().size());
    shard::ResponseFrame out;
    ASSERT_TRUE(shard::decodeResponse(r, out));
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.status, in.status);
    EXPECT_EQ(out.wallTicks, in.wallTicks);
    EXPECT_EQ(out.worker, in.worker);
    EXPECT_EQ(out.retries, in.retries);
    EXPECT_TRUE(out.faultDetected);
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.results[0].nodes, in.results[0].nodes);
    EXPECT_EQ(out.results[0].links, in.results[0].links);
}

TEST(ShardProtocol, MalformedBytesAreTypedRejections)
{
    shard::RequestFrame in;
    in.prog = countQuery(0, 0);
    WireWriter w;
    shard::encodeRequest(w, in);

    // Every strict prefix must fail the decode, never crash.
    const auto &bytes = w.bytes();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        WireReader r(bytes.data(), cut);
        shard::RequestFrame out;
        EXPECT_FALSE(shard::decodeRequest(r, out))
            << "prefix of " << cut << " bytes decoded";
    }

    // Trailing garbage is also a rejection (done() is strict).
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0xee);
    WireReader r(padded.data(), padded.size());
    shard::RequestFrame out;
    EXPECT_FALSE(shard::decodeRequest(r, out));

    // Control-frame codecs round-trip.
    shard::PrepareFrame prep;
    prep.epoch = 9;
    prep.imagePath = "/tmp/gen9.kbimg";
    WireWriter pw;
    shard::encodePrepare(pw, prep);
    WireReader pr(pw.bytes().data(), pw.bytes().size());
    shard::PrepareFrame pout;
    ASSERT_TRUE(shard::decodePrepare(pr, pout));
    EXPECT_EQ(pout.epoch, 9u);
    EXPECT_EQ(pout.imagePath, prep.imagePath);

    shard::PrepareAckFrame ack;
    ack.epoch = 9;
    ack.ok = false;
    ack.detail = "checksum-mismatch: section 5";
    WireWriter aw;
    shard::encodePrepareAck(aw, ack);
    WireReader ar(aw.bytes().data(), aw.bytes().size());
    shard::PrepareAckFrame aout;
    ASSERT_TRUE(shard::decodePrepareAck(ar, aout));
    EXPECT_FALSE(aout.ok);
    EXPECT_EQ(aout.detail, ack.detail);
}

/** Encode a representative response with real result content. */
std::vector<std::uint8_t>
encodedResponseBytes(shard::ResponseFrame *orig = nullptr)
{
    shard::ResponseFrame in;
    in.id = 77;
    in.status = serve::RequestStatus::Ok;
    in.wallTicks = 4242;
    in.rngSeed = 13;
    in.serviceMs = 1.5;
    CollectResult res;
    res.op = Opcode::CollectMarker;
    res.marker = 1;
    res.nodes.push_back(CollectedNode{3, 1.0f, 5});
    res.nodes.push_back(CollectedNode{9, 0.5f, invalidNode});
    in.results.push_back(res);
    if (orig)
        *orig = in;
    WireWriter w;
    shard::encodeResponse(w, in);
    return w.bytes();
}

/** Run a decoder over every strict prefix of @p bytes; each must be
 *  a clean rejection. */
template <typename Decode>
void
expectEveryTruncationRejected(const std::vector<std::uint8_t> &bytes,
                              Decode decode, const char *what)
{
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_FALSE(decode(bytes.data(), cut))
            << what << ": prefix of " << cut << " bytes decoded";
    }
}

TEST(ShardProtocol, TruncationAtEveryOffsetIsRejected)
{
    // Request.
    shard::RequestFrame req;
    req.sessionId = "sess-fuzz";
    req.prog = countQuery(3, 1);
    WireWriter rw;
    shard::encodeRequest(rw, req);
    expectEveryTruncationRejected(
        rw.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::RequestFrame out;
            return shard::decodeRequest(r, out);
        },
        "request");

    // Response: the checksum is mandatory, so no cut survives — not
    // even the one that drops exactly the trailing checksum.
    expectEveryTruncationRejected(
        encodedResponseBytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::ResponseFrame out;
            return shard::decodeResponse(r, out);
        },
        "response");

    // HelloAck: the trace clock is mandatory, so the old v2 length
    // (the payload without its trailing 8 clock bytes) is rejected
    // like every other cut.
    WireWriter hw;
    shard::encodeHelloAck(hw, shard::HelloAckFrame{});
    expectEveryTruncationRejected(
        hw.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::HelloAckFrame out;
            return shard::decodeHelloAck(r, out);
        },
        "hello-ack");

    // PrepareAck (carries a string).
    shard::PrepareAckFrame pack;
    pack.epoch = 3;
    pack.detail = "kbimg: checksum mismatch";
    WireWriter pw;
    shard::encodePrepareAck(pw, pack);
    expectEveryTruncationRejected(
        pw.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::PrepareAckFrame out;
            return shard::decodePrepareAck(r, out);
        },
        "prepare-ack");

    // Session checkpoint frames (sparse marker codec inside).
    constexpr std::uint32_t kNodes = 64;
    MarkerStore marks(kNodes);
    marks.setBit(1, 3);
    marks.setBit(1, 17);
    marks.set(2, 40, 2.5f, 3);
    shard::SessionStateFrame st;
    st.sessionId = "sess-fuzz";
    st.found = true;
    st.numNodes = kNodes;
    st.markers = marks;
    WireWriter sw;
    shard::encodeSessionState(sw, st);
    expectEveryTruncationRejected(
        sw.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::SessionStateFrame out;
            return shard::decodeSessionState(r, kNodes, out);
        },
        "session-state");

    shard::SessionPushFrame push;
    push.sessionId = "sess-fuzz";
    push.numNodes = kNodes;
    push.markers = marks;
    WireWriter uw;
    shard::encodeSessionPush(uw, push);
    expectEveryTruncationRejected(
        uw.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::SessionPushFrame out;
            return shard::decodeSessionPush(r, kNodes, out);
        },
        "session-push");
}

TEST(ShardProtocol, TraceContextRoundTripsAndOldLengthsAreRejected)
{
    // Sampled request: the 17-byte trace context round-trips.
    shard::RequestFrame in;
    in.id = 5;
    in.sessionId = "traced";
    in.prog = countQuery(1, 0);
    in.traceId = 0xabcdef0123456789ull;
    in.traceParent = 0x1111222233334444ull;
    in.traceSampled = true;
    WireWriter w;
    shard::encodeRequest(w, in);
    {
        WireReader r(w.bytes().data(), w.bytes().size());
        shard::RequestFrame out;
        ASSERT_TRUE(shard::decodeRequest(r, out));
        EXPECT_EQ(out.traceId, in.traceId);
        EXPECT_EQ(out.traceParent, in.traceParent);
        EXPECT_TRUE(out.traceSampled);
    }

    // Every-byte-offset fuzz over the traced encoding: no cut
    // decodes, including the old v2 length (the payload without its
    // 17 context bytes).
    expectEveryTruncationRejected(
        w.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::RequestFrame out;
            return shard::decodeRequest(r, out);
        },
        "traced-request");

    // Unsampled requests carry the context too, all zeros: the same
    // length as a sampled one, whatever the frame's id fields hold.
    shard::RequestFrame off = in;
    off.traceSampled = false;
    WireWriter ow;
    shard::encodeRequest(ow, off);
    EXPECT_EQ(ow.bytes().size(), w.bytes().size());
    {
        WireReader r(ow.bytes().data(), ow.bytes().size());
        shard::RequestFrame out;
        ASSERT_TRUE(shard::decodeRequest(r, out));
        EXPECT_EQ(out.traceId, 0u);
        EXPECT_EQ(out.traceParent, 0u);
        EXPECT_FALSE(out.traceSampled);
        EXPECT_EQ(out.sessionId, in.sessionId);
    }

    // A context whose flags byte says "not sampled" but whose ids are
    // set is malformed (the encoder never emits it), not silently
    // accepted.
    std::vector<std::uint8_t> forged = w.bytes();
    forged[forged.size() - 1] = 0;
    WireReader fr(forged.data(), forged.size());
    shard::RequestFrame fout;
    EXPECT_FALSE(shard::decodeRequest(fr, fout));

    // The flags byte is the sampled bit alone: any other bit set is
    // malformed, not silently read as "sampled".
    forged[forged.size() - 1] = 2;
    WireReader fr2(forged.data(), forged.size());
    shard::RequestFrame fout2;
    EXPECT_FALSE(shard::decodeRequest(fr2, fout2));

    // HelloAck's trace clock round-trips; the old v2 length without
    // it is rejected.
    shard::HelloAckFrame hello;
    hello.fingerprint = 0xfeed;
    hello.epoch = 4;
    hello.traceClockNs = 123456789;
    WireWriter hw;
    shard::encodeHelloAck(hw, hello);
    {
        WireReader r(hw.bytes().data(), hw.bytes().size());
        shard::HelloAckFrame out;
        ASSERT_TRUE(shard::decodeHelloAck(r, out));
        EXPECT_EQ(out.traceClockNs, 123456789u);
        EXPECT_EQ(out.epoch, 4u);
    }
    {
        WireReader r(hw.bytes().data(), hw.bytes().size() - 8);
        shard::HelloAckFrame out;
        EXPECT_FALSE(shard::decodeHelloAck(r, out));
    }
}

/** An encoding's length and FNV-1a64 equal pinned constants. */
void
expectPinned(const WireWriter &w, std::size_t len, std::uint64_t hash,
             const char *what)
{
    EXPECT_EQ(w.size(), len) << what;
    EXPECT_EQ(fnv1a64(w.bytes().data(), w.size()), hash) << what;
}

TEST(ShardProtocol, RequestAndResponseBytesArePinned)
{
    // Any change to these bytes is a wire change and needs a protocol
    // version bump.  The Request constants are v7's encodings (the
    // program codec); the Response constant is v5's, which v6 and v7
    // keep.
    shard::RequestFrame sampled;
    sampled.id = 0x0102030405060708ull;
    sampled.sessionId = "pin-session";
    sampled.timeoutMs = 37.25;
    sampled.rngSeed = 0xdeadbeefcafef00dull;
    sampled.prog = countQuery(5, 3);
    sampled.traceId = 0x1111222233334444ull;
    sampled.traceParent = 0x5555666677778888ull;
    sampled.traceSampled = true;
    WireWriter a;
    shard::encodeRequest(a, sampled);
    expectPinned(a, 98, 0xf84f18e280648b08ull, "sampled request");

    // Unsampled: the ids the record holds are not sent.
    shard::RequestFrame plain;
    plain.id = 9;
    plain.prog = countQuery(2, 1);
    plain.traceId = 0xabcdefull;
    plain.traceParent = 0x123456ull;
    WireWriter b;
    shard::encodeRequest(b, plain);
    expectPinned(b, 87, 0xb4b38520f389d69full, "unsampled request");

    shard::ResponseFrame resp;
    resp.id = 0x0a0b0c0d0e0f1011ull;
    resp.status = serve::RequestStatus::Failed;
    resp.wallTicks = 987654321;
    resp.rngSeed = 0x0123456789abcdefull;
    resp.queueMs = 1.75;
    resp.serviceMs = 12.5;
    resp.worker = 3;
    resp.retries = 2;
    resp.faultDetected = true;
    CollectResult r0;
    r0.op = Opcode::CollectMarker;
    r0.marker = 1;
    r0.color = 2;
    r0.rel = 7;
    r0.nodes.push_back(CollectedNode{11, 2.5f, 3});
    r0.nodes.push_back(CollectedNode{12, -0.5f, invalidNode});
    r0.links.push_back(CollectedLink{1, 2, 3, 0.75f});
    resp.results.push_back(r0);
    CollectResult r1;
    r1.op = Opcode::CollectMarker;
    r1.marker = 4;
    r1.nodes.push_back(CollectedNode{40, 1.0f, 40});
    resp.results.push_back(r1);
    WireWriter c;
    shard::encodeResponse(c, resp);
    expectPinned(c, 138, 0x5dc321ef21348415ull, "response");
}

TEST(ShardProtocol, StatsFramesRoundTripAndRejectTruncation)
{
    shard::StatsPullFrame pull;
    pull.nonce = 0x0102030405060708ull;
    WireWriter pw;
    shard::encodeStatsPull(pw, pull);
    {
        WireReader r(pw.bytes().data(), pw.bytes().size());
        shard::StatsPullFrame out;
        ASSERT_TRUE(shard::decodeStatsPull(r, out));
        EXPECT_EQ(out.nonce, pull.nonce);
    }
    expectEveryTruncationRejected(
        pw.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::StatsPullFrame out;
            return shard::decodeStatsPull(r, out);
        },
        "stats-pull");

    // Snapshot with labelled + unlabelled samples.
    shard::StatsSnapshotFrame snap;
    snap.nonce = 99;
    MetricsRegistry reg;
    reg.counter("snap_requests_total", 41.0, "served requests");
    reg.add("snap_log_emitted_total", MetricsRegistry::Kind::Counter,
            7.0, "log lines", {{"level", "warn"}});
    reg.gauge("snap_queue_depth", 3.0, "queued work");
    snap.samples = reg.samples();
    WireWriter sw;
    shard::encodeStatsSnapshot(sw, snap);
    {
        WireReader r(sw.bytes().data(), sw.bytes().size());
        shard::StatsSnapshotFrame out;
        ASSERT_TRUE(shard::decodeStatsSnapshot(r, out));
        EXPECT_EQ(out.nonce, 99u);
        ASSERT_EQ(out.samples.size(), snap.samples.size());
        for (std::size_t i = 0; i < out.samples.size(); ++i) {
            EXPECT_EQ(out.samples[i].name, snap.samples[i].name);
            EXPECT_EQ(out.samples[i].help, snap.samples[i].help);
            EXPECT_EQ(static_cast<int>(out.samples[i].kind),
                      static_cast<int>(snap.samples[i].kind));
            EXPECT_EQ(out.samples[i].labels,
                      snap.samples[i].labels);
            EXPECT_DOUBLE_EQ(out.samples[i].value,
                             snap.samples[i].value);
        }
    }
    expectEveryTruncationRejected(
        sw.bytes(),
        [](const std::uint8_t *d, std::size_t n) {
            WireReader r(d, n);
            shard::StatsSnapshotFrame out;
            return shard::decodeStatsSnapshot(r, out);
        },
        "stats-snapshot");

    // A forged sample count far beyond the payload is a clean
    // rejection, not an allocation bomb.
    WireWriter bw;
    bw.u64(7);          // nonce
    bw.u32(0xffffff);   // claimed sample count
    WireReader br(bw.bytes().data(), bw.bytes().size());
    shard::StatsSnapshotFrame bout;
    EXPECT_FALSE(shard::decodeStatsSnapshot(br, bout));
}

TEST(ShardProtocol, SessionFramesRoundTripTheMarkerState)
{
    constexpr std::uint32_t kNodes = 128;
    MarkerStore marks(kNodes);
    marks.setBit(1, 0);
    marks.setBit(1, 127);
    marks.set(3, 64, -1.5f, 12);
    marks.set(63, 31, 2.25f, 40);
    marks.set(63, 32, -0.0f, invalidNode);
    for (NodeId n : {0u, 5u, 31u, 32u, 63u, 64u, 100u, 127u})
        marks.setBit(100, n);
    marks.setBit(127, 77);

    shard::SessionPullFrame pull;
    pull.sessionId = "alice";
    WireWriter w1;
    shard::encodeSessionPull(w1, pull);
    WireReader r1(w1.bytes().data(), w1.bytes().size());
    shard::SessionPullFrame pull_out;
    ASSERT_TRUE(shard::decodeSessionPull(r1, pull_out));
    EXPECT_EQ(pull_out.sessionId, "alice");

    shard::SessionStateFrame st;
    st.sessionId = "alice";
    st.found = true;
    st.numNodes = kNodes;
    st.markers = marks;
    WireWriter w2;
    shard::encodeSessionState(w2, st);
    WireReader r2(w2.bytes().data(), w2.bytes().size());
    shard::SessionStateFrame st_out;
    ASSERT_TRUE(shard::decodeSessionState(r2, kNodes, st_out));
    EXPECT_TRUE(st_out.found);
    for (MarkerId m = 0; m < capacity::numMarkers; ++m) {
        for (NodeId n = 0; n < kNodes; ++n) {
            EXPECT_EQ(st_out.markers.test(m, n), marks.test(m, n));
            if (marks.test(m, n)) {
                EXPECT_EQ(st_out.markers.value(m, n), marks.value(m, n));
                EXPECT_EQ(st_out.markers.origin(m, n),
                          marks.origin(m, n));
            }
        }
    }
    EXPECT_FLOAT_EQ(st_out.markers.value(3, 64), -1.5f);
    EXPECT_EQ(st_out.markers.origin(3, 64), 12u);
    EXPECT_FLOAT_EQ(st_out.markers.value(63, 31), 2.25f);
    EXPECT_EQ(st_out.markers.origin(63, 31), 40u);
    // The checkpoint's bytes: plane by plane in marker order, nodes
    // ascending, values and origins for complex planes only.
    expectPinned(w2, 136, 0x4f217e8cfca5d434ull, "session state");

    // A checkpoint for a *different* node count must be rejected —
    // the session codecs are keyed to one KB generation's size.
    WireReader r3(w2.bytes().data(), w2.bytes().size());
    shard::SessionStateFrame wrong;
    EXPECT_FALSE(shard::decodeSessionState(r3, kNodes + 1, wrong));

    shard::SessionPushAckFrame ack;
    ack.sessionId = "alice";
    ack.ok = false;
    ack.detail = "node-count mismatch";
    WireWriter w4;
    shard::encodeSessionPushAck(w4, ack);
    WireReader r4(w4.bytes().data(), w4.bytes().size());
    shard::SessionPushAckFrame ack_out;
    ASSERT_TRUE(shard::decodeSessionPushAck(r4, ack_out));
    EXPECT_FALSE(ack_out.ok);
    EXPECT_EQ(ack_out.detail, ack.detail);
}

TEST(ShardProtocol, DecodingIntoAReusedFrameReplacesIt)
{
    // A decoder's output is the frame it decoded, whatever the frame
    // held before: a reader that reuses one frame per connection must
    // never hand out the previous frame's results.
    shard::ResponseFrame resp;
    const auto decodeResponseWith = [&resp](std::size_t num_results) {
        shard::ResponseFrame in;
        in.id = num_results;
        for (std::size_t i = 0; i < num_results; ++i) {
            CollectResult cr;
            cr.op = Opcode::CollectMarker;
            cr.marker = static_cast<MarkerId>(i);
            cr.nodes.push_back(
                CollectedNode{static_cast<NodeId>(i), 1.0f, 0});
            in.results.push_back(cr);
        }
        WireWriter w;
        shard::encodeResponse(w, in);
        WireReader r(w.bytes().data(), w.bytes().size());
        return shard::decodeResponse(r, resp);
    };
    ASSERT_TRUE(decodeResponseWith(1));
    ASSERT_TRUE(decodeResponseWith(2));
    ASSERT_GE(resp.results.size(), 2u);
    EXPECT_EQ(resp.results.size(), 2u);
    EXPECT_EQ(resp.results[0].marker, 0u);
    EXPECT_EQ(resp.results[1].marker, 1u);

    shard::StatsSnapshotFrame stats;
    const auto decodeStatsWith = [&stats](std::size_t num_samples) {
        MetricsRegistry reg;
        for (std::size_t i = 0; i < num_samples; ++i)
            reg.gauge(formatString("snap_sample_%zu", i),
                      static_cast<double>(i), "");
        shard::StatsSnapshotFrame in;
        in.nonce = num_samples;
        in.samples = reg.samples();
        WireWriter w;
        shard::encodeStatsSnapshot(w, in);
        WireReader r(w.bytes().data(), w.bytes().size());
        return shard::decodeStatsSnapshot(r, stats);
    };
    ASSERT_TRUE(decodeStatsWith(3));
    ASSERT_TRUE(decodeStatsWith(1));
    ASSERT_FALSE(stats.samples.empty());
    EXPECT_EQ(stats.samples.size(), 1u);
    EXPECT_EQ(stats.samples[0].name, "snap_sample_0");

    // A session the shard does not hold carries no markers.
    constexpr std::uint32_t kNodes = 64;
    shard::SessionStateFrame state;
    const auto decodeStateWith = [&state](bool found) {
        shard::SessionStateFrame in;
        in.sessionId = "bob";
        in.found = found;
        in.numNodes = kNodes;
        in.markers = MarkerStore(kNodes);
        if (found)
            in.markers.setBit(70, 9);
        WireWriter w;
        shard::encodeSessionState(w, in);
        WireReader r(w.bytes().data(), w.bytes().size());
        return shard::decodeSessionState(r, kNodes, state);
    };
    ASSERT_TRUE(decodeStateWith(true));
    EXPECT_TRUE(state.markers.test(70, 9));
    ASSERT_TRUE(decodeStateWith(false));
    EXPECT_FALSE(state.found);
    for (MarkerId m = 0; m < capacity::numMarkers; ++m)
        EXPECT_EQ(state.markers.count(m), 0u)
            << "marker " << static_cast<int>(m);
}

TEST(ShardProtocol, ResponseChecksumCatchesEveryByteFlip)
{
    shard::ResponseFrame orig;
    std::vector<std::uint8_t> bytes = encodedResponseBytes(&orig);

    // Flip every byte in turn: a corrupt-but-well-framed response
    // must never decode.  (The trailing 8 bytes are the checksum
    // itself; flipping those must fail too.)
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> bad = bytes;
        bad[i] ^= 0x40;
        WireReader r(bad.data(), bad.size());
        shard::ResponseFrame out;
        EXPECT_FALSE(shard::decodeResponse(r, out))
            << "flip at byte " << i << " decoded";
    }

    // The intact frame decodes and matches.
    {
        WireReader r(bytes.data(), bytes.size());
        shard::ResponseFrame out;
        ASSERT_TRUE(shard::decodeResponse(r, out));
        EXPECT_EQ(out.id, orig.id);
        ASSERT_EQ(out.results.size(), 1u);
        EXPECT_EQ(out.results[0].nodes, orig.results[0].nodes);
    }

    // No version tolerance: the same payload without its checksum (a
    // checksum-less peer) is rejected, not trusted unchecked.
    std::vector<std::uint8_t> unchecked(bytes.begin(), bytes.end() - 8);
    WireReader r(unchecked.data(), unchecked.size());
    shard::ResponseFrame out;
    EXPECT_FALSE(shard::decodeResponse(r, out));

    // A status byte past Failed (4 was a v5 peer's Hung) is rejected
    // even under a valid checksum; Failed itself decodes.
    auto withStatus = [&](std::uint8_t status) {
        std::vector<std::uint8_t> frame = unchecked;
        frame[8] = status;   // after the u64 id
        WireWriter sum;
        sum.u64(fnv1a64(frame.data(), frame.size()));
        frame.insert(frame.end(), sum.bytes().begin(), sum.bytes().end());
        return frame;
    };
    const std::vector<std::uint8_t> failed = withStatus(
        static_cast<std::uint8_t>(serve::RequestStatus::Failed));
    WireReader fr(failed.data(), failed.size());
    shard::ResponseFrame fout;
    ASSERT_TRUE(shard::decodeResponse(fr, fout));
    EXPECT_EQ(fout.status, serve::RequestStatus::Failed);
    const std::vector<std::uint8_t> past = withStatus(4);
    WireReader pr(past.data(), past.size());
    shard::ResponseFrame pout;
    EXPECT_FALSE(shard::decodeResponse(pr, pout));
}

TEST(ShardProtocol, HugeResultCountIsRejectedWithoutAllocating)
{
    // A well-formed header, then a result count of 2^32 - 1 with no
    // results behind it, sealed with a correct checksum: integrity
    // passes, so the count bound alone must stop the decode.
    WireWriter w;
    w.u64(1);                              // id
    w.u8(0);                               // status Ok
    w.u64(0);                              // wallTicks
    w.u64(0);                              // rngSeed
    w.f64(0.0);                            // queueMs
    w.f64(0.0);                            // serviceMs
    w.u32(0);                              // worker
    w.u32(0);                              // retries
    w.u8(0);                               // faultDetected
    w.u32(0xffffffffu);                    // claimed result count
    w.u64(fnv1a64(w.bytes().data(), w.size()));
    const std::vector<std::uint8_t> bytes = w.take();

    shard::ResponseFrame out;
    g_largestAlloc.store(0);
    g_trackAllocs.store(true);
    WireReader r(bytes.data(), bytes.size());
    const bool decoded = shard::decodeResponse(r, out);
    g_trackAllocs.store(false);
    EXPECT_FALSE(decoded);
    EXPECT_LT(g_largestAlloc.load(), 4096u)
        << "the decoder sized an allocation from the claimed count";
    EXPECT_TRUE(out.results.empty());
}

TEST(WireReader, CountIsBoundedByTheBytesLeft)
{
    // A count of 3 eight-byte elements with exactly 24 bytes behind
    // it fits; 4 does not.
    WireWriter w;
    w.u32(3);
    for (int i = 0; i < 3; ++i)
        w.u64(0);
    WireReader fits(w.bytes());
    EXPECT_EQ(fits.count(8), 3u);
    EXPECT_FALSE(fits.failed());

    WireWriter over;
    over.u32(4);
    for (int i = 0; i < 3; ++i)
        over.u64(0);
    WireReader r(over.bytes());
    EXPECT_EQ(r.count(8), 0u);
    EXPECT_TRUE(r.failed());
    // Sticky: later reads that would succeed leave it failed.
    r.u64();
    EXPECT_TRUE(r.failed());
    EXPECT_FALSE(r.done());

    // With no bytes left only a zero count fits.
    WireWriter empty;
    empty.u32(0);
    empty.u32(1);
    WireReader tail(empty.bytes());
    EXPECT_EQ(tail.count(1), 0u);
    EXPECT_FALSE(tail.failed());
    EXPECT_EQ(tail.count(1), 0u);
    EXPECT_TRUE(tail.failed());
}

TEST(WireReader, VarintRoundTripsAndRefusesTruncatedOrOverlong)
{
    const std::uint64_t values[] = {0, 1, 127, 128, 16383, 16384,
                                    0xffffffffull, 0xffffffffffffffffull};
    const std::size_t sizes[] = {1, 1, 1, 2, 2, 3, 5, 10};
    for (std::size_t i = 0; i < std::size(values); ++i) {
        WireWriter w;
        w.varint(values[i]);
        EXPECT_EQ(w.size(), sizes[i]) << values[i];
        WireReader r(w.bytes());
        EXPECT_EQ(r.varint(), values[i]);
        EXPECT_TRUE(r.done()) << values[i];

        // Every cut is refused, stickily.
        for (std::size_t cut = 0; cut < w.size(); ++cut) {
            WireReader t(w.bytes().data(), cut);
            EXPECT_EQ(t.varint(), 0u);
            EXPECT_TRUE(t.failed()) << values[i] << " cut " << cut;
            t.u8();
            EXPECT_TRUE(t.failed());
        }
    }

    // Longer than the value needs: a padded zero, a padded 1, an
    // eleventh byte, and a tenth byte carrying bits past the 64th.
    const std::vector<std::vector<std::uint8_t>> overlong = {
        {0x80, 0x00},
        {0x81, 0x80, 0x00},
        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81,
         0x00},
        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
    };
    for (const std::vector<std::uint8_t> &bytes : overlong) {
        WireReader r(bytes);
        EXPECT_EQ(r.varint(), 0u);
        EXPECT_TRUE(r.failed()) << bytes.size() << " bytes";
    }

    // A count after varints is still bounded by the bytes left.
    WireWriter w;
    w.varint(300);
    w.u32(2);
    w.varint(1);
    WireReader r(w.bytes());
    EXPECT_EQ(r.varint(), 300u);
    EXPECT_EQ(r.count(1), 0u);
    EXPECT_TRUE(r.failed());
}

// --- typed endpoint errors ----------------------------------------------

TEST(ShardEndpoint, TypedErrorsDistinguishFailureModes)
{
    // Refused: nobody is (or will be) listening on this path.
    shard::Endpoint dead;
    std::string detail;
    ASSERT_TRUE(shard::parseEndpoint(
        "unix:" + std::string(::testing::TempDir()) +
            "no-such-shard.sock",
        dead, detail))
        << detail;
    IoErrorKind kind = IoErrorKind::None;
    EXPECT_EQ(shard::connectEndpoint(dead, 50.0, detail, kind), -1);
    EXPECT_EQ(kind, IoErrorKind::Refused) << detail;

    // Closed: clean EOF at a frame boundary.
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    ::close(sp[1]);
    FrameType type;
    std::vector<std::uint8_t> payload;
    kind = IoErrorKind::None;
    EXPECT_FALSE(shard::readFrame(sp[0], type, payload, detail, kind));
    EXPECT_EQ(kind, IoErrorKind::Closed) << detail;
    ::close(sp[0]);

    // MidFrameEof: the peer died inside a frame.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    std::vector<std::uint8_t> body(64, 0xab);
    ASSERT_TRUE(shard::writeFrameTruncated(sp[1], FrameType::Request,
                                           body, body.size() / 2));
    ::close(sp[1]);
    kind = IoErrorKind::None;
    EXPECT_FALSE(shard::readFrame(sp[0], type, payload, detail, kind));
    EXPECT_EQ(kind, IoErrorKind::MidFrameEof) << detail;
    ::close(sp[0]);

    // OverCap: a length prefix past maxFramePayload must be refused
    // before any allocation.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    const std::uint32_t huge = shard::maxFramePayload + 1;
    std::uint8_t head[5];
    for (int i = 0; i < 4; ++i)
        head[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    head[4] = static_cast<std::uint8_t>(FrameType::Request);
    ASSERT_EQ(::write(sp[1], head, sizeof(head)),
              static_cast<ssize_t>(sizeof(head)));
    kind = IoErrorKind::None;
    EXPECT_FALSE(shard::readFrame(sp[0], type, payload, detail, kind));
    EXPECT_EQ(kind, IoErrorKind::OverCap) << detail;
    ::close(sp[0]);
    ::close(sp[1]);

    // BadType: a frame type outside the protocol range.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    std::uint8_t bad_head[5] = {
        0, 0, 0, 0,
        static_cast<std::uint8_t>(shard::maxFrameType + 1)};
    ASSERT_EQ(::write(sp[1], bad_head, sizeof(bad_head)),
              static_cast<ssize_t>(sizeof(bad_head)));
    kind = IoErrorKind::None;
    EXPECT_FALSE(shard::readFrame(sp[0], type, payload, detail, kind));
    EXPECT_EQ(kind, IoErrorKind::BadType) << detail;
    ::close(sp[0]);
    ::close(sp[1]);
}

TEST(ShardEndpoint, ParseAcceptsTcpAndRejectsBadHostsAndPorts)
{
    shard::Endpoint ep;
    std::string detail;
    ASSERT_TRUE(shard::parseEndpoint("127.0.0.1:7070", ep, detail))
        << detail;
    EXPECT_EQ(ep.kind, shard::Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 7070u);
    EXPECT_EQ(ep.toString(), "127.0.0.1:7070");
    ASSERT_TRUE(shard::parseEndpoint("localhost:65535", ep, detail))
        << detail;
    EXPECT_EQ(ep.port, 65535u);

    for (const char *bad :
         {"127.0.0.1:0", "127.0.0.1:65536", "shard-host:7070",
          "127.0.0.1:70x", "127.0.0.1:", ":7070", "no-port", "unix:"}) {
        detail.clear();
        EXPECT_FALSE(shard::parseEndpoint(bad, ep, detail)) << bad;
        EXPECT_FALSE(detail.empty()) << bad;
    }
}

// --- fleet fault plans ---------------------------------------------------

TEST(FleetFault, StreamsAreDeterministicAndIndependent)
{
    FleetFaultSpec spec;
    spec.seed = 0xfee1;
    spec.connDropRate = 0.3;
    spec.truncateRate = 0.2;
    spec.corruptRate = 0.1;
    spec.delayRate = 0.4;
    ASSERT_TRUE(spec.any());
    spec.validate();

    // Two plans from the same spec roll identical per-kind streams.
    FleetFaultPlan a(spec), b(spec);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(a.rollConnDrop(), b.rollConnDrop());
        EXPECT_EQ(a.rollTruncate(), b.rollTruncate());
        EXPECT_EQ(a.rollCorrupt(), b.rollCorrupt());
        EXPECT_EQ(a.rollDelay(), b.rollDelay());
    }
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_EQ(a.connDrops() + a.truncates() + a.corrupts() +
                  a.delays(),
              a.injected());
    // Rates are honored to within loose bounds (they are salted
    // splitmix64 streams, not shared draws).
    EXPECT_GT(a.connDrops(), 2000 * 0.3 / 2);
    EXPECT_LT(a.connDrops(), 2000 * 0.3 * 2);
    EXPECT_GT(a.delays(), 2000 * 0.4 / 2);

    // A different seed must give a different schedule.
    FleetFaultSpec other = spec;
    other.seed = 0xfee2;
    FleetFaultPlan c(other);
    int diverged = 0;
    FleetFaultPlan a2(spec);
    for (int i = 0; i < 2000; ++i)
        diverged += a2.rollConnDrop() != c.rollConnDrop();
    EXPECT_GT(diverged, 0);
}

TEST(FleetFault, SpecSerializesAndSplitsTheAggregateRate)
{
    FleetFaultSpec spec;
    spec.seed = 99;
    spec.connDropRate = 0.01;
    spec.truncateRate = 0.02;
    spec.corruptRate = 0.03;
    spec.delayRate = 0.04;
    spec.delayMs = 75.0;

    FleetFaultSpec back;
    ASSERT_TRUE(FleetFaultSpec::fromJson(spec.toJson(), back))
        << spec.toJson();
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_DOUBLE_EQ(back.connDropRate, spec.connDropRate);
    EXPECT_DOUBLE_EQ(back.truncateRate, spec.truncateRate);
    EXPECT_DOUBLE_EQ(back.corruptRate, spec.corruptRate);
    EXPECT_DOUBLE_EQ(back.delayRate, spec.delayRate);
    EXPECT_DOUBLE_EQ(back.delayMs, spec.delayMs);

    EXPECT_FALSE(FleetFaultSpec::fromJson("not json at all", back));
    // A negative seed is malformed, not wrapped to 2^64 - 2.
    EXPECT_FALSE(FleetFaultSpec::fromJson("{\"seed\": -2}", back));
    EXPECT_FALSE(FleetFaultSpec::fromJson("{\"seed\":\t\n-2}", back));
    EXPECT_EQ(back.seed, spec.seed);
    // Keys are strict, as for the machine's FaultSpec.
    std::string why;
    EXPECT_FALSE(FleetFaultSpec::fromJson("{\"delay_rate\": 0.5}", back,
                                          &why));
    EXPECT_EQ(why, "unknown key \"delay_rate\"");
    EXPECT_FALSE(FleetFaultSpec::fromJson(
        "{\"delay\": 0.5, \"delay\": 0.5}", back, &why));
    EXPECT_EQ(why, "repeated key \"delay\"");
    EXPECT_FALSE(
        FleetFaultSpec::fromJson("{\"delay\" 0.5}", back, &why));
    EXPECT_EQ(why, "missing ':' after \"delay\"");
    EXPECT_FALSE(
        FleetFaultSpec::fromJson("{\"delay\": 0.5}}", back, &why));
    EXPECT_EQ(why, "bytes after the closing '}'");
    EXPECT_DOUBLE_EQ(back.delayRate, spec.delayRate);

    // --fleet-fault-rate sugar: the aggregate splits evenly.
    FleetFaultSpec w = FleetFaultSpec::wireFaults(7, 0.2);
    EXPECT_EQ(w.seed, 7u);
    EXPECT_DOUBLE_EQ(w.connDropRate, 0.05);
    EXPECT_DOUBLE_EQ(w.truncateRate, 0.05);
    EXPECT_DOUBLE_EQ(w.corruptRate, 0.05);
    EXPECT_DOUBLE_EQ(w.delayRate, 0.05);
    EXPECT_TRUE(w.any());
    EXPECT_FALSE(FleetFaultSpec{}.any());
}

// --- in-process sharded serving ----------------------------------------

/** Self-cleaning temp path. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

serve::ServeConfig
shardServeConfig()
{
    serve::ServeConfig cfg;
    cfg.numWorkers = 2;
    cfg.machine.numClusters = 8;
    cfg.machine.perfNetEnabled = false;
    return cfg;
}

/** A running in-process shard: server + its accept-loop thread. */
struct TestShard
{
    std::unique_ptr<ShardServer> server;
    std::thread runner;

    TestShard(const std::string &image_path,
              const std::string &listen,
              const FleetFaultSpec &faults = FleetFaultSpec{})
    {
        KbImageFile kb;
        std::string detail;
        EXPECT_EQ(loadKbImageFile(image_path, kb, detail),
                  KbImgStatus::Ok)
            << detail;
        shard::ShardServerConfig cfg;
        cfg.listen = listen;
        cfg.serve = shardServeConfig();
        cfg.fleetFaults = faults;
        server = std::make_unique<ShardServer>(std::move(kb), cfg);
        EXPECT_TRUE(server->bind(detail)) << detail;
        runner = std::thread([this] { server->run(); });
    }

    ~TestShard()
    {
        server->stop();
        runner.join();
    }
};

class ShardFleetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        net_ = makeTreeKb(300, 4);
        serve::ServeConfig scfg = shardServeConfig();
        KbImage image(net_, scfg.machine);
        image_file_ = std::make_unique<TempPath>("fleet.kbimg");
        saveKbImageFile(net_, image, scfg.machine.partition,
                        image_file_->path());
    }

    /** Expected answer for @p prog from a solo machine. */
    RunResult
    reference(const Program &prog)
    {
        serve::ServeConfig scfg = shardServeConfig();
        SnapMachine direct(scfg.machine);
        direct.loadKb(net_);
        return direct.run(prog);
    }

    SemanticNetwork net_;
    std::unique_ptr<TempPath> image_file_;
};

TEST_F(ShardFleetTest, RouterAnswersMatchDirectExecution)
{
    RelationType inc = net_.relationId("includes");
    RelationType isa = net_.relationId("is-a");
    std::vector<Program> mix;
    std::vector<RunResult> expect;
    for (NodeId n = 0; n < 12; ++n) {
        mix.push_back(countQuery(n * 37 % 300, n % 2 ? inc : isa));
        expect.push_back(reference(mix.back()));
    }

    for (std::uint32_t n_shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(n_shards) + " shard(s)");
        std::vector<std::unique_ptr<TempPath>> socks;
        std::vector<std::unique_ptr<TestShard>> fleet;
        shard::RouterConfig rcfg;
        for (std::uint32_t s = 0; s < n_shards; ++s) {
            socks.push_back(std::make_unique<TempPath>(
                "fleet" + std::to_string(n_shards) + "_" +
                std::to_string(s) + ".sock"));
            std::string ep = "unix:" + socks.back()->path();
            fleet.push_back(
                std::make_unique<TestShard>(image_file_->path(), ep));
            rcfg.shards.push_back(ep);
        }
        ShardRouter router(rcfg);
        std::string detail;
        ASSERT_TRUE(router.connect(detail)) << detail;
        EXPECT_EQ(router.numShards(), n_shards);
        EXPECT_NE(router.fingerprint(), 0u);
        for (std::uint32_t s = 0; s < n_shards; ++s) {
            std::string err;
            EXPECT_TRUE(router.probeShard(s, err)) << err;
            EXPECT_TRUE(router.shardHealthy(s));
        }

        std::vector<shard::ResponseFrame> got(mix.size());
        std::mutex mu;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            shard::RouterRequest req;
            req.prog = mix[i];
            router.submit(std::move(req),
                          [&, i](shard::ResponseFrame &&resp) {
                              std::lock_guard<std::mutex> lock(mu);
                              got[i] = std::move(resp);
                          });
        }
        router.drain();

        for (std::size_t i = 0; i < mix.size(); ++i) {
            ASSERT_EQ(got[i].status, serve::RequestStatus::Ok)
                << "request " << i;
            test::expectSameResults(got[i].results, expect[i].results);
            EXPECT_EQ(got[i].wallTicks, expect[i].wallTicks)
                << "request " << i;
        }
    }
}

TEST_F(ShardFleetTest, TcpEndpointAnswersMatchDirectExecution)
{
    // Serve on a loopback port, moving on when one is taken.  The
    // start is spread by pid so concurrent test runs rarely collide.
    KbImageFile kb;
    std::unique_ptr<ShardServer> server;
    std::string ep, detail;
    const int base = 20000 + static_cast<int>(::getpid() % 20000);
    for (int port = base; port < base + 64 && !server; ++port) {
        ASSERT_EQ(loadKbImageFile(image_file_->path(), kb, detail),
                  KbImgStatus::Ok)
            << detail;
        shard::ShardServerConfig cfg;
        cfg.listen = ep = "127.0.0.1:" + std::to_string(port);
        cfg.serve = shardServeConfig();
        server = std::make_unique<ShardServer>(std::move(kb), cfg);
        if (!server->bind(detail))
            server.reset();
    }
    ASSERT_TRUE(server) << "no free loopback port: " << detail;
    std::thread runner([&] { server->run(); });
    // Stops the shard after the router below is gone, as TestShard
    // does, and on an early return too.
    struct StopOnExit
    {
        ShardServer &server;
        std::thread &runner;
        ~StopOnExit()
        {
            server.stop();
            runner.join();
        }
    } stop_on_exit{*server, runner};

    shard::RouterConfig rcfg;
    rcfg.shards = {ep};
    ShardRouter router(rcfg);
    ASSERT_TRUE(router.connect(detail)) << detail;

    // One stateless request and two turns of one session; a session's
    // k-th turn answers like the k-th back-to-back run of the program.
    RelationType inc = net_.relationId("includes");
    const Program stateless = countQuery(17, inc);
    const Program turn = countQuery(3, inc);
    std::vector<RunResult> expect{reference(stateless)};
    {
        SnapMachine straight(shardServeConfig().machine);
        straight.loadKb(net_);
        for (int k = 0; k < 2; ++k)
            expect.push_back(straight.run(turn));
    }
    std::vector<shard::ResponseFrame> got(expect.size());
    std::mutex mu;
    for (std::size_t i = 0; i < got.size(); ++i) {
        shard::RouterRequest req;
        if (i == 0) {
            req.prog = stateless;
        } else {
            req.sessionId = "tcp-session";
            req.prog = turn;
        }
        router.submit(std::move(req),
                      [&, i](shard::ResponseFrame &&resp) {
                          std::lock_guard<std::mutex> lock(mu);
                          got[i] = std::move(resp);
                      });
        router.drain();
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].status, serve::RequestStatus::Ok)
            << "request " << i;
        test::expectSameResults(got[i].results, expect[i].results);
        EXPECT_EQ(got[i].wallTicks, expect[i].wallTicks)
            << "request " << i;
    }
}

TEST_F(ShardFleetTest, TracedAnswersMatchAndFleetStatsAggregate)
{
    TempPath sock0("tracefleet0.sock"), sock1("tracefleet1.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    rcfg.traceSample = 1.0;   // stamp every request's context
    rcfg.slowQueryMs = 0.0;   // log every query as "slow"
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    // Eight programs, repeated past the slow-query log's window
    // (repeats are answer-cache hits, so this stays cheap).
    RelationType inc = net_.relationId("includes");
    std::vector<Program> mix;
    std::vector<RunResult> refs;
    for (NodeId n = 0; n < 8; ++n) {
        mix.push_back(countQuery(n * 41 % 300, inc));
        refs.push_back(reference(mix.back()));
    }
    const std::size_t queries = ShardRouter::maxSlowQueries + 76;

    std::vector<shard::ResponseFrame> got(queries);
    std::mutex mu;
    for (std::size_t i = 0; i < queries; ++i) {
        shard::RouterRequest req;
        req.prog = mix[i % mix.size()];
        router.submit(std::move(req),
                      [&, i](shard::ResponseFrame &&resp) {
                          std::lock_guard<std::mutex> lock(mu);
                          got[i] = std::move(resp);
                      });
    }
    router.drain();

    // Trace context on the wire must not perturb the answers.
    for (std::size_t i = 0; i < queries; ++i) {
        ASSERT_EQ(got[i].status, serve::RequestStatus::Ok)
            << "request " << i;
        const RunResult &ref = refs[i % mix.size()];
        test::expectSameResults(got[i].results, ref.results);
        EXPECT_EQ(got[i].wallTicks, ref.wallTicks);
    }

    // Every query cleared the 0ms slow threshold and logged its
    // per-hop path; the log keeps the latest maxSlowQueries records
    // while the count takes them all.
    auto slow = router.slowQueries();
    ASSERT_EQ(slow.size(), ShardRouter::maxSlowQueries);
    EXPECT_EQ(router.slowQueryCount(), queries);
    for (const auto &q : slow) {
        EXPECT_NE(q.traceId, 0u);
        ASSERT_GE(q.hops.size(), 1u);
        EXPECT_STREQ(q.hops[0].kind, "primary");
        EXPECT_NE(q.hops[0].spanId, 0u);
        EXPECT_EQ(q.winner, q.hops.back().shard);
        EXPECT_FALSE(q.hedged);
        EXPECT_GE(q.totalMs, 0.0);
    }

    // On-demand stats pull: each shard answers with its engine +
    // logger registry snapshot.  A second pull replaces the first: it
    // carries the same series, not the first pull's samples again.
    for (std::uint32_t s = 0; s < 2; ++s) {
        shard::StatsSnapshotFrame first, snap;
        std::string err;
        ASSERT_TRUE(router.pullShardStats(s, first, err)) << err;
        ASSERT_TRUE(router.pullShardStats(s, snap, err)) << err;
        EXPECT_EQ(snap.samples.size(), first.samples.size())
            << "shard " << s;
        EXPECT_FALSE(snap.samples.empty());
        bool saw_engine = false, saw_logger = false;
        for (const auto &smp : snap.samples) {
            if (smp.name.rfind("snap_serve_", 0) == 0)
                saw_engine = true;
            if (smp.name == "snap_log_emitted_total")
                saw_logger = true;
        }
        EXPECT_TRUE(saw_engine) << "shard " << s;
        EXPECT_TRUE(saw_logger) << "shard " << s;
    }

    // The aggregated fleet view carries router counters plus the
    // cached shard samples re-labelled per shard.
    MetricsRegistry reg;
    router.exportFleetMetrics(reg);
    double shards_up = -1.0;
    bool saw_shard0 = false, saw_shard1 = false, slow_total = false;
    std::map<std::pair<std::string, MetricsRegistry::Labels>, int>
        series;
    for (const auto &smp : reg.samples()) {
        const int copies = ++series[std::make_pair(smp.name, smp.labels)];
        EXPECT_EQ(copies, 1) << "duplicate fleet series " << smp.name;
        if (smp.name == "snap_router_shards_up")
            shards_up = smp.value;
        if (smp.name == "snap_router_slow_queries_total") {
            slow_total = true;
            EXPECT_DOUBLE_EQ(smp.value, static_cast<double>(queries));
        }
        for (const auto &lab : smp.labels) {
            if (lab.first == "shard") {
                if (lab.second == "0")
                    saw_shard0 = true;
                if (lab.second == "1")
                    saw_shard1 = true;
            }
        }
    }
    EXPECT_DOUBLE_EQ(shards_up, 2.0);
    EXPECT_TRUE(slow_total);
    EXPECT_TRUE(saw_shard0);
    EXPECT_TRUE(saw_shard1);

    // Clock offsets were exchanged in the handshake (both shards
    // share this process's clock, so the offset is tiny but real).
    for (std::uint32_t s = 0; s < 2; ++s) {
        const std::int64_t off = router.shardClockOffsetNs(s);
        const std::int64_t minute = 60ll * 1000 * 1000 * 1000;
        EXPECT_GT(off, -minute);
        EXPECT_LT(off, minute);
    }
}

TEST_F(ShardFleetTest, SessionsSurviveAndStayOrdered)
{
    TempPath sock0("sess0.sock"), sock1("sess1.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    // Several sessions, several requests each; a session's repeated
    // queries all land on its pinned shard and answer Ok.
    RelationType inc = net_.relationId("includes");
    constexpr int kSessions = 4;
    constexpr int kPerSession = 3;
    std::atomic<int> ok{0};
    for (int round = 0; round < kPerSession; ++round) {
        for (int s = 0; s < kSessions; ++s) {
            shard::RouterRequest req;
            req.sessionId = "sess-" + std::to_string(s);
            req.prog = countQuery(static_cast<NodeId>(s), inc);
            router.submit(std::move(req),
                          [&](shard::ResponseFrame &&resp) {
                              if (resp.status ==
                                  serve::RequestStatus::Ok)
                                  ++ok;
                          });
        }
    }
    router.drain();
    EXPECT_EQ(ok.load(), kSessions * kPerSession);
}

TEST_F(ShardFleetTest, StatelessTrafficSurvivesAShardDeath)
{
    TempPath sock0("die0.sock"), sock1("die1.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());
    auto s1 = std::make_unique<TestShard>(image_file_->path(),
                                          "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    // Kill shard 1 outright; the router notices via the dead
    // connection and every stateless request re-routes to shard 0.
    s1.reset();

    RelationType inc = net_.relationId("includes");
    std::atomic<int> ok{0};
    constexpr int kRequests = 16;
    for (int i = 0; i < kRequests; ++i) {
        shard::RouterRequest req;
        req.prog = countQuery(static_cast<NodeId>(i * 17 % 300), inc);
        router.submit(std::move(req),
                      [&](shard::ResponseFrame &&resp) {
                          if (resp.status == serve::RequestStatus::Ok)
                              ++ok;
                      });
    }
    router.drain();
    EXPECT_EQ(ok.load(), kRequests)
        << "stateless traffic must fail over, not fail";
    EXPECT_FALSE(router.shardHealthy(1));
    EXPECT_TRUE(router.shardHealthy(0));
}

TEST_F(ShardFleetTest, EpochHotSwapUnderLoadGivesZeroWrongAnswers)
{
    // Second generation: same tree plus one extra is-a/includes pair
    // rewired as identical content — use the same KB so answers stay
    // comparable, but a *distinct file* so the swap is observable.
    TempPath gen2("fleet_gen2.kbimg");
    {
        serve::ServeConfig scfg = shardServeConfig();
        KbImage image(net_, scfg.machine);
        saveKbImageFile(net_, image, scfg.machine.partition,
                        gen2.path());
    }

    TempPath sock0("swap0.sock"), sock1("swap1.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;
    const std::uint64_t epoch_before = router.epoch();

    RelationType inc = net_.relationId("includes");
    Program prog = countQuery(0, inc);
    RunResult ref = reference(prog);
    // A session's k-th turn answers like the k-th back-to-back run of
    // the program on one machine.
    std::vector<RunResult> turn_ref;
    {
        SnapMachine straight(shardServeConfig().machine);
        straight.loadKb(net_);
        for (int k = 0; k < 3; ++k)
            turn_ref.push_back(straight.run(prog));
    }

    // Load from a submitter thread while the main thread swaps: the
    // barrier must hold every request to one side of the flip.
    std::atomic<int> ok{0}, wrong{0}, failed{0};
    std::atomic<bool> stop{false};
    std::thread submitter([&] {
        while (!stop.load()) {
            shard::RouterRequest req;
            req.prog = prog;
            router.submit(
                std::move(req),
                [&](shard::ResponseFrame &&resp) {
                    if (resp.status != serve::RequestStatus::Ok)
                        ++failed;
                    else if (sameAnswer(resp, ref))
                        ++ok;
                    else
                        ++wrong;
                });
        }
    });

    // Two pinned sessions take a turn before, between and after the
    // flips; their marker state must carry across both.
    std::vector<shard::ResponseFrame> turns(6);
    std::mutex turns_mu;
    auto sessionTurns = [&](int round) {
        for (int s = 0; s < 2; ++s) {
            shard::RouterRequest req;
            req.sessionId = "swap-s" + std::to_string(s);
            req.prog = prog;
            router.submit(std::move(req),
                          [&, round, s](shard::ResponseFrame &&resp) {
                              std::lock_guard<std::mutex> lock(turns_mu);
                              turns[round * 2 + s] = std::move(resp);
                          });
        }
    };

    // Let traffic build, then flip the epoch twice under load.
    while (ok.load() < 4)
        std::this_thread::yield();
    sessionTurns(0);
    std::string err;
    ASSERT_TRUE(router.swapEpoch(gen2.path(), err)) << err;
    EXPECT_EQ(router.epoch(), epoch_before + 1);
    sessionTurns(1);
    ASSERT_TRUE(router.swapEpoch(image_file_->path(), err)) << err;
    EXPECT_EQ(router.epoch(), epoch_before + 2);
    sessionTurns(2);

    stop = true;
    submitter.join();
    router.drain();

    EXPECT_EQ(wrong.load(), 0) << "a request straddled the flip";
    EXPECT_EQ(failed.load(), 0) << "the barrier dropped a request";
    EXPECT_GT(ok.load(), 4);
    for (int round = 0; round < 3; ++round) {
        for (int s = 0; s < 2; ++s) {
            const shard::ResponseFrame &t = turns[round * 2 + s];
            EXPECT_EQ(t.status, serve::RequestStatus::Ok)
                << "session " << s << " turn " << round;
            EXPECT_TRUE(sameAnswer(t, turn_ref[round]))
                << "session " << s << " turn " << round;
        }
    }

    // A corrupt next generation is refused and serving continues.
    TempPath bad("fleet_bad.kbimg");
    {
        std::string bytes;
        {
            std::ifstream is(image_file_->path(), std::ios::binary);
            std::ostringstream buf;
            buf << is.rdbuf();
            bytes = buf.str();
        }
        bytes[bytes.size() / 2] ^= 0x20;
        std::ofstream os(bad.path(), std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(router.swapEpoch(bad.path(), err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
    EXPECT_EQ(router.epoch(), epoch_before + 2)
        << "a refused swap must not advance the epoch";

    std::atomic<int> after_ok{0};
    shard::RouterRequest req;
    req.prog = prog;
    router.submit(std::move(req),
                  [&](shard::ResponseFrame &&resp) {
                      if (resp.status == serve::RequestStatus::Ok)
                          ++after_ok;
                  });
    router.drain();
    EXPECT_EQ(after_ok.load(), 1)
        << "the old image must keep serving after a refused swap";
}

// --- failover edges -----------------------------------------------------

/** Submit one request and block for its answer (failed requests
 *  still resolve — the router always invokes the callback). */
shard::ResponseFrame
submitAndWait(ShardRouter &router, shard::RouterRequest req)
{
    auto prom =
        std::make_shared<std::promise<shard::ResponseFrame>>();
    auto fut = prom->get_future();
    router.submit(std::move(req),
                  [prom](shard::ResponseFrame &&resp) {
                      prom->set_value(std::move(resp));
                  });
    return fut.get();
}

/** Stateless queries whose route key (program content hash) lands on
 *  @p shard under @p ring — lets a test aim traffic at the faulted
 *  shard deterministically. */
std::vector<Program>
programsOwnedBy(const HashRing &ring, std::uint32_t shard,
                SemanticNetwork &net, std::size_t count)
{
    RelationType inc = net.relationId("includes");
    RelationType isa = net.relationId("is-a");
    std::vector<Program> out;
    for (NodeId n = 0; out.size() < count && n < 600; ++n) {
        Program p = countQuery(n % 300, n < 300 ? inc : isa);
        if (ring.owner(p.contentHash()) == shard)
            out.push_back(p);
    }
    return out;
}

TEST_F(ShardFleetTest, MidFrameEofFailsOverWithTypedError)
{
    TempPath sock0("mfe0.sock"), sock1("mfe1.sock");
    FleetFaultSpec trunc;
    trunc.seed = 11;
    trunc.truncateRate = 1.0;
    TestShard s0(image_file_->path(), "unix:" + sock0.path(), trunc);
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    rcfg.reconnectMs = 0.0; // a downed shard stays down: assertable
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    HashRing ring(2, rcfg.vnodes);
    std::vector<Program> progs = programsOwnedBy(ring, 0, net_, 4);
    ASSERT_GE(progs.size(), 1u);
    for (const Program &p : progs) {
        shard::RouterRequest req;
        req.prog = p;
        shard::ResponseFrame resp =
            submitAndWait(router, std::move(req));
        ASSERT_EQ(resp.status, serve::RequestStatus::Ok)
            << "a truncating shard must not lose the request";
        test::expectSameResults(resp.results, reference(p).results);
    }
    // Every response shard 0 tried to send died mid-frame: the
    // router must have the typed cause and the shard marked down.
    EXPECT_FALSE(router.shardHealthy(0));
    EXPECT_TRUE(router.shardHealthy(1));
    EXPECT_EQ(router.shardLastError(0), IoErrorKind::MidFrameEof);
    EXPECT_GE(router.rerouteCount(), 1u);
}

TEST_F(ShardFleetTest, ConnectionDropIsACleanCloseAndReroutes)
{
    TempPath sock0("drop0.sock"), sock1("drop1.sock");
    FleetFaultSpec drop;
    drop.seed = 12;
    drop.connDropRate = 1.0;
    TestShard s0(image_file_->path(), "unix:" + sock0.path(), drop);
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    rcfg.reconnectMs = 0.0;
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    HashRing ring(2, rcfg.vnodes);
    std::vector<Program> progs = programsOwnedBy(ring, 0, net_, 4);
    ASSERT_GE(progs.size(), 1u);
    for (const Program &p : progs) {
        shard::RouterRequest req;
        req.prog = p;
        shard::ResponseFrame resp =
            submitAndWait(router, std::move(req));
        ASSERT_EQ(resp.status, serve::RequestStatus::Ok);
        test::expectSameResults(resp.results, reference(p).results);
    }
    EXPECT_FALSE(router.shardHealthy(0));
    EXPECT_EQ(router.shardLastError(0), IoErrorKind::Closed);
    EXPECT_GE(router.rerouteCount(), 1u);
}

TEST_F(ShardFleetTest, ByzantineCorruptionIsNeverServed)
{
    TempPath sock0("byz0.sock"), sock1("byz1.sock");
    FleetFaultSpec corrupt;
    corrupt.seed = 13;
    corrupt.corruptRate = 1.0;
    TestShard s0(image_file_->path(), "unix:" + sock0.path(),
                 corrupt);
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    rcfg.reconnectMs = 0.0;
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    HashRing ring(2, rcfg.vnodes);
    std::vector<Program> progs = programsOwnedBy(ring, 0, net_, 4);
    ASSERT_GE(progs.size(), 1u);
    for (const Program &p : progs) {
        shard::RouterRequest req;
        req.prog = p;
        shard::ResponseFrame resp =
            submitAndWait(router, std::move(req));
        // The flipped-bit response must never reach the caller: the
        // checksum catches it and the clean replica answers.
        ASSERT_EQ(resp.status, serve::RequestStatus::Ok);
        test::expectSameResults(resp.results, reference(p).results);
    }
    EXPECT_GE(router.corruptResponseCount(), 1u);
    EXPECT_FALSE(router.shardHealthy(0))
        << "a corrupting shard is compromised, not trusted again";
}

// --- hostile requests ---------------------------------------------------

/** A hand-driven connection to a shard, past the Hello handshake. */
struct RawConnection
{
    int fd = -1;

    explicit RawConnection(const std::string &endpoint)
    {
        shard::Endpoint ep;
        std::string detail;
        EXPECT_TRUE(shard::parseEndpoint(endpoint, ep, detail))
            << detail;
        fd = shard::connectEndpoint(ep, 5000.0, detail);
        EXPECT_GE(fd, 0) << detail;
        WireWriter w;
        shard::encodeHello(w, shard::HelloFrame{});
        EXPECT_TRUE(shard::writeFrame(fd, FrameType::Hello, w.bytes()));
        FrameType type;
        std::vector<std::uint8_t> payload;
        EXPECT_TRUE(shard::readFrame(fd, type, payload, detail))
            << detail;
        EXPECT_EQ(type, FrameType::HelloAck);
    }

    ~RawConnection() { shard::closeFd(fd); }

    /** Send one Request payload.  @return false when the shard closes
     *  the connection instead of answering. */
    bool
    request(const std::vector<std::uint8_t> &payload,
            shard::ResponseFrame &resp)
    {
        std::string detail;
        FrameType type;
        std::vector<std::uint8_t> bytes;
        resp = shard::ResponseFrame{};
        if (!shard::writeFrame(fd, FrameType::Request, payload) ||
            !shard::readFrame(fd, type, bytes, detail))
            return false;
        WireReader r(bytes);
        return type == FrameType::Response &&
               shard::decodeResponse(r, resp);
    }
};

std::vector<std::uint8_t>
requestBytes(const Program &prog)
{
    shard::RequestFrame req;
    req.id = 31;
    req.prog = prog;
    WireWriter w;
    shard::encodeRequest(w, req);
    return w.take();
}

/** A Request payload carrying raw program codec bytes @p prog: the
 *  encoding of a request with an empty program (8 zero bytes just
 *  before the 17-byte trace context), with those 8 bytes replaced. */
std::vector<std::uint8_t>
requestCarrying(const std::vector<std::uint8_t> &prog)
{
    std::vector<std::uint8_t> bytes = requestBytes(Program());
    const auto at = static_cast<std::ptrdiff_t>(bytes.size() - 17 - 8);
    bytes.erase(bytes.begin() + at, bytes.begin() + at + 8);
    bytes.insert(bytes.begin() + at, prog.begin(), prog.end());
    return bytes;
}

TEST_F(ShardFleetTest, HostileRequestsAreRejectedAndTheShardKeepsServing)
{
    TempPath sock0("hostile0.sock");
    const std::string ep = "unix:" + sock0.path();
    TestShard s0(image_file_->path(), ep);
    const RelationType inc = net_.relationId("includes");

    // Program bytes the codec refuses: the shard drops the connection
    // (a peer that sends them is broken) and lives on.
    auto rule_bytes = [](std::uint32_t max_steps,
                         std::uint32_t segments) {
        WireWriter w;
        w.u32(1);  // one rule
        w.u32(max_steps);
        w.u32(segments);
        for (std::uint32_t s = 0; s < segments; ++s) {
            w.u8(1);
            w.u32(1);
            w.u16(1);
        }
        w.u32(1);  // one instruction: PROPAGATE m0 -> m0 by rule 0
        w.u8(static_cast<std::uint8_t>(Opcode::Propagate));
        w.u16(0);
        return w.take();
    };
    Program too_long;
    for (std::uint32_t i = 0; i < 70000; ++i)
        too_long.append(Instruction::barrier());
    const std::vector<std::vector<std::uint8_t>> refused = {
        requestCarrying(rule_bytes(64, 0)),  // a rule with no segments
        requestCarrying(rule_bytes(0, 1)),   // maxSteps 0
        requestBytes(too_long),  // past the 16-bit sequence space
    };
    for (std::size_t i = 0; i < refused.size(); ++i) {
        RawConnection conn(ep);
        shard::ResponseFrame resp;
        EXPECT_FALSE(conn.request(refused[i], resp))
            << "hostile request " << i << " was answered";
    }

    // The well-formed twin of the hostile rule bytes is served.
    RawConnection conn(ep);
    shard::ResponseFrame resp;
    ASSERT_TRUE(conn.request(requestCarrying(rule_bytes(64, 1)), resp));
    EXPECT_EQ(resp.status, serve::RequestStatus::Ok);

    // A program naming a node outside the image decodes; the engine
    // answers it Failed without running it, on the same connection.
    ASSERT_TRUE(conn.request(requestBytes(countQuery(99999, inc)), resp));
    EXPECT_EQ(resp.id, 31u);
    EXPECT_EQ(resp.status, serve::RequestStatus::Failed);
    EXPECT_EQ(resp.retries, 0u);
    EXPECT_TRUE(resp.results.empty());

    // The shard keeps serving, on this connection and a new one.
    const Program valid = countQuery(3, inc);
    ASSERT_TRUE(conn.request(requestBytes(valid), resp));
    EXPECT_EQ(resp.status, serve::RequestStatus::Ok);
    EXPECT_TRUE(sameAnswer(resp, reference(valid)));
    RawConnection fresh(ep);
    ASSERT_TRUE(fresh.request(requestBytes(valid), resp));
    EXPECT_EQ(resp.status, serve::RequestStatus::Ok);
    EXPECT_TRUE(sameAnswer(resp, reference(valid)));
}

TEST_F(ShardFleetTest, RouterFailsAnOverlongProgramWithoutDowningAShard)
{
    TempPath sock0("long0.sock"), sock1("long1.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    rcfg.reconnectMs = 0.0; // a downed shard stays down: assertable
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    // Past the controller's sequence space: every shard's decoder
    // would refuse it by cutting the connection.
    shard::RouterRequest too_long;
    for (std::uint32_t i = 0; i < 70000; ++i)
        too_long.prog.append(Instruction::barrier());
    shard::ResponseFrame resp =
        submitAndWait(router, std::move(too_long));
    EXPECT_EQ(resp.status, serve::RequestStatus::Failed);
    EXPECT_TRUE(router.shardHealthy(0));
    EXPECT_TRUE(router.shardHealthy(1));
    EXPECT_EQ(router.rerouteCount(), 0u);

    const Program valid = countQuery(3, net_.relationId("includes"));
    shard::RouterRequest req;
    req.prog = valid;
    resp = submitAndWait(router, std::move(req));
    ASSERT_EQ(resp.status, serve::RequestStatus::Ok);
    EXPECT_TRUE(sameAnswer(resp, reference(valid)));
}

TEST_F(ShardFleetTest, ConnectRefusedIsTypedAtConnect)
{
    TempPath sock0("ref0.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(),
                   "unix:" + std::string(::testing::TempDir()) +
                       "never-bound.sock"};
    rcfg.connectTimeoutMs = 150.0;
    ShardRouter router(rcfg);
    std::string detail;
    EXPECT_FALSE(router.connect(detail));
    EXPECT_NE(detail.find("shard 1"), std::string::npos) << detail;
    EXPECT_EQ(router.shardLastError(1), IoErrorKind::Refused);
}

/** A fake shard that completes the Hello handshake and then goes
 *  silent — a wedged process: accepting, not answering. */
struct WedgedShard
{
    int listenFd = -1;
    int connFd = -1;
    std::thread runner;

    explicit WedgedShard(const shard::Endpoint &ep)
    {
        std::string detail;
        listenFd = shard::listenEndpoint(ep, detail);
        EXPECT_GE(listenFd, 0) << detail;
        runner = std::thread([this] {
            std::string err;
            connFd = shard::acceptConnection(listenFd, err);
            if (connFd < 0)
                return;
            FrameType type;
            std::vector<std::uint8_t> payload;
            if (!shard::readFrame(connFd, type, payload, err) ||
                type != FrameType::Hello)
                return;
            shard::HelloAckFrame ack;
            ack.fingerprint = 0xfeedbeef;
            ack.numNodes = 300;
            ack.numClusters = 8;
            WireWriter w;
            shard::encodeHelloAck(w, ack);
            shard::writeFrame(connFd, FrameType::HelloAck, w.bytes());
            // Swallow everything else (Health probes included)
            // without ever answering.
            while (shard::readFrame(connFd, type, payload, err)) {
            }
        });
    }

    ~WedgedShard()
    {
        if (connFd >= 0)
            ::shutdown(connFd, SHUT_RDWR);
        shard::closeFd(listenFd);
        runner.join();
        shard::closeFd(connFd);
    }
};

TEST_F(ShardFleetTest, ProbeTimeoutOnAWedgedShardIsTypedAndDownsIt)
{
    TempPath sock0("wedge0.sock");
    shard::Endpoint ep;
    std::string detail;
    ASSERT_TRUE(
        shard::parseEndpoint("unix:" + sock0.path(), ep, detail))
        << detail;
    WedgedShard wedged(ep);

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path()};
    rcfg.reconnectMs = 0.0;
    ShardRouter router(rcfg);
    ASSERT_TRUE(router.connect(detail)) << detail;
    EXPECT_TRUE(router.shardHealthy(0));

    // The connection is nominally up, but the probe gets no answer:
    // a wedged shard is as gone as a dead one.  (The probe deadline
    // is seconds — this test deliberately waits it out.)
    std::string err;
    EXPECT_FALSE(router.probeShard(0, err));
    EXPECT_NE(err.find("health probe"), std::string::npos) << err;
    EXPECT_FALSE(router.shardHealthy(0));
    EXPECT_EQ(router.shardLastError(0), IoErrorKind::Timeout);
}

/** A fake shard that completes the Hello handshake as the twin of a
 *  real shard (its fingerprint, node and cluster counts) and answers
 *  health probes.  With @p commit_fp 0 it refuses every Prepare.
 *  Otherwise it accepts the Prepare, commits to @p commit_fp, but
 *  answers the Commit with a stale epoch, as if the ack were lost;
 *  its probes then report the new epoch and @p commit_fp. */
struct SwapFakeShard
{
    int listenFd = -1;
    int connFd = -1;
    std::thread runner;

    SwapFakeShard(const shard::Endpoint &ep, ShardServer &twin,
                  std::uint64_t commit_fp = 0)
    {
        shard::HelloAckFrame hello;
        hello.fingerprint = twin.fingerprint();
        hello.numNodes = twin.engine().sharedImage().numNodes();
        hello.numClusters = twin.engine().sharedImage().numClusters();
        std::string detail;
        listenFd = shard::listenEndpoint(ep, detail);
        EXPECT_GE(listenFd, 0) << detail;
        runner = std::thread([this, hello, commit_fp] {
            std::string err;
            connFd = shard::acceptConnection(listenFd, err);
            shard::HealthAckFrame serving;
            serving.fingerprint = hello.fingerprint;
            FrameType type;
            std::vector<std::uint8_t> payload;
            while (connFd >= 0 &&
                   shard::readFrame(connFd, type, payload, err)) {
                WireReader r(payload);
                WireWriter w;
                if (type == FrameType::Hello) {
                    shard::encodeHelloAck(w, hello);
                    shard::writeFrame(connFd, FrameType::HelloAck,
                                      w.bytes());
                } else if (type == FrameType::Health) {
                    shard::HealthFrame probe;
                    shard::decodeHealth(r, probe);
                    serving.nonce = probe.nonce;
                    shard::encodeHealthAck(w, serving);
                    shard::writeFrame(connFd, FrameType::HealthAck,
                                      w.bytes());
                } else if (type == FrameType::Prepare) {
                    shard::PrepareFrame prep;
                    shard::decodePrepare(r, prep);
                    shard::PrepareAckFrame ack;
                    ack.epoch = prep.epoch;
                    ack.ok = commit_fp != 0;
                    if (!ack.ok)
                        ack.detail = "cannot open the image";
                    shard::encodePrepareAck(w, ack);
                    shard::writeFrame(connFd, FrameType::PrepareAck,
                                      w.bytes());
                } else if (type == FrameType::Commit) {
                    shard::EpochFrame commit;
                    shard::decodeEpoch(r, commit);
                    shard::EpochFrame stale;
                    stale.epoch = serving.epoch;
                    serving.epoch = commit.epoch;
                    serving.fingerprint = commit_fp;
                    shard::encodeEpoch(w, stale);
                    shard::writeFrame(connFd, FrameType::CommitAck,
                                      w.bytes());
                }
            }
        });
    }

    ~SwapFakeShard()
    {
        if (connFd >= 0)
            ::shutdown(connFd, SHUT_RDWR);
        ::shutdown(listenFd, SHUT_RDWR);
        runner.join();
        shard::closeFd(listenFd);
        shard::closeFd(connFd);
    }
};

TEST_F(ShardFleetTest, RefusedPrepareLeavesEveryShardOnTheOldImage)
{
    // The next generation: as many nodes and clusters, other links,
    // so it validates and answers differently.
    SemanticNetwork next = makeTreeKb(300, 2);
    TempPath gen2("refused_gen2.kbimg");
    {
        serve::ServeConfig scfg = shardServeConfig();
        KbImage image(next, scfg.machine);
        saveKbImageFile(next, image, scfg.machine.partition,
                        gen2.path());
    }

    TempPath sock0("refuse0.sock"), sock1("refuse1.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());
    shard::Endpoint ep1;
    std::string detail;
    ASSERT_TRUE(
        shard::parseEndpoint("unix:" + sock1.path(), ep1, detail))
        << detail;
    SwapFakeShard s1(ep1, *s0.server);

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    rcfg.reconnectMs = 0.0;
    ShardRouter router(rcfg);
    ASSERT_TRUE(router.connect(detail)) << detail;
    const std::uint64_t fp_before = s0.server->fingerprint();

    // A query shard 0 owns whose answer tells the images apart.
    HashRing ring(2, rcfg.vnodes);
    Program prog;
    RunResult old_ref;
    {
        SnapMachine on_next(shardServeConfig().machine);
        on_next.loadKb(next);
        for (const Program &p : programsOwnedBy(ring, 0, net_, 8)) {
            on_next.image().resetMarkers();
            old_ref = reference(p);
            shard::ResponseFrame as_next;
            RunResult r = on_next.run(p);
            as_next.results = r.results;
            as_next.wallTicks = r.wallTicks;
            if (!sameAnswer(as_next, old_ref)) {
                prog = p;
                break;
            }
        }
    }
    ASSERT_FALSE(prog.empty()) << "no query tells the images apart";

    std::string err;
    EXPECT_FALSE(router.swapEpoch(gen2.path(), err));
    EXPECT_NE(err.find("refused"), std::string::npos) << err;
    EXPECT_EQ(s0.server->fingerprint(), fp_before)
        << "shard 0 flipped although shard 1 refused";
    EXPECT_EQ(s0.server->stagedEpoch(), 0u)
        << "shard 0 still holds the abandoned image";

    shard::RouterRequest req;
    req.prog = prog;
    shard::ResponseFrame resp = submitAndWait(router, std::move(req));
    ASSERT_EQ(resp.status, serve::RequestStatus::Ok);
    EXPECT_TRUE(sameAnswer(resp, old_ref))
        << "shard 0 answered from the refused image";
}

TEST_F(ShardFleetTest, ALostCommitAckStillMovesTheRouterToTheNewImage)
{
    SemanticNetwork next = makeTreeKb(300, 2);
    TempPath gen2("lostack_gen2.kbimg");
    {
        serve::ServeConfig scfg = shardServeConfig();
        KbImage image(next, scfg.machine);
        saveKbImageFile(next, image, scfg.machine.partition,
                        gen2.path());
    }
    KbImageFile staged;
    std::string detail;
    ASSERT_EQ(loadKbImageFile(gen2.path(), staged, detail),
              KbImgStatus::Ok)
        << detail;

    // The only shard commits but its ack comes back stale: the probe,
    // not the ack, says which image the fleet serves.
    TempPath sock0("lostack0.sock"), sock1("lostack1.sock");
    TestShard twin(image_file_->path(), "unix:" + sock0.path());
    shard::Endpoint ep1;
    ASSERT_TRUE(
        shard::parseEndpoint("unix:" + sock1.path(), ep1, detail))
        << detail;
    SwapFakeShard fake(ep1, *twin.server, staged.fingerprint);

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock1.path()};
    rcfg.reconnectMs = 0.0;
    ShardRouter router(rcfg);
    ASSERT_TRUE(router.connect(detail)) << detail;
    const std::uint64_t epoch_before = router.epoch();
    ASSERT_NE(router.fingerprint(), staged.fingerprint);

    std::string err;
    EXPECT_TRUE(router.swapEpoch(gen2.path(), err)) << err;
    EXPECT_EQ(router.fingerprint(), staged.fingerprint);
    EXPECT_EQ(router.epoch(), epoch_before + 1);
    EXPECT_TRUE(router.shardHealthy(0));
}

// --- session continuity across failover and drain ------------------------

TEST_F(ShardFleetTest, WarmBackupFailoverPreservesSessionState)
{
    TempPath sock0("wb0.sock"), sock1("wb1.sock");
    std::vector<std::unique_ptr<TestShard>> fleet;
    fleet.push_back(std::make_unique<TestShard>(
        image_file_->path(), "unix:" + sock0.path()));
    fleet.push_back(std::make_unique<TestShard>(
        image_file_->path(), "unix:" + sock1.path()));

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    rcfg.replication = 2;
    rcfg.reconnectMs = 0.0; // the killed primary must stay dead
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    const std::string sid = "wb-session";
    RelationType inc = net_.relationId("includes");
    Program turn1 = countQuery(5, inc);
    Program turn2; // collect-only: the answer IS the prior state
    turn2.append(Instruction::collectMarker(1));

    shard::RouterRequest req1;
    req1.sessionId = sid;
    req1.prog = turn1;
    shard::ResponseFrame r1 = submitAndWait(router, std::move(req1));
    ASSERT_EQ(r1.status, serve::RequestStatus::Ok);

    // Wait for the replicator to push the post-turn checkpoint onto
    // the backup owner.
    for (int i = 0; i < 250 && router.warmupCount() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(router.warmupCount(), 1u)
        << "the warm-backup replicator never ran";

    // Hard-kill the session's pinned primary.
    const std::uint32_t primary =
        HashRing(2, rcfg.vnodes).owner(fnv1a64(sid));
    fleet[primary].reset();

    shard::RouterRequest req2;
    req2.sessionId = sid;
    req2.prog = turn2;
    shard::ResponseFrame r2 = submitAndWait(router, std::move(req2));
    ASSERT_EQ(r2.status, serve::RequestStatus::Ok)
        << "the warm backup must take over the session";
    EXPECT_GE(router.failoverCount(), 1u);

    // The collect-only turn must see exactly the marker state the
    // first turn left behind — i.e. what a solo machine running both
    // turns back to back produces.
    serve::ServeConfig scfg = shardServeConfig();
    SnapMachine direct(scfg.machine);
    direct.loadKb(net_);
    direct.run(turn1);
    RunResult ref2 = direct.run(turn2);
    test::expectSameResults(r2.results, ref2.results);
    ASSERT_FALSE(ref2.results.empty());
    ASSERT_FALSE(ref2.results[0].nodes.empty())
        << "the reference state vanished — the test proves nothing";
}

TEST_F(ShardFleetTest, PlannedDrainMigratesSessionState)
{
    TempPath sock0("mig0.sock"), sock1("mig1.sock");
    TestShard s0(image_file_->path(), "unix:" + sock0.path());
    TestShard s1(image_file_->path(), "unix:" + sock1.path());

    shard::RouterConfig rcfg;
    rcfg.shards = {"unix:" + sock0.path(), "unix:" + sock1.path()};
    // replication = 1: the drain's ownerSkipping fallback must find
    // the migration target even with no designated backup.
    ShardRouter router(rcfg);
    std::string detail;
    ASSERT_TRUE(router.connect(detail)) << detail;

    const std::string sid = "drain-session";
    RelationType inc = net_.relationId("includes");
    Program turn1 = countQuery(9, inc);
    Program turn2;
    turn2.append(Instruction::collectMarker(1));

    shard::RouterRequest req1;
    req1.sessionId = sid;
    req1.prog = turn1;
    ASSERT_EQ(submitAndWait(router, std::move(req1)).status,
              serve::RequestStatus::Ok);

    const std::uint32_t primary =
        HashRing(2, rcfg.vnodes).owner(fnv1a64(sid));
    std::string err;
    ASSERT_TRUE(router.drainShard(primary, err)) << err;
    EXPECT_GE(router.migratedCount(), 1u)
        << "the pinned session must move off the draining shard";

    shard::RouterRequest req2;
    req2.sessionId = sid;
    req2.prog = turn2;
    shard::ResponseFrame r2 = submitAndWait(router, std::move(req2));
    ASSERT_EQ(r2.status, serve::RequestStatus::Ok)
        << "zero dropped sessions on a planned drain";

    serve::ServeConfig scfg = shardServeConfig();
    SnapMachine direct(scfg.machine);
    direct.loadKb(net_);
    direct.run(turn1);
    RunResult ref2 = direct.run(turn2);
    test::expectSameResults(r2.results, ref2.results);
    ASSERT_FALSE(ref2.results.empty());
    ASSERT_FALSE(ref2.results[0].nodes.empty());
}

TEST_F(ShardFleetTest, ShutdownBehindAFailedReplyStillStopsTheShard)
{
    // A draining router writes Shutdown and stops reading at once, so
    // the shard's reply to a frame queued just before it (a health
    // probe, a replicator pull) fails.  That failure must not end the
    // read loop before the Shutdown is read, or the shard never exits.
    TempPath sock("stopper.sock");
    KbImageFile kb;
    std::string detail;
    ASSERT_EQ(loadKbImageFile(image_file_->path(), kb, detail),
              KbImgStatus::Ok)
        << detail;
    shard::ShardServerConfig cfg;
    cfg.listen = "unix:" + sock.path();
    cfg.serve = shardServeConfig();
    ShardServer server(std::move(kb), cfg);
    ASSERT_TRUE(server.bind(detail)) << detail;
    std::promise<void> returned;
    std::future<void> run_done = returned.get_future();
    std::thread runner([&] {
        server.run();
        returned.set_value();
    });

    shard::Endpoint ep;
    ASSERT_TRUE(shard::parseEndpoint(cfg.listen, ep, detail)) << detail;
    const int fd = shard::connectEndpoint(ep, 2000.0, detail);
    ASSERT_GE(fd, 0) << detail;
    ::shutdown(fd, SHUT_RD);  // every reply the shard writes now fails
    shard::HealthFrame probe;
    probe.nonce = 7;
    WireWriter w;
    shard::encodeHealth(w, probe);
    EXPECT_TRUE(shard::writeFrame(fd, FrameType::Health, w.bytes()));
    EXPECT_TRUE(shard::writeFrame(fd, FrameType::Shutdown, {}));

    const bool stopped = run_done.wait_for(std::chrono::seconds(10)) ==
                         std::future_status::ready;
    EXPECT_TRUE(stopped) << "the Shutdown behind a failed reply was lost";
    if (!stopped)
        server.stop();
    runner.join();
    shard::closeFd(fd);
}

} // namespace
} // namespace snap
