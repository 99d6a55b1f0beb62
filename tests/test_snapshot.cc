/**
 * @file
 * Tests for marker-state snapshots: the codec's round trips,
 * cross-partition restore, resuming execution from a checkpoint, and
 * typed refusal of malformed checkpoint files and session frames.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "arch/machine.hh"
#include "runtime/snapshot.hh"
#include "shard/protocol.hh"
#include "tests/test_helpers.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

/** Unique temp path per test (single process, no races). */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "snap_snapshot_" + name;
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream os(path, std::ios::binary);
    os.write(reinterpret_cast<const char *>(b.data()),
             static_cast<std::streamsize>(b.size()));
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
}

/** Encode @p store and decode it into a store of the same size. */
MarkerStore
codecRoundTrip(const MarkerStore &store)
{
    WireWriter w;
    encodeMarkers(w, store);
    WireReader r(w.bytes());
    MarkerStore back(store.numNodes());
    EXPECT_TRUE(decodeMarkers(r, back));
    EXPECT_TRUE(r.done());
    return back;
}

/** Every set bit of every plane lies below the store's node count. */
bool
setNodesInRange(const MarkerStore &store)
{
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        const BitVector &bits = store.bits(static_cast<MarkerId>(m));
        for (std::uint32_t n = bits.findNext(0); n < bits.size();
             n = bits.findNext(n + 1)) {
            if (n >= store.numNodes())
                return false;
        }
    }
    return true;
}

/** A checkpoint file's bytes: the magic, @p nodes, then @p codec. */
std::vector<std::uint8_t>
checkpointBytes(std::uint32_t nodes,
                const std::vector<std::uint8_t> &codec)
{
    WireWriter w;
    for (char ch : std::string("SNAPMARK"))
        w.u8(static_cast<std::uint8_t>(ch));
    w.u32(nodes);
    std::vector<std::uint8_t> b = w.take();
    b.insert(b.end(), codec.begin(), codec.end());
    return b;
}

TEST(Snapshot, FlatRoundTrip)
{
    MarkerStore store(50);
    store.set(0, 3, 1.25f, 7);
    store.set(0, 49, -2.5f, 0);
    store.set(63, 10, 0.0078125f, 10);
    store.setBit(64, 5);
    store.setBit(127, 49);

    MarkerStore back = codecRoundTrip(store);

    ASSERT_EQ(back.numNodes(), 50u);
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        for (NodeId n = 0; n < 50; ++n) {
            ASSERT_EQ(back.test(mid, n), store.test(mid, n))
                << "m" << m << " n" << n;
            if (store.test(mid, n) && isComplexMarker(mid)) {
                EXPECT_EQ(back.value(mid, n), store.value(mid, n));
                EXPECT_EQ(back.origin(mid, n), store.origin(mid, n));
            }
        }
    }
}

TEST(Snapshot, EmptyStoreRoundTrips)
{
    MarkerStore store(10);
    WireWriter w;
    encodeMarkers(w, store);
    EXPECT_EQ(w.size(), 1u) << "an empty store is one plane count";
    MarkerStore back = codecRoundTrip(store);
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m)
        EXPECT_EQ(back.count(static_cast<MarkerId>(m)), 0u);
}

TEST(Snapshot, MachineCheckpointAcrossPartitionings)
{
    // Run half a computation on a semantic-partitioned machine,
    // checkpoint, restore onto a round-robin machine, finish there:
    // the result must equal an uninterrupted run.
    SemanticNetwork net_a = makeTreeKb(300, 4);
    SemanticNetwork net_b = makeTreeKb(300, 4);
    SemanticNetwork net_c = makeTreeKb(300, 4);
    RelationType inc = net_a.relationId("includes");

    Program first;
    RuleId rid1 = first.addRule(PropRule::chain(inc));
    first.append(Instruction::searchNode(0, 0, 0.0f));
    first.append(Instruction::propagate(0, 1, rid1,
                                        MarkerFunc::Count));
    first.append(Instruction::barrier());

    Program second;
    RuleId rid2 = second.addRule(PropRule::chain(inc));
    (void)rid2;
    second.append(Instruction::funcMarker(
        1, ScalarFunc{ScalarFunc::Op::ThresholdGe, 3.0f}));
    second.append(Instruction::collectMarker(1));

    // Uninterrupted reference run.
    MachineConfig cfg_a;
    cfg_a.numClusters = 8;
    cfg_a.partition = PartitionStrategy::Semantic;
    SnapMachine straight(cfg_a);
    straight.loadKb(net_a);
    straight.run(first);
    RunResult expect = straight.run(second);

    // Checkpointed run across different machines.
    SnapMachine m1(cfg_a);
    m1.loadKb(net_b);
    m1.run(first);
    MarkerStore flat = codecRoundTrip(m1.image().flatten());

    MachineConfig cfg_b;
    cfg_b.numClusters = 5;
    cfg_b.partition = PartitionStrategy::RoundRobin;
    SnapMachine m2(cfg_b);
    m2.loadKb(net_c);
    m2.image().restoreMarkers(flat);
    RunResult got = m2.run(second);

    test::expectSameResults(got.results, expect.results);
}

TEST(Snapshot, SixteenSemToEightRrRestore)
{
    // The serving engine's session checkpoints must be portable
    // across deployments: state saved on a 16-cluster semantic
    // partitioning restores onto an 8-cluster round-robin machine
    // and yields identical query results.
    SemanticNetwork net_a = makeTreeKb(500, 5);
    SemanticNetwork net_b = makeTreeKb(500, 5);
    RelationType inc = net_a.relationId("includes");
    RelationType isa = net_a.relationId("is-a");

    Program mark;
    RuleId rid = mark.addRule(PropRule::chain(inc));
    mark.append(Instruction::searchNode(0, 0, 0.0f));
    mark.append(Instruction::propagate(0, 1, rid,
                                       MarkerFunc::Count));
    mark.append(Instruction::barrier());

    Program query;
    RuleId up = query.addRule(PropRule::chain(isa));
    query.append(Instruction::funcMarker(
        1, ScalarFunc{ScalarFunc::Op::ThresholdGe, 2.0f}));
    query.append(Instruction::propagate(1, 2, up,
                                        MarkerFunc::AddWeight));
    query.append(Instruction::barrier());
    query.append(Instruction::collectMarker(1));
    query.append(Instruction::collectMarker(2));

    MachineConfig cfg_sem;
    cfg_sem.numClusters = 16;
    cfg_sem.partition = PartitionStrategy::Semantic;
    MachineConfig cfg_rr;
    cfg_rr.numClusters = 8;
    cfg_rr.partition = PartitionStrategy::RoundRobin;

    // Save on the 16-cluster sem machine...
    SnapMachine saver(cfg_sem);
    saver.loadKb(net_a);
    saver.run(mark);
    const std::string path = tempPath("sem16.snapmarkers");
    std::string err;
    ASSERT_TRUE(saveMarkersFile(saver.image().flatten(), path, err))
        << err;

    // ...restore on the 8-cluster rr machine and query there.
    SnapMachine restorer(cfg_rr);
    restorer.loadKb(net_b);
    MarkerStore flat(0);
    ASSERT_TRUE(loadMarkersFile(path, flat, err)) << err;
    std::remove(path.c_str());
    ASSERT_EQ(flat.numNodes(), restorer.image().numNodes());
    restorer.image().restoreMarkers(flat);
    RunResult got = restorer.run(query);

    // Reference: the query run where the state was produced.
    RunResult expect = saver.run(query);
    test::expectSameResults(got.results, expect.results);
    ASSERT_EQ(got.results.size(), 2u);
    EXPECT_FALSE(got.results[0].nodes.empty());
}

TEST(Snapshot, MalformedCheckpointsAreRefusedWithAMessage)
{
    // One complex plane (marker 0) holding node 3 of 10.
    WireWriter plane;
    plane.u8(1);
    plane.u8(0);
    plane.u32(1);
    plane.u32(3);
    plane.f32(1.0f);
    plane.u32(0);
    const std::vector<std::uint8_t> codec = plane.bytes();

    const std::string path = tempPath("malformed.snapmarkers");
    MarkerStore out(7);
    out.setBit(100, 6);
    std::string err;
    const auto refused = [&](const std::vector<std::uint8_t> &bytes,
                             const char *why) {
        writeBytes(path, bytes);
        err.clear();
        EXPECT_FALSE(loadMarkersFile(path, out, err)) << why;
        EXPECT_NE(err.find(why), std::string::npos)
            << "'" << err << "' lacks '" << why << "'";
    };

    writeBytes(path, checkpointBytes(10, codec));
    ASSERT_TRUE(loadMarkersFile(path, out, err)) << err;
    EXPECT_EQ(out.numNodes(), 10u);
    EXPECT_TRUE(out.test(0, 3));
    out = MarkerStore(7);
    out.setBit(100, 6);

    // The text format of earlier builds is foreign, and so is an
    // empty file.
    const std::string text = "snapmarkers 1 10\nm 0 3 1.0 0\n";
    refused(std::vector<std::uint8_t>(text.begin(), text.end()),
            "not a marker checkpoint");
    refused({}, "not a marker checkpoint");

    // A node count past capacity::maxNodes is refused before a store
    // is sized from it.
    for (std::uint32_t nodes : {capacity::maxNodes + 1, 0x7FFFFFFFu,
                                0xF0000000u, 0xFFFFFFFFu})
        refused(checkpointBytes(nodes, codec), "claims");

    // A node outside the count, the node count cut short, a cut
    // codec, and trailing bytes.
    refused(checkpointBytes(3, codec), "malformed");
    {
        std::vector<std::uint8_t> b = checkpointBytes(10, codec);
        b.resize(10);
        refused(b, "truncated");
    }
    {
        std::vector<std::uint8_t> b = checkpointBytes(10, codec);
        b.pop_back();
        refused(b, "truncated");
    }
    {
        std::vector<std::uint8_t> b = checkpointBytes(10, codec);
        b.push_back(0);
        refused(b, "past its markers");
    }

    // No refusal touched the caller's store.
    EXPECT_EQ(out.numNodes(), 7u);
    EXPECT_TRUE(out.test(100, 6));
    std::remove(path.c_str());
}

TEST(Snapshot, EveryCutAndByteFlipIsRefusedOrInRange)
{
    // Both entry points of the one codec: a SessionState frame and a
    // checkpoint file.  A cut or a flipped bit must be refused (the
    // file with a message) or decode to a store whose set nodes all
    // lie below its node count.
    constexpr std::uint32_t kNodes = 64;
    MarkerStore marks(kNodes);
    marks.set(2, 0, 2.5f, 3);
    marks.set(2, 40, -1.0f, invalidNode);
    marks.set(63, 63, 0.5f, 1);
    marks.setBit(64, 17);
    marks.setBit(127, 3);
    marks.setBit(127, 63);

    shard::SessionStateFrame st;
    st.sessionId = "s1";
    st.found = true;
    st.numNodes = kNodes;
    st.markers = marks;
    WireWriter fw;
    shard::encodeSessionState(fw, st);
    const std::vector<std::uint8_t> frame = fw.bytes();
    const auto frameOk = [&](const std::vector<std::uint8_t> &b,
                             std::size_t n) {
        WireReader r(b.data(), n);
        shard::SessionStateFrame out;
        if (!shard::decodeSessionState(r, kNodes, out))
            return false;
        EXPECT_EQ(out.markers.numNodes(),
                  out.found ? kNodes : 0u);
        EXPECT_TRUE(setNodesInRange(out.markers));
        return true;
    };

    const std::string path = tempPath("fuzz.snapmarkers");
    std::string err;
    ASSERT_TRUE(saveMarkersFile(marks, path, err)) << err;
    // Past its 12-byte header the file holds the frame's codec bytes.
    const std::vector<std::uint8_t> file = readBytes(path);
    ASSERT_GT(file.size(), 12u);
    const std::size_t codec_len = file.size() - 12;
    ASSERT_LT(codec_len, frame.size());
    EXPECT_TRUE(std::equal(file.begin() + 12, file.end(),
                           frame.end() - codec_len));
    const auto fileOk = [&](const std::vector<std::uint8_t> &b) {
        writeBytes(path, b);
        MarkerStore out(0);
        err.clear();
        if (!loadMarkersFile(path, out, err)) {
            EXPECT_FALSE(err.empty());
            return false;
        }
        EXPECT_LE(out.numNodes(), capacity::maxNodes);
        EXPECT_TRUE(setNodesInRange(out));
        return true;
    };

    ASSERT_TRUE(frameOk(frame, frame.size()));
    ASSERT_TRUE(fileOk(file));
    for (std::size_t cut = 0; cut < frame.size(); ++cut)
        EXPECT_FALSE(frameOk(frame, cut)) << "frame cut at " << cut;
    for (std::size_t cut = 0; cut < file.size(); ++cut) {
        EXPECT_FALSE(fileOk(std::vector<std::uint8_t>(
            file.begin(), file.begin() + cut)))
            << "file cut at " << cut;
    }
    // Each single-bit flip of every byte, and the byte inverted.  A
    // flipped value or origin decodes, so both outcomes must occur.
    constexpr std::uint8_t kFlips[] = {1, 2, 4, 8, 16, 32, 64, 128, 255};
    std::size_t decoded = 0, refused = 0;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        for (std::uint8_t flip : kFlips) {
            std::vector<std::uint8_t> b = frame;
            b[i] ^= flip;
            ++(frameOk(b, b.size()) ? decoded : refused);
        }
    }
    for (std::size_t i = 0; i < file.size(); ++i) {
        for (std::uint8_t flip : kFlips) {
            std::vector<std::uint8_t> b = file;
            b[i] ^= flip;
            ++(fileOk(b) ? decoded : refused);
        }
    }
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(refused, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace snap
