/**
 * @file
 * Tests for the binary .kbimg snapshot format: deterministic
 * byte-exact round-trips, equal run results from a deserialized
 * image, and typed rejection of truncated, corrupted, foreign-endian,
 * and future-version files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/kb_image_io.hh"
#include "arch/machine.hh"
#include "common/wire_format.hh"
#include "isa/program.hh"
#include "tests/test_helpers.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

/** Self-cleaning temp file path. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Little-endian @p n-byte field of a .kbimg held in memory. */
std::uint64_t
getLe(const std::string &b, std::size_t at, int n)
{
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(b.at(at + i)))
             << (8 * i);
    return v;
}

void
putLe(std::string &b, std::size_t at, int n, std::uint64_t v)
{
    for (int i = 0; i < n; ++i)
        b.at(at + i) = static_cast<char>(v >> (8 * i));
}

/** Section table entry of section @p id (header 24 bytes, entries 32:
 *  id, reserved, offset, size, checksum). */
std::size_t
tableEntry(const std::string &b, std::uint32_t id)
{
    for (std::size_t e = 24; e < 24 + 7 * 32; e += 32)
        if (getLe(b, e, 4) == id)
            return e;
    ADD_FAILURE() << "no section " << id;
    return 24;
}

std::size_t
sectionOffset(const std::string &b, std::uint32_t id)
{
    return getLe(b, tableEntry(b, id) + 8, 8);
}

/** Recompute section @p id's checksum after its payload was edited,
 *  so only the loader's content checks can reject it. */
void
reseal(std::string &b, std::uint32_t id)
{
    const std::size_t e = tableEntry(b, id);
    const std::size_t off = getLe(b, e + 8, 8);
    const std::size_t size = getLe(b, e + 16, 8);
    putLe(b, e + 24, 8, fnv1a64(b.data() + off, size));
}

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

MachineConfig
testConfig()
{
    MachineConfig cfg;
    cfg.numClusters = 8;
    cfg.perfNetEnabled = false;
    return cfg;
}

TEST(KbImg, SaveIsDeterministicByteForByte)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    MachineConfig cfg = testConfig();
    KbImage image(net, cfg);

    std::ostringstream a, b;
    ASSERT_TRUE(saveKbImage(net, image, cfg.partition, a));
    ASSERT_TRUE(saveKbImage(net, image, cfg.partition, b));
    EXPECT_EQ(a.str(), b.str());
    EXPECT_GT(a.str().size(), 24u + 7u * 32u)
        << "header + section table + payloads";
}

TEST(KbImg, RoundTripIsByteExactAndRunsIdentically)
{
    SemanticNetwork net = makeRandomKb(500, 6.0, 3, /*seed=*/7);
    MachineConfig cfg = testConfig();
    KbImage image(net, cfg);

    TempFile f("roundtrip.kbimg");
    saveKbImageFile(net, image, cfg.partition, f.path());
    EXPECT_TRUE(isKbImageFile(f.path()));

    KbImageFile loaded;
    std::string detail;
    ASSERT_EQ(loadKbImageFile(f.path(), loaded, detail),
              KbImgStatus::Ok)
        << detail;
    EXPECT_EQ(loaded.strategy, cfg.partition);
    EXPECT_NE(loaded.fingerprint, 0u);

    // The logical network survives intact.
    ASSERT_EQ(loaded.net.numNodes(), net.numNodes());
    EXPECT_EQ(loaded.net.numLinks(), net.numLinks());
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        EXPECT_EQ(loaded.net.nodeName(n), net.nodeName(n));
        EXPECT_EQ(loaded.net.color(n), net.color(n));
    }

    // Re-serializing the loaded image reproduces the file bit for
    // bit: nothing was lost or reordered in flight.
    std::ostringstream again;
    ASSERT_TRUE(saveKbImage(loaded.net, *loaded.image,
                            loaded.strategy, again));
    EXPECT_EQ(again.str(), fileBytes(f.path()));

    // A machine stamped from the deserialized image answers exactly
    // like one stamped from the in-memory compile.
    SnapMachine direct(cfg);
    direct.loadKb(image);
    SnapMachine from_file(cfg);
    from_file.loadKb(*loaded.image);
    Program q = countQuery(0, net.relationId("r0"));
    RunResult a = direct.run(q);
    RunResult b = from_file.run(q);
    test::expectSameResults(a.results, b.results);
    EXPECT_EQ(a.wallTicks, b.wallTicks);
}

TEST(KbImg, TruncationIsTypedRejection)
{
    SemanticNetwork net = makeTreeKb(120, 3);
    MachineConfig cfg = testConfig();
    KbImage image(net, cfg);
    TempFile f("trunc.kbimg");
    saveKbImageFile(net, image, cfg.partition, f.path());
    const std::string whole = fileBytes(f.path());

    KbImageFile out;
    std::string detail;

    // Shorter than the header: not even recognizably a .kbimg.
    writeBytes(f.path(), whole.substr(0, 5));
    EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
              KbImgStatus::BadMagic);

    // Magic intact but the section table is cut off.
    writeBytes(f.path(), whole.substr(0, 40));
    EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
              KbImgStatus::Truncated);

    // Header intact, payload cut off mid-section.
    writeBytes(f.path(), whole.substr(0, whole.size() / 2));
    EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
              KbImgStatus::Truncated);

    // One byte short: the final section's size check must notice.
    writeBytes(f.path(), whole.substr(0, whole.size() - 1));
    EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
              KbImgStatus::Truncated);

    EXPECT_EQ(loadKbImageFile(
                  std::string(::testing::TempDir()) + "missing.kbimg",
                  out, detail),
              KbImgStatus::IoError);
    // A directory opens but cannot be read.
    EXPECT_EQ(loadKbImageFile(::testing::TempDir(), out, detail),
              KbImgStatus::IoError)
        << detail;
}

TEST(KbImg, CorruptionIsTypedRejection)
{
    SemanticNetwork net = makeTreeKb(120, 3);
    MachineConfig cfg = testConfig();
    KbImage image(net, cfg);
    TempFile f("corrupt.kbimg");
    saveKbImageFile(net, image, cfg.partition, f.path());
    const std::string whole = fileBytes(f.path());
    const std::size_t table_end = 24 + 7 * 32;

    KbImageFile out;
    std::string detail;

    // Flip one payload byte: the section checksum must catch it.
    {
        std::string bad = whole;
        bad[table_end + bad.size() / 3] ^= 0x40;
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::ChecksumMismatch)
            << detail;
    }

    // Bad magic.
    {
        std::string bad = whole;
        bad[0] ^= 0xff;
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::BadMagic);
        EXPECT_FALSE(isKbImageFile(f.path()));
    }

    // Future version field (u32 at offset 8).
    {
        std::string bad = whole;
        bad[8] = 0x7f;
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::BadVersion);
    }

    // Foreign endian tag (u32 at offset 12).
    {
        std::string bad = whole;
        std::swap(bad[12], bad[15]);
        std::swap(bad[13], bad[14]);
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::BadEndian);
    }

    // A slot count of 0xF0000000 on cluster 0's first local, with
    // the cluster's slot total adjusted to match and the checksum
    // recomputed: the count must be refused before anything is
    // reserved for it.  (Clusters section: u32 locals, u64 total,
    // then one u32 slot count per local.)
    {
        std::string bad = whole;
        const std::size_t off = sectionOffset(bad, 7);
        const std::uint64_t total = getLe(bad, off + 4, 8);
        const std::uint64_t first = getLe(bad, off + 12, 4);
        putLe(bad, off + 12, 4, 0xF0000000u);
        putLe(bad, off + 4, 8, total - first + 0xF0000000u);
        reseal(bad, 7);
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::BadSection)
            << detail;
    }

    // A placement with local 0xFFFFFFFF (so local + 1 wraps to 0) on
    // a node that held local 0 of a cluster of at least two nodes.
    // (Partition section: per node u16 cluster, u16 pad, u32 local.)
    {
        std::string bad = whole;
        const std::size_t off = sectionOffset(bad, 6);
        const std::uint32_t nodes = net.numNodes();
        std::vector<std::uint32_t> sizes(cfg.numClusters, 0);
        for (NodeId n = 0; n < nodes; ++n)
            ++sizes.at(getLe(bad, off + 8 * n, 2));
        std::size_t victim = nodes;
        for (NodeId n = 0; n < nodes && victim == nodes; ++n) {
            if (getLe(bad, off + 8 * n + 4, 4) == 0 &&
                sizes.at(getLe(bad, off + 8 * n, 2)) >= 2)
                victim = n;
        }
        ASSERT_LT(victim, nodes);
        putLe(bad, off + 8 * victim + 4, 4, 0xFFFFFFFFu);
        reseal(bad, 6);
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::BadSection)
            << detail;
    }

    // A table of exactly seven entries whose first id is unknown.
    {
        std::string bad = whole;
        putLe(bad, 24, 4, 99);
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::BadSection)
            << detail;
    }

    // Four added table entries under an unknown id, each covering the
    // whole payload with a valid checksum (the payload moves 4 * 32
    // bytes down to make room): refused before anything is hashed,
    // where a loader that skipped unknown ids would hash the whole
    // payload once per added entry.
    {
        constexpr std::uint32_t kExtra = 4;
        const std::size_t shift = kExtra * 32;
        const std::string payload = whole.substr(table_end);
        std::string bad = whole.substr(0, table_end);
        putLe(bad, 16, 4, 7 + kExtra);
        for (std::size_t e = 24; e < table_end; e += 32)
            putLe(bad, e + 8, 8, getLe(bad, e + 8, 8) + shift);
        for (std::uint32_t k = 0; k < kExtra; ++k) {
            std::string entry(32, '\0');
            putLe(entry, 0, 4, 99);
            putLe(entry, 8, 8, table_end + shift);
            putLe(entry, 16, 8, payload.size());
            putLe(entry, 24, 8, fnv1a64(payload.data(), payload.size()));
            bad += entry;
        }
        bad += payload;
        writeBytes(f.path(), bad);
        EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
                  KbImgStatus::BadSection)
            << detail;
    }

    // The pristine file still loads after all that.
    writeBytes(f.path(), whole);
    EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
              KbImgStatus::Ok)
        << detail;
}

TEST(KbImg, TextKbIsNotAnImage)
{
    TempFile f("plain.snapkb");
    writeBytes(f.path(), "snapkb 1\nnode a concept\n");
    EXPECT_FALSE(isKbImageFile(f.path()));
    KbImageFile out;
    std::string detail;
    EXPECT_EQ(loadKbImageFile(f.path(), out, detail),
              KbImgStatus::BadMagic);
}

TEST(KbImg, FingerprintTracksContent)
{
    MachineConfig cfg = testConfig();
    SemanticNetwork a = makeTreeKb(120, 3);
    SemanticNetwork b = makeTreeKb(121, 3);
    KbImage ia(a, cfg), ib(b, cfg);
    TempFile fa("fp_a.kbimg"), fb("fp_b.kbimg");
    saveKbImageFile(a, ia, cfg.partition, fa.path());
    saveKbImageFile(b, ib, cfg.partition, fb.path());

    KbImageFile la, lb;
    std::string detail;
    ASSERT_EQ(loadKbImageFile(fa.path(), la, detail), KbImgStatus::Ok);
    ASSERT_EQ(loadKbImageFile(fb.path(), lb, detail), KbImgStatus::Ok);
    EXPECT_NE(la.fingerprint, lb.fingerprint)
        << "different knowledge must not share a fingerprint";

    // Same content -> same fingerprint, across separate compiles.
    SemanticNetwork a2 = makeTreeKb(120, 3);
    KbImage ia2(a2, cfg);
    TempFile fa2("fp_a2.kbimg");
    saveKbImageFile(a2, ia2, cfg.partition, fa2.path());
    KbImageFile la2;
    ASSERT_EQ(loadKbImageFile(fa2.path(), la2, detail),
              KbImgStatus::Ok);
    EXPECT_EQ(la.fingerprint, la2.fingerprint);
}

} // namespace
} // namespace snap
