#include "arch/kb_image_io.hh"

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/wire_format.hh"

namespace snap
{

namespace
{

constexpr char kMagic[8] = {'S', 'N', 'A', 'P', 'K', 'B', 'I', 'M'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4 + 4;
constexpr std::size_t kTableEntryBytes = 4 + 4 + 8 + 8 + 8;

/** Section ids (order in the file follows this numbering). */
enum SectionId : std::uint32_t
{
    SectMeta = 1,
    SectSymbols = 2,
    SectNodeNames = 3,
    SectNodeColors = 4,
    SectLinks = 5,
    SectPartition = 6,
    SectClusters = 7,
};
constexpr std::uint32_t kNumSections = 7;

/** Longest symbol or node name a loader accepts. */
constexpr std::uint32_t kMaxNameBytes = 1u << 20;
/** Bytes of one compiled relation slot in the clusters section. */
constexpr std::size_t kSlotBytes = 2 + 2 + 4 + 4 + 4;

std::uint32_t
strategyCode(PartitionStrategy s)
{
    switch (s) {
      case PartitionStrategy::Sequential: return 0;
      case PartitionStrategy::RoundRobin: return 1;
      case PartitionStrategy::Semantic: return 2;
    }
    return 2;
}

bool
strategyFromCode(std::uint32_t code, PartitionStrategy &out)
{
    switch (code) {
      case 0: out = PartitionStrategy::Sequential; return true;
      case 1: out = PartitionStrategy::RoundRobin; return true;
      case 2: out = PartitionStrategy::Semantic; return true;
    }
    return false;
}

} // namespace

const char *
kbImgStatusName(KbImgStatus s)
{
    switch (s) {
      case KbImgStatus::Ok: return "ok";
      case KbImgStatus::IoError: return "io-error";
      case KbImgStatus::BadMagic: return "bad-magic";
      case KbImgStatus::BadVersion: return "bad-version";
      case KbImgStatus::BadEndian: return "bad-endian";
      case KbImgStatus::Truncated: return "truncated";
      case KbImgStatus::ChecksumMismatch: return "checksum-mismatch";
      case KbImgStatus::BadSection: return "bad-section";
    }
    return "?";
}

bool
saveKbImage(const SemanticNetwork &net, const KbImage &image,
            PartitionStrategy strategy, std::ostream &os)
{
    const std::uint32_t num_nodes = net.numNodes();
    const std::uint32_t num_clusters = image.numClusters();
    snap_assert(image.numNodes() == num_nodes,
                "image over %u nodes but network has %u",
                image.numNodes(), num_nodes);

    WireWriter sections[kNumSections];

    // --- 1: meta --------------------------------------------------------
    {
        WireWriter &b = sections[SectMeta - 1];
        b.u32(num_nodes);
        b.u32(num_clusters);
        b.u64(net.numLinks());
        b.u32(strategyCode(strategy));
        b.u32(net.relations().size());
        b.u32(net.colorNames().size());
        b.u32(0);
    }

    // --- 2: symbol tables (relations, colors) ---------------------------
    {
        WireWriter &b = sections[SectSymbols - 1];
        b.u32(net.relations().size());
        for (std::uint32_t r = 0; r < net.relations().size(); ++r)
            b.str(net.relations().name(
                static_cast<RelationType>(r)));
        b.u32(net.colorNames().size());
        for (std::uint32_t c = 0; c < net.colorNames().size(); ++c)
            b.str(net.colorNames().name(static_cast<Color>(c)));
    }

    // --- 3: node names --------------------------------------------------
    {
        WireWriter &b = sections[SectNodeNames - 1];
        b.u32(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n)
            b.str(net.nodeName(n));
    }

    // --- 4: node colors -------------------------------------------------
    {
        WireWriter &b = sections[SectNodeColors - 1];
        b.reserve(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n)
            b.u8(net.color(n));
    }

    // --- 5: logical links (CSR) -----------------------------------------
    {
        WireWriter &b = sections[SectLinks - 1];
        b.reserve(8 * (num_nodes + 1) + 12 * net.numLinks());
        std::uint64_t off = 0;
        for (NodeId n = 0; n < num_nodes; ++n) {
            b.u64(off);
            off += net.fanout(n);
        }
        b.u64(off);
        for (NodeId n = 0; n < num_nodes; ++n) {
            for (const Link &l : net.links(n)) {
                b.u16(l.rel);
                b.u16(0);
                b.u32(l.dst);
                b.f32(l.weight);
            }
        }
    }

    // --- 6: partition placements ----------------------------------------
    {
        WireWriter &b = sections[SectPartition - 1];
        b.reserve(8 * num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n) {
            Placement p = image.place(n);
            b.u16(static_cast<std::uint16_t>(p.cluster));
            b.u16(0);
            b.u32(p.local);
        }
    }

    // --- 7: compiled per-cluster relation tables ------------------------
    {
        WireWriter &b = sections[SectClusters - 1];
        for (ClusterId c = 0; c < num_clusters; ++c) {
            const ClusterKb &ckb = image.cluster(c);
            const std::uint32_t locals = ckb.numLocalNodes();
            b.u32(locals);
            std::uint64_t total = 0;
            for (LocalNodeId l = 0; l < locals; ++l)
                total += ckb.slots(l).size();
            b.u64(total);
            for (LocalNodeId l = 0; l < locals; ++l)
                b.u32(static_cast<std::uint32_t>(
                    ckb.slots(l).size()));
            for (LocalNodeId l = 0; l < locals; ++l) {
                for (const RelSlot &s : ckb.slots(l)) {
                    b.u16(s.rel);
                    b.u16(static_cast<std::uint16_t>(s.destCluster));
                    b.u32(s.destLocal);
                    b.u32(s.destGlobal);
                    b.f32(s.weight);
                }
            }
        }
    }

    // --- header + section table + payloads ------------------------------
    WireWriter head;
    for (char ch : kMagic)
        head.u8(static_cast<std::uint8_t>(ch));
    head.u32(kbImgVersion);
    head.u32(kEndianTag);
    head.u32(kNumSections);
    head.u32(0);

    std::uint64_t offset =
        kHeaderBytes + kNumSections * kTableEntryBytes;
    for (std::uint32_t i = 0; i < kNumSections; ++i) {
        head.u32(i + 1);
        head.u32(0);
        head.u64(offset);
        head.u64(sections[i].size());
        head.u64(fnv1a64(sections[i].bytes().data(),
                         sections[i].size()));
        offset += sections[i].size();
    }

    os.write(reinterpret_cast<const char *>(head.bytes().data()),
             static_cast<std::streamsize>(head.size()));
    for (const WireWriter &b : sections) {
        os.write(reinterpret_cast<const char *>(b.bytes().data()),
                 static_cast<std::streamsize>(b.size()));
    }
    os.flush();
    return static_cast<bool>(os);
}

void
saveKbImageFile(const SemanticNetwork &net, const KbImage &image,
                PartitionStrategy strategy, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        snap_fatal("cannot open '%s' for writing", path.c_str());
    if (!saveKbImage(net, image, strategy, os))
        snap_fatal("write error on '%s'", path.c_str());
}

namespace
{

struct Section
{
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t checksum = 0;
    bool present = false;
};

} // namespace

KbImgStatus
loadKbImageFile(const std::string &path, KbImageFile &out,
                std::string &detail)
{
    // Bulk read: the whole file in one gulp; every parse below walks
    // in-memory bytes.  istream::read turns a read error (a
    // directory, EIO) into badbit; an istreambuf_iterator would let
    // it escape as an exception.
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        detail = "cannot open '" + path + "'";
        return KbImgStatus::IoError;
    }
    std::vector<std::uint8_t> bytes;
    char chunk[4096];
    do {
        is.read(chunk, sizeof(chunk));
        bytes.insert(bytes.end(), chunk, chunk + is.gcount());
    } while (is);
    if (is.bad()) {
        detail = "read error on '" + path + "'";
        return KbImgStatus::IoError;
    }

    if (bytes.size() < kHeaderBytes ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        detail = "'" + path + "' is not a .kbimg file";
        return KbImgStatus::BadMagic;
    }
    WireReader head(bytes.data() + sizeof(kMagic),
                    kHeaderBytes - sizeof(kMagic));
    const std::uint32_t version = head.u32();
    const std::uint32_t endian = head.u32();
    const std::uint32_t nsect = head.u32();
    if (version != kbImgVersion) {
        detail = formatString("format version %u (this build reads "
                              "version %u)", version, kbImgVersion);
        return KbImgStatus::BadVersion;
    }
    if (endian != kEndianTag) {
        detail = formatString("endian tag 0x%08x (expected "
                              "0x%08x): written on a foreign-endian "
                              "machine", endian, kEndianTag);
        return KbImgStatus::BadEndian;
    }
    if (nsect != kNumSections) {
        detail = formatString("%u sections (expected %u)", nsect,
                              kNumSections);
        return KbImgStatus::BadSection;
    }

    const std::size_t table_end =
        kHeaderBytes + static_cast<std::size_t>(nsect) *
                           kTableEntryBytes;
    if (bytes.size() < table_end) {
        detail = "file ends inside the section table";
        return KbImgStatus::Truncated;
    }

    // The whole table is checked before any section is hashed: seven
    // distinct known ids, so every section is present exactly once
    // and no table can make the loader hash one range twice.
    Section sect[kNumSections];
    std::uint64_t fingerprint = 0xcbf29ce484222325ull;
    WireReader table(bytes.data() + kHeaderBytes,
                     table_end - kHeaderBytes);
    for (std::uint32_t i = 0; i < nsect; ++i) {
        const std::uint32_t id = table.u32();
        table.u32(); // reserved
        const std::uint64_t off = table.u64();
        const std::uint64_t size = table.u64();
        const std::uint64_t sum = table.u64();
        if (id < 1 || id > kNumSections) {
            detail = formatString("unknown section %u", id);
            return KbImgStatus::BadSection;
        }
        if (sect[id - 1].present) {
            detail = formatString("duplicate section %u", id);
            return KbImgStatus::BadSection;
        }
        if (off > bytes.size() || size > bytes.size() - off) {
            detail = formatString("section %u [%llu, +%llu) runs "
                                  "past the %zu-byte file", id,
                                  static_cast<unsigned long long>(off),
                                  static_cast<unsigned long long>(size),
                                  bytes.size());
            return KbImgStatus::Truncated;
        }
        sect[id - 1] = Section{off, size, sum, true};
        fingerprint = fnv1a64(&sum, sizeof(sum), fingerprint);
    }
    for (std::uint32_t id = 1; id <= kNumSections; ++id) {
        const Section &s = sect[id - 1];
        if (fnv1a64(bytes.data() + s.offset, s.size) != s.checksum) {
            detail = formatString("section %u checksum mismatch", id);
            return KbImgStatus::ChecksumMismatch;
        }
    }

    auto readerOf = [&](std::uint32_t id) {
        return WireReader(bytes.data() + sect[id - 1].offset,
                          sect[id - 1].size);
    };
    auto bad = [&](const char *what) {
        detail = formatString("malformed %s section", what);
        return KbImgStatus::BadSection;
    };

    // --- meta -----------------------------------------------------------
    WireReader meta = readerOf(SectMeta);
    const std::uint32_t num_nodes = meta.u32();
    const std::uint32_t num_clusters = meta.u32();
    const std::uint64_t num_links = meta.u64();
    const std::uint32_t strat_code = meta.u32();
    const std::uint32_t num_rels = meta.u32();
    const std::uint32_t num_colors = meta.u32();
    meta.u32(); // reserved
    PartitionStrategy strategy = PartitionStrategy::Semantic;
    if (meta.failed() || !strategyFromCode(strat_code, strategy) ||
        num_clusters < 1 || num_clusters > capacity::maxClusters ||
        num_nodes > capacity::maxNodes)
        return bad("meta");

    KbImageFile result;
    result.strategy = strategy;
    result.fingerprint = fingerprint;

    // --- symbols --------------------------------------------------------
    {
        // Each name is at least its u32 length.
        WireReader c = readerOf(SectSymbols);
        std::uint32_t n = c.count(4);
        if (c.failed() || n != num_rels)
            return bad("symbol");
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::string name = c.str(kMaxNameBytes);
            if (c.failed())
                return bad("symbol");
            if (result.net.relations().intern(name) !=
                static_cast<RelationType>(i))
                return bad("symbol");
        }
        n = c.count(4);
        if (c.failed() || n != num_colors)
            return bad("symbol");
        for (std::uint32_t i = 0; i < n; ++i) {
            // Color 0 ("concept") is pre-interned by the network
            // constructor; re-interning the stored table in order
            // reproduces the saved ids exactly.
            const std::string name = c.str(kMaxNameBytes);
            if (c.failed())
                return bad("symbol");
            if (result.net.colorNames().intern(name) !=
                static_cast<Color>(i))
                return bad("symbol");
        }
    }

    // --- node names + colors --------------------------------------------
    {
        WireReader names = readerOf(SectNodeNames);
        WireReader colors = readerOf(SectNodeColors);
        const std::uint32_t n = names.count(4);
        if (names.failed() || n != num_nodes)
            return bad("node-name");
        for (NodeId i = 0; i < num_nodes; ++i) {
            const std::string name = names.str(kMaxNameBytes);
            const std::uint8_t color = colors.u8();
            if (names.failed() || colors.failed())
                return bad("node");
            if (color >= num_colors)
                return bad("node");
            if (result.net.addNode(name, color) != i)
                return bad("node");
        }
    }

    // --- links ----------------------------------------------------------
    {
        WireReader c = readerOf(SectLinks);
        std::vector<std::uint64_t> offsets(num_nodes + 1);
        for (auto &o : offsets)
            o = c.u64();
        if (c.failed() || offsets[0] != 0 ||
            offsets[num_nodes] != num_links)
            return bad("link");
        for (NodeId n = 0; n < num_nodes; ++n) {
            if (offsets[n] > offsets[n + 1])
                return bad("link");
            std::uint64_t fan = offsets[n + 1] - offsets[n];
            for (std::uint64_t k = 0; k < fan; ++k) {
                const std::uint16_t rel = c.u16();
                c.u16(); // pad
                const std::uint32_t dst = c.u32();
                const float w = c.f32();
                if (c.failed() || rel >= num_rels || dst >= num_nodes)
                    return bad("link");
                result.net.addLink(n, rel, dst, w);
            }
        }
    }

    // --- partition ------------------------------------------------------
    std::vector<Placement> placements(num_nodes);
    std::vector<std::uint32_t> cluster_sizes(num_clusters, 0);
    {
        WireReader c = readerOf(SectPartition);
        for (NodeId n = 0; n < num_nodes; ++n) {
            const std::uint16_t cluster = c.u16();
            c.u16(); // pad
            const std::uint32_t local = c.u32();
            // A cluster holds at most every node; the bound also
            // keeps `local + 1` from wrapping below.
            if (c.failed() || cluster >= num_clusters ||
                local >= num_nodes)
                return bad("partition");
            placements[n] = Placement{cluster, local};
            cluster_sizes[cluster] =
                std::max(cluster_sizes[cluster], local + 1);
        }
        // Density check up front: fromPlacements() asserts (fatal) on
        // holes/duplicates, so a corrupt table must be rejected here.
        std::vector<char> seen;
        std::uint64_t total = 0;
        for (std::uint32_t s : cluster_sizes)
            total += s;
        if (total != num_nodes)
            return bad("partition");
        for (ClusterId cl = 0; cl < num_clusters; ++cl) {
            seen.assign(cluster_sizes[cl], 0);
            for (NodeId n = 0; n < num_nodes; ++n) {
                if (placements[n].cluster == cl) {
                    if (seen[placements[n].local])
                        return bad("partition");
                    seen[placements[n].local] = 1;
                }
            }
        }
    }

    // --- compiled cluster tables ----------------------------------------
    std::vector<std::unique_ptr<ClusterKb>> clusters;
    clusters.reserve(num_clusters);
    {
        WireReader c = readerOf(SectClusters);
        for (ClusterId cl = 0; cl < num_clusters; ++cl) {
            // Each local carries a u32 slot count.
            const std::uint32_t locals = c.count(4);
            const std::uint64_t total = c.u64();
            if (c.failed() || locals != cluster_sizes[cl])
                return bad("cluster");
            std::vector<std::uint32_t> counts(locals);
            std::uint64_t sum = 0;
            for (auto &n : counts) {
                n = c.count(kSlotBytes);
                sum += n;
            }
            if (c.failed() || sum != total)
                return bad("cluster");
            std::vector<std::vector<RelSlot>> slots(locals);
            for (LocalNodeId l = 0; l < locals; ++l) {
                slots[l].reserve(counts[l]);
                for (std::uint32_t k = 0; k < counts[l]; ++k) {
                    const std::uint16_t rel = c.u16();
                    const std::uint16_t dcluster = c.u16();
                    const std::uint32_t dlocal = c.u32();
                    const std::uint32_t dglobal = c.u32();
                    const float w = c.f32();
                    if (c.failed() || rel >= num_rels ||
                        dcluster >= num_clusters ||
                        (dglobal != invalidNode &&
                         dglobal >= num_nodes))
                        return bad("cluster");
                    slots[l].push_back(RelSlot{
                        rel, dcluster, dlocal, dglobal, w});
                }
            }
            // Rebuild this cluster's identity tables from the
            // validated partition + network (bit-identical to what
            // the compiler would emit, without re-deriving slots).
            std::vector<NodeId> globals;
            std::vector<Color> colors;
            globals.reserve(locals);
            colors.reserve(locals);
            for (LocalNodeId l = 0; l < locals; ++l)
                globals.push_back(invalidNode);
            for (NodeId n = 0; n < num_nodes; ++n) {
                if (placements[n].cluster == cl)
                    globals[placements[n].local] = n;
            }
            for (LocalNodeId l = 0; l < locals; ++l)
                colors.push_back(result.net.color(globals[l]));
            clusters.push_back(std::make_unique<ClusterKb>(
                cl, std::move(globals), std::move(colors),
                std::move(slots)));
        }
        if (!c.done())
            return bad("cluster");
    }

    result.image = std::make_unique<KbImage>(
        Partition::fromPlacements(num_clusters,
                                  std::move(placements)),
        std::move(clusters));

    out = std::move(result);
    detail.clear();
    return KbImgStatus::Ok;
}

bool
isKbImageFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    char magic[8] = {};
    is.read(magic, sizeof(magic));
    return is.gcount() == sizeof(magic) &&
           std::memcmp(magic, kMagic, sizeof(magic)) == 0;
}

} // namespace snap
