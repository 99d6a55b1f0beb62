#include "runtime/snapshot.hh"

#include <array>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/strutil.hh"

namespace snap
{

namespace
{

constexpr char kMagic[8] = {'S', 'N', 'A', 'P', 'M', 'A', 'R', 'K'};

} // namespace

void
encodeMarkers(WireWriter &w, const MarkerStore &m)
{
    std::array<std::uint32_t, capacity::numMarkers> counts{};
    std::uint8_t num_planes = 0;
    for (std::uint32_t mk = 0; mk < capacity::numMarkers; ++mk) {
        counts[mk] = m.count(static_cast<MarkerId>(mk));
        num_planes += counts[mk] > 0 ? 1 : 0;
    }
    w.u8(num_planes);
    for (std::uint32_t mk = 0; mk < capacity::numMarkers; ++mk) {
        if (counts[mk] == 0)
            continue;
        const MarkerId marker = static_cast<MarkerId>(mk);
        w.u8(static_cast<std::uint8_t>(mk));
        w.u32(counts[mk]);
        m.bits(marker).forEachSet([&](std::uint32_t n) {
            w.u32(n);
            if (isComplexMarker(marker)) {
                w.f32(m.value(marker, n));
                w.u32(m.origin(marker, n));
            }
        });
    }
}

bool
decodeMarkers(WireReader &r, MarkerStore &out)
{
    const std::uint32_t num_planes = r.u8();
    if (r.failed() || num_planes > capacity::numMarkers)
        return false;
    int prev_plane = -1;
    for (std::uint32_t p = 0; p < num_planes; ++p) {
        const std::uint8_t mk = r.u8();
        if (r.failed() || mk >= capacity::numMarkers ||
            static_cast<int>(mk) <= prev_plane)
            return false;
        prev_plane = mk;
        const MarkerId marker = static_cast<MarkerId>(mk);
        const std::uint32_t count =
            r.count(isComplexMarker(marker) ? 12 : 4);
        if (r.failed() || count > out.numNodes())
            return false;
        std::uint32_t prev_node = 0;
        for (std::uint32_t k = 0; k < count; ++k) {
            const std::uint32_t node = r.u32();
            if (r.failed() || node >= out.numNodes() ||
                (k > 0 && node <= prev_node))
                return false;
            prev_node = node;
            if (isComplexMarker(marker)) {
                const float value = r.f32();
                const std::uint32_t origin = r.u32();
                if (r.failed())
                    return false;
                out.set(marker, node, value, origin);
            } else {
                out.setBit(marker, node);
            }
        }
    }
    return !r.failed();
}

bool
saveMarkersFile(const MarkerStore &store, const std::string &path,
                std::string &err)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        err = "cannot open '" + path + "' for writing";
        return false;
    }
    WireWriter w;
    for (char ch : kMagic)
        w.u8(static_cast<std::uint8_t>(ch));
    w.u32(store.numNodes());
    encodeMarkers(w, store);
    os.write(reinterpret_cast<const char *>(w.bytes().data()),
             static_cast<std::streamsize>(w.size()));
    os.close();
    if (!os) {
        err = "write error on '" + path + "'";
        return false;
    }
    return true;
}

bool
loadMarkersFile(const std::string &path, MarkerStore &out,
                std::string &err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        err = "cannot open '" + path + "'";
        return false;
    }
    // istream::read turns a read error (a directory, EIO) into
    // badbit; an istreambuf_iterator would let it escape as an
    // exception.
    std::vector<std::uint8_t> bytes;
    char chunk[4096];
    do {
        is.read(chunk, sizeof(chunk));
        bytes.insert(bytes.end(), chunk, chunk + is.gcount());
    } while (is);
    if (is.bad()) {
        err = "read error on '" + path + "'";
        return false;
    }
    if (bytes.size() < sizeof(kMagic) ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        err = "'" + path + "' is not a marker checkpoint";
        return false;
    }
    WireReader r(bytes.data() + sizeof(kMagic),
                 bytes.size() - sizeof(kMagic));
    const std::uint32_t nodes = r.u32();
    // No network holds more than capacity::maxNodes nodes, and the
    // store below is sized from this count.
    if (nodes > capacity::maxNodes) {
        err = formatString("'%s' claims %u nodes (at most %u)",
                           path.c_str(), nodes, capacity::maxNodes);
        return false;
    }
    MarkerStore store(nodes);
    if (!decodeMarkers(r, store)) {
        err = "'" + path + "' " +
              (r.failed() ? "is truncated" : "holds malformed markers");
        return false;
    }
    if (!r.done()) {
        err = formatString("'%s' has %zu bytes past its markers",
                           path.c_str(), r.remaining());
        return false;
    }
    out = std::move(store);
    return true;
}

} // namespace snap
