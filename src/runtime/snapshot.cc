#include "runtime/snapshot.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace snap
{

void
saveMarkers(const MarkerStore &store, std::ostream &os)
{
    os << "snapmarkers 1 " << store.numNodes() << "\n";
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        const BitVector &bits = store.bits(mid);
        for (std::uint32_t n = bits.findNext(0); n < bits.size();
             n = bits.findNext(n + 1)) {
            os << "m " << m << " " << n;
            if (isComplexMarker(mid)) {
                os << " "
                   << formatString("%.9g", static_cast<double>(
                                               store.value(mid, n)))
                   << " " << store.origin(mid, n);
            }
            os << "\n";
        }
    }
}

MarkerStore
loadMarkers(std::istream &is)
{
    std::string line;
    int lineno = 0;

    if (!std::getline(is, line))
        snap_fatal("empty marker snapshot");
    ++lineno;
    std::vector<std::string> head = tokenize(trim(line));
    long long nodes;
    // No network holds more than capacity::maxNodes nodes, and the
    // store below is sized from this count.
    if (head.size() != 3 || head[0] != "snapmarkers" ||
        head[1] != "1" || !parseInt(head[2], nodes) || nodes < 0 ||
        nodes > static_cast<long long>(capacity::maxNodes)) {
        snap_fatal("bad snapshot header '%s'", line.c_str());
    }

    MarkerStore store(static_cast<std::uint32_t>(nodes));
    while (std::getline(is, line)) {
        ++lineno;
        std::string body = trim(line);
        if (body.empty() || body[0] == '#')
            continue;
        std::vector<std::string> tok = tokenize(body);
        long long m, n;
        if (tok.size() < 3 || tok[0] != "m" ||
            !parseInt(tok[1], m) || !parseInt(tok[2], n) || m < 0 ||
            m >= static_cast<long long>(capacity::numMarkers) ||
            n < 0 || n >= nodes) {
            snap_fatal("snapshot line %d: bad record '%s'", lineno,
                       body.c_str());
        }
        auto mid = static_cast<MarkerId>(m);
        if (isComplexMarker(mid)) {
            double value;
            long long origin;
            if (tok.size() != 5 || !parseDouble(tok[3], value) ||
                !parseInt(tok[4], origin)) {
                snap_fatal("snapshot line %d: complex marker needs "
                           "value and origin", lineno);
            }
            store.set(mid, static_cast<NodeId>(n),
                      static_cast<float>(value),
                      static_cast<NodeId>(
                          static_cast<std::uint64_t>(origin)));
        } else {
            if (tok.size() != 3)
                snap_fatal("snapshot line %d: binary marker takes "
                           "no value", lineno);
            store.setBit(mid, static_cast<NodeId>(n));
        }
    }
    return store;
}

void
saveMarkersFile(const MarkerStore &store, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        snap_fatal("cannot open '%s' for writing", path.c_str());
    saveMarkers(store, os);
    if (!os)
        snap_fatal("write error on '%s'", path.c_str());
}

MarkerStore
loadMarkersFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        snap_fatal("cannot open '%s'", path.c_str());
    return loadMarkers(is);
}

} // namespace snap
