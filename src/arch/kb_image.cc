#include "arch/kb_image.hh"

#include <algorithm>

namespace snap
{

ClusterKb::ClusterKb(const SemanticNetwork &net, const Partition &part,
                     ClusterId cluster)
    : cluster_(cluster),
      globalIds_(part.clusterNodes(cluster)),
      markers_(static_cast<std::uint32_t>(
          part.clusterNodes(cluster).size()))
{
    colors_.reserve(globalIds_.size());
    slots_.reserve(globalIds_.size());
    for (NodeId g : globalIds_) {
        colors_.push_back(net.color(g));
        std::vector<RelSlot> row;
        row.reserve(net.fanout(g));
        for (const Link &l : net.links(g)) {
            Placement p = part.place(l.dst);
            row.push_back(
                RelSlot{l.rel, p.cluster, p.local, l.dst, l.weight});
        }
        slots_.push_back(std::move(row));
    }
}

ClusterKb::ClusterKb(ClusterId cluster, std::vector<NodeId> global_ids,
                     std::vector<Color> colors,
                     std::vector<std::vector<RelSlot>> slots)
    : cluster_(cluster),
      globalIds_(std::move(global_ids)),
      colors_(std::move(colors)),
      slots_(std::move(slots)),
      markers_(static_cast<std::uint32_t>(globalIds_.size()))
{
    snap_assert(colors_.size() == globalIds_.size() &&
                slots_.size() == globalIds_.size(),
                "ClusterKb table sizes disagree: %zu/%zu/%zu",
                globalIds_.size(), colors_.size(), slots_.size());
}

void
ClusterKb::addSlot(LocalNodeId local, const RelSlot &slot)
{
    snap_assert(local < slots_.size(), "addSlot local %u", local);
    slots_[local].push_back(slot);
}

bool
ClusterKb::removeSlot(LocalNodeId local, RelationType rel,
                      NodeId dest_global)
{
    snap_assert(local < slots_.size(), "removeSlot local %u", local);
    auto &row = slots_[local];
    auto it = std::find_if(row.begin(), row.end(),
        [&](const RelSlot &s) {
            return s.rel == rel && s.destGlobal == dest_global;
        });
    if (it == row.end())
        return false;
    row.erase(it);
    return true;
}

bool
ClusterKb::setSlotWeight(LocalNodeId local, RelationType rel,
                         NodeId dest_global, float weight)
{
    snap_assert(local < slots_.size(), "setSlotWeight local %u",
                local);
    for (RelSlot &s : slots_[local]) {
        if (s.rel == rel && s.destGlobal == dest_global) {
            s.weight = weight;
            return true;
        }
    }
    return false;
}

std::uint32_t
ClusterKb::subnodeRows() const
{
    std::uint32_t extra = 0;
    for (LocalNodeId l = 0; l < slots_.size(); ++l)
        extra += numRows(l) - 1;
    return extra;
}

KbImage::KbImage(const SemanticNetwork &net, const MachineConfig &cfg)
    : part_(Partition::build(net, cfg.numClusters, cfg.partition,
                             cfg.maxNodesPerCluster))
{
    clusters_.reserve(cfg.numClusters);
    for (ClusterId c = 0; c < cfg.numClusters; ++c)
        clusters_.push_back(
            std::make_unique<ClusterKb>(net, part_, c));
}

KbImage::KbImage(Partition part,
                 std::vector<std::unique_ptr<ClusterKb>> clusters)
    : part_(std::move(part)), clusters_(std::move(clusters))
{
    snap_assert(clusters_.size() == part_.numClusters(),
                "%zu cluster tables for a %u-cluster partition",
                clusters_.size(), part_.numClusters());
    for (ClusterId c = 0; c < clusters_.size(); ++c) {
        snap_assert(clusters_[c]->clusterId() == c &&
                    clusters_[c]->numLocalNodes() ==
                        part_.clusterSize(c),
                    "cluster table %u disagrees with the partition",
                    c);
    }
}

KbImage::KbImage(const KbImage &other) : part_(other.part_)
{
    clusters_.reserve(other.clusters_.size());
    for (const auto &ckb : other.clusters_)
        clusters_.push_back(std::make_unique<ClusterKb>(*ckb));
}

bool
KbImage::markerSet(MarkerId m, NodeId n) const
{
    Placement p = part_.place(n);
    return clusters_[p.cluster]->markers().test(m, p.local);
}

float
KbImage::markerValue(MarkerId m, NodeId n) const
{
    Placement p = part_.place(n);
    return clusters_[p.cluster]->markers().value(m, p.local);
}

NodeId
KbImage::markerOrigin(MarkerId m, NodeId n) const
{
    Placement p = part_.place(n);
    return clusters_[p.cluster]->markers().origin(m, p.local);
}

MarkerStore
KbImage::flatten() const
{
    // Walk each plane's status words by set bit: the cost follows the
    // marked slots, not nodes x planes.
    MarkerStore flat(part_.numNodes());
    for (const auto &ckb : clusters_) {
        const MarkerStore &ms = ckb->markers();
        for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
            auto mid = static_cast<MarkerId>(m);
            ms.bits(mid).forEachSet([&](LocalNodeId l) {
                flat.set(mid, ckb->globalId(l), ms.value(mid, l),
                         ms.origin(mid, l));
            });
        }
    }
    return flat;
}

void
KbImage::resetMarkers()
{
    for (auto &ckb : clusters_)
        ckb->markers().reset();
}

void
KbImage::restoreMarkers(const MarkerStore &flat)
{
    snap_assert(flat.numNodes() == numNodes(),
                "restoreMarkers over %u nodes onto a %u-node image",
                flat.numNodes(), numNodes());
    resetMarkers();
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        const BitVector &bits = flat.bits(mid);
        for (std::uint32_t n = bits.findNext(0); n < bits.size();
             n = bits.findNext(n + 1)) {
            Placement p = place(n);
            clusters_[p.cluster]->markers().set(
                mid, p.local, flat.value(mid, n),
                flat.origin(mid, n));
        }
    }
}

} // namespace snap
