/**
 * @file
 * Compiled per-cluster knowledge-base tables (paper Fig. 4).
 *
 * The logical semantic network is partitioned and compiled into the
 * three tables each cluster stores: the node table (color + marker
 * value registers), the bit-packed marker status table, and the
 * relation table.  The relation table holds 16 outgoing slots per
 * row; "nodes with fanout greater than 16 are divided into subnodes
 * by a pre-processor when the knowledge base is created" — the image
 * models a subnode chain as additional rows for the same node, which
 * the marker units traverse (and pay for) during propagation.
 */

#ifndef SNAP_ARCH_KB_IMAGE_HH
#define SNAP_ARCH_KB_IMAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "common/types.hh"
#include "kb/partition.hh"
#include "kb/semantic_network.hh"
#include "runtime/marker_store.hh"

namespace snap
{

/** One compiled relation slot. */
struct RelSlot
{
    RelationType rel = 0;
    ClusterId destCluster = 0;
    LocalNodeId destLocal = 0;
    /** Global id of the destination (directory value). */
    NodeId destGlobal = invalidNode;
    float weight = 0.0f;
};

/**
 * One cluster's portion of the knowledge base.
 */
class ClusterKb
{
  public:
    ClusterKb(const SemanticNetwork &net, const Partition &part,
              ClusterId cluster);

    /**
     * Deserialization: adopt already-compiled tables verbatim (the
     * binary .kbimg bulk-load path — see arch/kb_image_io).  The
     * three vectors must be equally sized; callers validate
     * untrusted input first.
     */
    ClusterKb(ClusterId cluster, std::vector<NodeId> global_ids,
              std::vector<Color> colors,
              std::vector<std::vector<RelSlot>> slots);

    /** Copyable so a compiled image can be replicated per worker. */
    ClusterKb(const ClusterKb &) = default;

    ClusterId clusterId() const { return cluster_; }
    std::uint32_t numLocalNodes() const
    {
        return static_cast<std::uint32_t>(globalIds_.size());
    }

    NodeId
    globalId(LocalNodeId local) const
    {
        snap_assert(local < globalIds_.size(), "local %u out of %zu",
                    local, globalIds_.size());
        return globalIds_[local];
    }

    Color color(LocalNodeId local) const { return colors_.at(local); }
    void setColor(LocalNodeId local, Color c) { colors_.at(local) = c; }

    const std::vector<RelSlot> &
    slots(LocalNodeId local) const
    {
        snap_assert(local < slots_.size(), "local %u out of %zu",
                    local, slots_.size());
        return slots_[local];
    }

    /** Install a slot at runtime (CREATE / MARKER-CREATE).  May grow
     *  the node's subnode chain. */
    void addSlot(LocalNodeId local, const RelSlot &slot);

    /** Remove the first slot matching (rel, destGlobal).
     *  @return true if found. */
    bool removeSlot(LocalNodeId local, RelationType rel,
                    NodeId dest_global);

    /** Update the first matching slot's weight.
     *  @return true if found. */
    bool setSlotWeight(LocalNodeId local, RelationType rel,
                       NodeId dest_global, float weight);

    /**
     * Relation rows occupied by @p local (>= 1): the head row plus
     * subnode-chain rows for fanout beyond 16 slots.  Timing model
     * input for relation-table scans.
     */
    std::uint32_t
    numRows(LocalNodeId local) const
    {
        std::size_t n = slots_[local].size();
        return n <= capacity::relationSlotsPerNode
                   ? 1u
                   : static_cast<std::uint32_t>(
                         (n + capacity::relationSlotsPerNode - 1) /
                         capacity::relationSlotsPerNode);
    }

    /** Rows beyond one-per-node: the subnodes the preprocessor
     *  created. */
    std::uint32_t subnodeRows() const;

    MarkerStore &markers() { return markers_; }
    const MarkerStore &markers() const { return markers_; }

  private:
    ClusterId cluster_;
    std::vector<NodeId> globalIds_;
    std::vector<Color> colors_;
    std::vector<std::vector<RelSlot>> slots_;
    MarkerStore markers_;
};

/**
 * The whole machine's compiled knowledge base: a partition plus one
 * ClusterKb per cluster, with a directory for global <-> physical
 * translation.
 */
class KbImage
{
  public:
    KbImage(const SemanticNetwork &net, const MachineConfig &cfg);

    /**
     * Deserialization: assemble an image from an explicit partition
     * and pre-compiled cluster tables (the binary .kbimg bulk-load
     * path).  One ClusterKb per partition cluster, in cluster order.
     */
    KbImage(Partition part,
            std::vector<std::unique_ptr<ClusterKb>> clusters);

    /**
     * Deep copy.  Partitioning and compiling a large network is the
     * expensive part of machine bring-up; the serve engine compiles
     * one master image and stamps out per-worker replicas from it.
     */
    KbImage(const KbImage &other);
    KbImage &operator=(const KbImage &) = delete;

    const Partition &partition() const { return part_; }
    std::uint32_t numClusters() const
    {
        return static_cast<std::uint32_t>(clusters_.size());
    }
    std::uint32_t numNodes() const { return part_.numNodes(); }

    ClusterKb &cluster(ClusterId c) { return *clusters_.at(c); }
    const ClusterKb &cluster(ClusterId c) const
    {
        return *clusters_.at(c);
    }

    Placement place(NodeId n) const { return part_.place(n); }

    // --- global marker state access (tests / verification) -------------

    bool markerSet(MarkerId m, NodeId n) const;
    float markerValue(MarkerId m, NodeId n) const;
    NodeId markerOrigin(MarkerId m, NodeId n) const;

    /** Flatten machine marker state into one MarkerStore over global
     *  node ids (for equivalence checks against the golden model). */
    MarkerStore flatten() const;

    /** Clear every marker plane in every cluster (fresh-query
     *  state). */
    void resetMarkers();

    /** Install flat marker state @p flat (global node ids) into the
     *  distributed tables; the node count must match.  With
     *  flatten(), this checkpoints and restores a session under any
     *  partitioning (runtime/snapshot holds the byte form). */
    void restoreMarkers(const MarkerStore &flat);

  private:
    Partition part_;
    std::vector<std::unique_ptr<ClusterKb>> clusters_;
};

} // namespace snap

#endif // SNAP_ARCH_KB_IMAGE_HH
