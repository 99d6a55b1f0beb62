/**
 * @file
 * The 4-ary hypercube interconnection network (paper §III-B, Fig. 11).
 *
 * Clusters communicate through dedicated four-port memories: the
 * L-memory joins the four clusters of one board, the X- and Y-
 * memories join boards across the backplane.  "The 5-b address for
 * each of the 32 clusters is paired to form modulo-4 fields"; a CU
 * "communicates with all CU's which vary by exactly one 2-b field,
 * either X, Y, or L", so any of 32 clusters is reachable in at most
 * three hops.  "Since each memory port is dedicated to a single CU,
 * there is no bus contention" — the serialization points are each
 * CU's service rate and the finite port-memory capacity.
 *
 * This class is the static topology (routing, field arithmetic,
 * transfer time) plus the machine-lifetime traffic statistics.  The
 * dynamic state — per-dimension receive queues, each sender's view
 * of its neighbors' free slots (icnMailboxDepth each), the slot
 * releases and the in-flight messages themselves — lives in the
 * clusters and the Wire layer (arch/wire.hh), so every piece of
 * mutable ICN state has exactly one owner.
 */

#ifndef SNAP_ARCH_ICN_HH
#define SNAP_ARCH_ICN_HH

#include <cstdint>
#include <utility>

#include "arch/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace snap
{

/** Hypercube dimensions: L (on-board), X, Y. */
enum class IcnDim : std::uint8_t { L = 0, X = 1, Y = 2 };

constexpr std::uint32_t numIcnDims = 3;

class HypercubeIcn
{
  public:
    HypercubeIcn(std::uint32_t num_clusters, const TimingParams &t);

    std::uint32_t numClusters() const { return numClusters_; }

    /** Modulo-4 address field of @p c along @p dim. */
    static std::uint32_t
    field(ClusterId c, std::uint32_t dim)
    {
        return (c >> (2 * dim)) & 3u;
    }

    /** Number of hops between two clusters (differing fields). */
    static std::uint32_t distance(ClusterId a, ClusterId b);

    /**
     * Routing decision at @p cur for destination @p dest: corrects
     * the lowest differing field.
     * @return (dimension, neighbor cluster)
     */
    std::pair<std::uint32_t, ClusterId>
    nextHop(ClusterId cur, ClusterId dest) const;

    /** Transfer time of one fixed-size message, port to port. */
    Tick
    transferTime() const
    {
        return static_cast<Tick>(t_.icnBytesPerMsg) * t_.icnByteNs *
               ticksPerNs;
    }

    // --- statistics ---------------------------------------------------------
    // Machine-lifetime totals.  Clusters tally into per-cluster
    // deltas during a run; the machine folds them in canonical
    // cluster order at end of run (see Cluster::IcnDelta).

    std::uint64_t messagesInjected = 0; ///< first-hop sends
    std::uint64_t hopsTraversed = 0;    ///< total port-to-port hops
    std::uint64_t relays = 0;           ///< intermediate-hop handlings
    stats::Distribution hopDist;        ///< hops per delivered message
    stats::Distribution latency;        ///< end-to-end ticks per message
    std::uint64_t blockedSends = 0;     ///< sends stalled on a full link
    std::uint64_t messagesDropped = 0;  ///< injected link-fault losses

  private:
    std::uint32_t numClusters_;
    const TimingParams &t_;
};

} // namespace snap

#endif // SNAP_ARCH_ICN_HH
