/**
 * @file
 * Fundamental scalar types shared across the SNAP-1 model.
 *
 * The widths follow the paper's Fig. 4 capacity table: 32K semantic
 * network nodes addressed by a 15-bit physical node ID (5-bit cluster
 * number + 10-bit local node number), 256 node colors, 64K relation
 * types, 64 complex + 64 binary markers.
 */

#ifndef SNAP_COMMON_TYPES_HH
#define SNAP_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace snap
{

/** Simulated time in picoseconds (tick = 1 ps, as in gem5). */
using Tick = std::uint64_t;

/** One simulation tick in picoseconds. */
constexpr Tick ticksPerPs = 1;
constexpr Tick ticksPerNs = 1000;
constexpr Tick ticksPerUs = 1000 * 1000;
constexpr Tick ticksPerMs = 1000ull * 1000 * 1000;
constexpr Tick ticksPerSec = 1000ull * 1000 * 1000 * 1000;

constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Convert ticks to floating-point microseconds / milliseconds. */
constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerUs);
}

constexpr double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerMs);
}

constexpr double
ticksToSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerSec);
}

/** Global (machine-wide) semantic network node identifier. */
using NodeId = std::uint32_t;

/** Node number local to one cluster (10 bits in hardware). */
using LocalNodeId = std::uint32_t;

/** Cluster number (5 bits: up to 32 clusters). */
using ClusterId = std::uint32_t;

/** Relation (link) type; 64K distinct types supported. */
using RelationType = std::uint16_t;

/** Node color, distinguishing one of 256 concept classes. */
using Color = std::uint8_t;

/** Marker register index.  0..63 are complex markers, 64..127 binary. */
using MarkerId = std::uint8_t;

/** Sentinel for "no node". */
constexpr NodeId invalidNode = 0xffffffff;

/** Architectural capacity constants (Fig. 4). */
namespace capacity
{

/** Maximum semantic network nodes machine-wide. */
constexpr std::uint32_t maxNodes = 32 * 1024;
/** Maximum nodes resident in one cluster. */
constexpr std::uint32_t maxNodesPerCluster = 1024;
/** Number of distinct node colors. */
constexpr std::uint32_t numColors = 256;
/** Number of distinct relation types. */
constexpr std::uint32_t numRelationTypes = 64 * 1024;
/** Outgoing relation slots per node row. */
constexpr std::uint32_t relationSlotsPerNode = 16;
/** Complex (valued) markers per node. */
constexpr std::uint32_t numComplexMarkers = 64;
/** Binary (bit) markers per node. */
constexpr std::uint32_t numBinaryMarkers = 64;
/** Total marker register indices. */
constexpr std::uint32_t numMarkers = numComplexMarkers + numBinaryMarkers;
/** CPU word width: marker status bits processed per word op. */
constexpr std::uint32_t wordBits = 32;
/** Maximum clusters in the array. */
constexpr std::uint32_t maxClusters = 32;
/** Instructions per program: the controller's 16-bit sequence
 *  space. */
constexpr std::uint32_t maxInstructions = 0xffff;

} // namespace capacity

/** True for indices that denote complex (valued) markers. */
constexpr bool
isComplexMarker(MarkerId m)
{
    return m < capacity::numComplexMarkers;
}

/** True for indices that denote binary markers. */
constexpr bool
isBinaryMarker(MarkerId m)
{
    return m >= capacity::numComplexMarkers &&
           m < capacity::numMarkers;
}

} // namespace snap

#endif // SNAP_COMMON_TYPES_HH
