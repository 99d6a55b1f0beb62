/**
 * @file
 * Inter-cluster messages.
 *
 * "The length of the message is 64 b and includes the marker, value,
 * function, destination address, first origin address, and
 * propagation rule.  Since the microcode table of propagation rules is
 * downloaded at compile-time, each marker only needs to carry a
 * single-byte token indicating the function to be performed.  Thus,
 * fixed-sized messages are used regardless of the complexity of the
 * propagation rule."  (paper §III-B)
 *
 * Besides marker activations, node-maintenance requests whose end
 * node lives in another cluster (MARKER-CREATE / MARKER-DELETE
 * reverse links) travel as the same fixed-size messages.
 */

#ifndef SNAP_ARCH_MESSAGE_HH
#define SNAP_ARCH_MESSAGE_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/function.hh"
#include "isa/prop_rule.hh"

namespace snap
{

/** What a message asks the destination cluster to do. */
enum class MsgKind : std::uint8_t
{
    /** Deliver a propagating marker and continue its traversal. */
    MarkerDeliver,
    /** Install a link (local-node --rel--> payload node). */
    LinkCreate,
    /** Remove such a link. */
    LinkDelete
};

/** One fixed-size activation message. */
struct ActivationMessage
{
    MsgKind kind = MsgKind::MarkerDeliver;

    /** Destination cluster / local node. */
    ClusterId destCluster = 0;
    LocalNodeId destLocal = 0;

    // --- MarkerDeliver fields -------------------------------------------
    MarkerId marker = 0;
    float value = 0.0f;
    /** Origin node (global id) for complex-marker binding. */
    NodeId origin = invalidNode;
    /** Rule token into the downloaded rule table. */
    RuleId rule = 0;
    /** Current rule NFA state. */
    std::uint8_t ruleState = 0;
    /** Steps taken so far (for the rule's step bound and the tiered
     *  synchronization level). */
    std::uint16_t steps = 0;
    /** Per-step value function token. */
    MarkerFunc func = MarkerFunc::None;
    /** Identifies the PROPAGATE instance (for per-propagation
     *  re-propagation bookkeeping). */
    std::uint16_t propId = 0;

    // --- Link* fields ------------------------------------------------------
    /** Relation to create/delete at the destination node. */
    RelationType linkRel = 0;
    /** Other endpoint of the link (global id). */
    NodeId linkOther = invalidNode;

    // --- bookkeeping (model only, not "on the wire") -----------------------
    /** Send timestamp for latency statistics. */
    Tick sentAt = 0;
    /** Hops traversed so far. */
    std::uint8_t hops = 0;
    /** Tiered synchronization level this message was counted at. */
    std::uint8_t syncLevel = 0;
    /** Cluster that put the message on its current link: the
     *  receiver's pop frees a slot in that cluster's view. */
    ClusterId lastHop = 0;
};

} // namespace snap

#endif // SNAP_ARCH_MESSAGE_HH
