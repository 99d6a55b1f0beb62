/**
 * @file
 * Functional (machine-independent) propagation engine.
 *
 * Defines the reference semantics of PROPAGATE that the SNAP machine
 * model must reproduce, and supplies the per-level expansion counts
 * the baseline simulators (uniprocessor, CM-2) convert into time.
 *
 * Semantics (DESIGN.md §5): from every node with marker-1 set, a
 * marker-2 instance propagates along rule-admissible paths; the
 * carried function updates its value per traversed link; every
 * reached node receives marker-2 (merged by the function's order);
 * a (node, rule-state) pair re-propagates only on first arrival or
 * strict improvement under the deterministic total order
 * (value, then origin id), which makes the fixpoint independent of
 * processing order for monotone functions when the rule's step bound
 * does not bind.
 */

#ifndef SNAP_RUNTIME_PROPAGATE_HH
#define SNAP_RUNTIME_PROPAGATE_HH

#include <cstdint>
#include <vector>

#include "isa/function.hh"
#include "isa/prop_rule.hh"
#include "kb/semantic_network.hh"
#include "runtime/marker_store.hh"

namespace snap
{

/**
 * True when arrival (v1, o1) beats incumbent (v2, o2) under function
 * @p f: min-order functions prefer smaller values, max-order larger;
 * ties break toward the smaller origin id so results are
 * deterministic.  MarkerFunc::None uses min order (its value never
 * changes along a path, so this reduces to "smallest (value, origin)
 * among reaching sources").
 */
bool betterArrival(MarkerFunc f, float v1, NodeId o1, float v2,
                   NodeId o2);

/**
 * One propagation label at a (node, rule-state): the carried value,
 * origin binding, and steps consumed.
 */
struct PropLabel
{
    float value;
    NodeId origin;
    std::uint32_t steps;
};

/**
 * Pareto-frontier admission for re-propagation.
 *
 * Because the rule's step bound cuts paths, a label may only prune
 * continuations it *dominates*: better-or-equal in the function's
 * (value, origin) order AND no more steps consumed.  Keeping the
 * non-dominated frontier per (node, state) makes the propagation
 * fixpoint independent of processing order for monotone functions —
 * the property the machine-vs-golden equivalence tests rely on.
 *
 * @return true if @p cand is admitted (caller re-propagates);
 *         the frontier is updated in place (dominated entries
 *         removed).
 */
bool frontierAdmit(MarkerFunc f, std::vector<PropLabel> &frontier,
                   const PropLabel &cand);

/** Work counters produced by one functional propagation. */
struct PropagationStats
{
    /** Nodes where marker-2 was newly set. */
    std::uint64_t nodesMarked = 0;
    /** Links examined at expanded nodes (relation-table scans). */
    std::uint64_t linksScanned = 0;
    /** Admissible traversals performed (marker movements). */
    std::uint64_t traversals = 0;
    /** Source nodes (the instruction's α contribution). */
    std::uint64_t sources = 0;
    /** Deepest path, in steps. */
    std::uint32_t maxDepth = 0;
    /** Expansions per BFS level; size = maxDepth + 1.  Level L holds
     *  the number of (node, state) expansions at depth L — the CM-2
     *  baseline pays one controller-array iteration per level. */
    std::vector<std::uint64_t> levelExpansions;
};

/**
 * Run one PROPAGATE to fixpoint on flat state.
 *
 * @param net   the network (read only)
 * @param store marker state (marker-2 plane updated)
 * @param m1    source marker
 * @param m2    propagated marker (must differ from m1)
 * @param rule  compiled propagation rule
 * @param func  per-step value function
 */
PropagationStats propagateFunctional(const SemanticNetwork &net,
                                     MarkerStore &store, MarkerId m1,
                                     MarkerId m2, const PropRule &rule,
                                     MarkerFunc func);

} // namespace snap

#endif // SNAP_RUNTIME_PROPAGATE_HH
