#include "runtime/propagate.hh"

#include <deque>

#include "common/logging.hh"
#include "runtime/frontier_map.hh"

namespace snap
{

namespace
{

/** True for functions whose merge order prefers larger values. */
bool
maxOrder(MarkerFunc f)
{
    return f == MarkerFunc::MaxWeight || f == MarkerFunc::MulWeight;
}

} // namespace

bool
betterArrival(MarkerFunc f, float v1, NodeId o1, float v2, NodeId o2)
{
    if (maxOrder(f)) {
        if (v1 != v2)
            return v1 > v2;
    } else {
        if (v1 != v2)
            return v1 < v2;
    }
    return o1 < o2;
}

namespace
{

/**
 * a dominates b: a's continuations are guaranteed to win or tie
 * every downstream merge b's could, within b's remaining step
 * budget.  Requires all three of:
 *   - better-or-equal in the function's (value, origin) order,
 *   - origin <= origin: values can saturate to equality downstream
 *     (Min/Max functions), where the merge falls back to the origin
 *     tie-break — a better value with a larger origin may LOSE after
 *     saturation, so it must not prune,
 *   - steps <= steps: the pruned label must not out-reach the
 *     dominator under the rule's step bound.
 */
bool
dominates(MarkerFunc f, const PropLabel &a, const PropLabel &b)
{
    if (betterArrival(f, b.value, b.origin, a.value, a.origin))
        return false;  // b strictly better in (value, origin)
    return a.origin <= b.origin && a.steps <= b.steps;
}

} // namespace

bool
frontierAdmit(MarkerFunc f, std::vector<PropLabel> &frontier,
              const PropLabel &cand)
{
    for (const PropLabel &e : frontier)
        if (dominates(f, e, cand))
            return false;
    // Remove entries the candidate dominates.
    std::size_t out = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (!dominates(f, cand, frontier[i]))
            frontier[out++] = frontier[i];
    }
    frontier.resize(out);
    frontier.push_back(cand);
    return true;
}

PropagationStats
propagateFunctional(const SemanticNetwork &net, MarkerStore &store,
                    MarkerId m1, MarkerId m2, const PropRule &rule,
                    MarkerFunc func)
{
    snap_assert(m1 != m2,
                "PROPAGATE with identical source and destination "
                "marker m%u", static_cast<unsigned>(m1));

    PropagationStats st;

    struct Arrival
    {
        NodeId node;
        std::uint8_t state;
        float value;
        NodeId origin;
        std::uint32_t steps;
    };

    // Non-dominated label frontier per (node, state): controls
    // re-propagation.
    FrontierMap best;
    auto key = [](NodeId n, std::uint8_t s) {
        return (static_cast<std::uint64_t>(n) << 8) | s;
    };

    std::deque<Arrival> queue;

    // Seed from every node currently holding marker-1, in node order
    // (the MU scans the m1 status table row by row, ctz per word).
    const BitVector &src_bits = store.bits(m1);
    src_bits.forEachSet([&](std::uint32_t u) {
        ++st.sources;
        float v0 = store.value(m1, u);
        queue.push_back(Arrival{u, 0, v0, u, 0});
        frontierAdmit(func, best[key(u, 0)], PropLabel{v0, u, 0});
    });

    std::vector<std::uint8_t> next_states;
    while (!queue.empty()) {
        Arrival a = queue.front();
        queue.pop_front();

        if (!rule.live(a.state))
            continue;
        if (a.steps >= rule.maxSteps)
            continue;

        if (st.levelExpansions.size() <= a.steps)
            st.levelExpansions.resize(a.steps + 1, 0);
        ++st.levelExpansions[a.steps];

        for (const Link &l : net.links(a.node)) {
            ++st.linksScanned;
            next_states.clear();
            rule.step(a.state, l.rel, next_states);
            if (next_states.empty())
                continue;

            float nv = applyStep(func, a.value, l.weight);
            std::uint32_t nsteps = a.steps + 1;
            if (nsteps > st.maxDepth)
                st.maxDepth = nsteps;

            // Deliver marker-2 to the destination node (merge).
            bool already = store.test(m2, l.dst);
            if (!already) {
                store.set(m2, l.dst, nv, a.origin);
                ++st.nodesMarked;
            } else if (betterArrival(func, nv, a.origin,
                                     store.value(m2, l.dst),
                                     store.origin(m2, l.dst))) {
                store.setValue(m2, l.dst, nv, a.origin);
            }

            // Continue propagation per reachable rule state.
            for (std::uint8_t ns : next_states) {
                ++st.traversals;
                if (!frontierAdmit(func, best[key(l.dst, ns)],
                                   PropLabel{nv, a.origin, nsteps}))
                    continue;  // dominated: do not re-propagate
                queue.push_back(
                    Arrival{l.dst, ns, nv, a.origin, nsteps});
            }
        }
    }
    return st;
}

} // namespace snap
