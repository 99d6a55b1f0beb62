#include "runtime/reference.hh"

#include "common/logging.hh"

namespace snap
{

ResultSet
ReferenceInterpreter::run(const Program &prog)
{
    ResultSet results;
    for (const Instruction &i : prog.instructions())
        execute(i, prog.rules(), results);
    return results;
}

void
ReferenceInterpreter::reset()
{
    store_.reset();
    stats_ = ReferenceStats{};
}

std::uint64_t
ReferenceInterpreter::nodeRows(NodeId u) const
{
    std::uint32_t f = net_.fanout(u);
    return f <= capacity::relationSlotsPerNode
               ? 1
               : (f + capacity::relationSlotsPerNode - 1) /
                     capacity::relationSlotsPerNode;
}

void
ReferenceInterpreter::execute(const Instruction &i,
                              const RuleTable &rules,
                              ResultSet &results)
{
    ++stats_.instructions;
    std::uint32_t n = net_.numNodes();
    std::uint64_t words = (n + capacity::wordBits - 1) /
                          capacity::wordBits;

    work_ = InstrWork{};
    work_.op = i.op;

    switch (i.op) {
      case Opcode::Create:
        net_.addLink(i.node, i.rel, i.endNode, i.value);
        work_.linkEdits = 1;
        break;

      case Opcode::Delete:
        net_.removeLink(i.node, i.rel, i.endNode);
        work_.linkEdits = 1;
        break;

      case Opcode::SetColor:
        net_.setColor(i.node, i.color);
        work_.nodeScans = 1;
        break;

      case Opcode::SetWeight:
        net_.setWeight(i.node, i.rel, i.endNode, i.value);
        work_.linkEdits = 1;
        break;

      case Opcode::SearchNode:
        store_.set(i.m1, i.node, i.value, i.node);
        work_.wordOps = 1;
        work_.valueOps = 1;
        break;

      case Opcode::SearchRelation:
        doSearchRelation(i);
        break;

      case Opcode::SearchColor:
        for (NodeId u = 0; u < n; ++u) {
            if (net_.color(u) == i.color) {
                store_.set(i.m1, u, i.value, u);
                ++work_.valueOps;
            }
        }
        work_.nodeScans = n;
        break;

      case Opcode::Propagate: {
        const PropRule &rule = rules.rule(i.rule);
        PropagationStats st = propagateFunctional(net_, store_, i.m1,
                                                  i.m2, rule, i.func);
        ++stats_.propagations;
        stats_.traversals += st.traversals;
        stats_.nodesMarked += st.nodesMarked;
        if (st.maxDepth > stats_.maxDepth)
            stats_.maxDepth = st.maxDepth;

        std::uint64_t expansions = 0;
        for (auto e : st.levelExpansions)
            expansions += e;
        work_.wordOps = words;  // source status-table scan
        work_.sources = st.sources;
        work_.rowFetches = expansions +
                           st.linksScanned /
                               capacity::relationSlotsPerNode;
        work_.slotScans = st.linksScanned;
        work_.deliveries = st.traversals;
        work_.valueOps = st.traversals;
        work_.levelExpansions = st.levelExpansions;
        break;
      }

      case Opcode::MarkerCreate:
      case Opcode::MarkerDelete:
        doMarkerMaintenance(i);
        break;

      case Opcode::MarkerSetColor:
        work_.wordOps = words;
        for (NodeId u = 0; u < n; ++u) {
            if (store_.test(i.m1, u)) {
                net_.setColor(u, i.color);
                ++work_.nodeScans;
            }
        }
        break;

      case Opcode::AndMarker:
      case Opcode::OrMarker:
      case Opcode::NotMarker:
        work_.wordOps = 3 * words;
        doBoolean(i);
        break;

      case Opcode::SetMarker:
        for (NodeId u = 0; u < n; ++u)
            store_.set(i.m1, u, i.value, u);
        work_.wordOps = words;
        work_.valueOps = isComplexMarker(i.m1) ? n : 0;
        break;

      case Opcode::ClearMarker:
        store_.clearAll(i.m1);
        work_.wordOps = words;
        break;

      case Opcode::FuncMarker:
        work_.wordOps = words;
        doFuncMarker(i);
        break;

      case Opcode::CollectMarker:
      case Opcode::CollectRelation:
      case Opcode::CollectColor:
        doCollect(i, results);
        break;

      case Opcode::Barrier:
        // Sequential execution: propagation is already complete.
        break;

      default:
        snap_panic("reference: bad opcode %d",
                   static_cast<int>(i.op));
    }
}

void
ReferenceInterpreter::doSearchRelation(const Instruction &i)
{
    for (NodeId u = 0; u < net_.numNodes(); ++u) {
        work_.rowFetches += nodeRows(u);
        for (const Link &l : net_.links(u)) {
            if (l.rel == i.rel) {
                store_.set(i.m1, u, i.value, u);
                ++work_.valueOps;
                break;
            }
        }
    }
}

void
ReferenceInterpreter::doBoolean(const Instruction &i)
{
    if (i.op == Opcode::NotMarker) {
        std::uint32_t n = net_.numNodes();
        for (NodeId u = 0; u < n; ++u) {
            if (!store_.test(i.m1, u)) {
                store_.set(i.m3, u, 0.0f, u);
                ++work_.valueOps;
            } else {
                store_.clear(i.m3, u);
            }
        }
        return;
    }

    // AND/OR: only a node holding m1 or m2 can hold m3, so walk the
    // status words and visit the set bits of each result word.  The
    // result word is computed before anything is written, because m3
    // may alias m1 or m2.
    using Word = BitVector::Word;
    BitVector &b3 = store_.bits(i.m3);
    for (std::uint32_t w = 0; w < b3.numWords(); ++w) {
        const Word w1 = store_.bits(i.m1).word(w);
        const Word w2 = store_.bits(i.m2).word(w);
        const Word w3 = i.op == Opcode::AndMarker ? w1 & w2 : w1 | w2;
        for (Word rest = w3; rest != 0; rest &= rest - 1) {
            const auto b =
                static_cast<std::uint32_t>(__builtin_ctzll(rest));
            const NodeId u = w * BitVector::bitsPerWord + b;
            const bool s1 = (w1 >> b) & 1;
            const bool s2 = (w2 >> b) & 1;
            float v1 = store_.value(i.m1, u);
            float v2 = store_.value(i.m2, u);
            NodeId o1 = isComplexMarker(i.m1) && s1
                            ? store_.origin(i.m1, u) : invalidNode;
            NodeId o2 = isComplexMarker(i.m2) && s2
                            ? store_.origin(i.m2, u) : invalidNode;

            // AND reaches here only with both set.
            float v3;
            NodeId o3;
            if (s1 && s2) {
                v3 = combine(i.comb, v1, v2);
                o3 = o1 != invalidNode ? o1
                     : o2 != invalidNode ? o2 : u;
            } else if (s1) {
                v3 = v1;
                o3 = o1 != invalidNode ? o1 : u;
            } else {
                v3 = v2;
                o3 = o2 != invalidNode ? o2 : u;
            }
            store_.setValue(i.m3, u, v3, o3);
            ++work_.valueOps;
        }
        b3.setWord(w, w3);
    }
}

void
ReferenceInterpreter::doMarkerMaintenance(const Instruction &i)
{
    // Snapshot the marked set first: MARKER-CREATE must not react to
    // links it creates itself (the end node may gain the marker's
    // relation but never holds the marker).
    std::vector<NodeId> marked;
    store_.bits(i.m1).collect(marked);

    work_.wordOps = (net_.numNodes() + capacity::wordBits - 1) /
                    capacity::wordBits;
    for (NodeId u : marked) {
        if (i.op == Opcode::MarkerCreate) {
            net_.addLink(u, i.rel, i.endNode, 0.0f);
            net_.addLink(i.endNode, i.rel2, u, 0.0f);
        } else {
            net_.removeLink(u, i.rel, i.endNode);
            net_.removeLink(i.endNode, i.rel2, u);
        }
        work_.linkEdits += 2;
    }
}

void
ReferenceInterpreter::doFuncMarker(const Instruction &i)
{
    std::uint32_t n = net_.numNodes();
    for (NodeId u = 0; u < n; ++u) {
        if (!store_.test(i.m1, u))
            continue;
        float v = store_.value(i.m1, u);
        bool keep = i.sfunc.apply(v);
        if (!keep) {
            store_.clear(i.m1, u);
        } else if (isComplexMarker(i.m1)) {
            store_.setValue(i.m1, u, v, store_.origin(i.m1, u));
        }
        ++work_.valueOps;
    }
}

void
ReferenceInterpreter::doCollect(const Instruction &i,
                                ResultSet &results)
{
    CollectResult res;
    res.op = i.op;
    res.marker = i.m1;
    res.color = i.color;
    res.rel = i.rel;

    std::uint32_t n = net_.numNodes();
    switch (i.op) {
      case Opcode::CollectMarker:
        for (NodeId u = 0; u < n; ++u) {
            if (store_.test(i.m1, u)) {
                res.nodes.push_back(CollectedNode{
                    u, store_.value(i.m1, u),
                    store_.origin(i.m1, u)});
            }
        }
        break;
      case Opcode::CollectRelation:
        for (NodeId u = 0; u < n; ++u) {
            if (!store_.test(i.m1, u))
                continue;
            for (const Link &l : net_.links(u)) {
                if (l.rel == i.rel) {
                    res.links.push_back(
                        CollectedLink{u, l.rel, l.dst, l.weight});
                }
            }
        }
        break;
      case Opcode::CollectColor:
        for (NodeId u = 0; u < n; ++u) {
            if (net_.color(u) == i.color) {
                res.nodes.push_back(
                    CollectedNode{u, 0.0f, invalidNode});
            }
        }
        break;
      default:
        snap_panic("doCollect: bad opcode");
    }
    if (i.op == Opcode::CollectColor) {
        work_.nodeScans = n;
    } else {
        work_.wordOps = (n + capacity::wordBits - 1) /
                        capacity::wordBits;
    }
    if (i.op == Opcode::CollectRelation) {
        for (NodeId u = 0; u < n; ++u)
            if (store_.test(i.m1, u))
                work_.rowFetches += nodeRows(u);
    }
    work_.items = res.nodes.size() + res.links.size();
    results.push_back(std::move(res));
}

} // namespace snap
