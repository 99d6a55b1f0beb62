#include "arch/exec_stats.hh"

#include <sstream>

#include "common/strutil.hh"

namespace snap
{

void
ExecBreakdown::merge(const ExecBreakdown &other)
{
    wallTicks += other.wallTicks;
    categoryTimer.mergeClosed(other.categoryTimer);
    for (std::size_t i = 0; i < numCats; ++i) {
        categoryBusy[i] += other.categoryBusy[i];
        categoryCounts[i] += other.categoryCounts[i];
    }
    for (std::size_t i = 0; i < numOps; ++i)
        opcodeCounts[i] += other.opcodeCounts[i];
    broadcastTicks += other.broadcastTicks;
    commTicks += other.commTicks;
    syncTicks += other.syncTicks;
    collectTicks += other.collectTicks;
    puBusyTicks += other.puBusyTicks;
    muBusyTicks += other.muBusyTicks;
    messagesSent += other.messagesSent;
    messageHops += other.messageHops;
    arrivalsProcessed += other.arrivalsProcessed;
    localDeliveries += other.localDeliveries;
    expansions += other.expansions;
    linkTraversals += other.linkTraversals;
    barriers += other.barriers;
    collects += other.collects;
    collectedItems += other.collectedItems;
    for (auto v : other.msgsPerEpoch)
        msgsPerEpoch.push_back(v);
    alphaDist.merge(other.alphaDist);
    msgLatency.merge(other.msgLatency);
    if (other.maxDepth > maxDepth)
        maxDepth = other.maxDepth;
}

void
ExecBreakdown::exportMetrics(MetricsRegistry &reg,
                             MetricsRegistry::Labels labels) const
{
    using Kind = MetricsRegistry::Kind;
    auto put = [&](const char *name, Kind kind, double v,
                   const char *help) {
        reg.add(name, kind, v, help, labels);
    };

    put("snap_exec_wall_ticks", Kind::Counter,
        static_cast<double>(wallTicks),
        "simulated wall ticks (ps) spent running programs");
    for (std::size_t c = 0; c < numCats; ++c) {
        auto cat = static_cast<InstrCategory>(c);
        MetricsRegistry::Labels l = labels;
        l.emplace_back("category", categoryName(cat));
        reg.add("snap_exec_category_active_ticks", Kind::Counter,
                static_cast<double>(categoryTimer.activeTicks(cat)),
                "active simulated wall ticks per instruction "
                "category", l);
        reg.add("snap_exec_category_instructions", Kind::Counter,
                static_cast<double>(categoryCounts[c]),
                "instructions executed per category", l);
    }
    put("snap_exec_broadcast_ticks", Kind::Counter,
        static_cast<double>(broadcastTicks),
        "SCP busy ticks broadcasting instructions");
    put("snap_exec_comm_ticks", Kind::Counter,
        static_cast<double>(commTicks), "CU busy ticks");
    put("snap_exec_sync_ticks", Kind::Counter,
        static_cast<double>(syncTicks),
        "barrier detection + release ticks");
    put("snap_exec_collect_ticks", Kind::Counter,
        static_cast<double>(collectTicks),
        "SCP collect-buffer read ticks");
    put("snap_exec_messages_sent", Kind::Counter,
        static_cast<double>(messagesSent),
        "inter-cluster marker messages sent");
    put("snap_exec_message_hops", Kind::Counter,
        static_cast<double>(messageHops), "total ICN hops");
    put("snap_exec_arrivals_processed", Kind::Counter,
        static_cast<double>(arrivalsProcessed),
        "marker arrivals processed by MUs");
    put("snap_exec_local_deliveries", Kind::Counter,
        static_cast<double>(localDeliveries),
        "intra-cluster marker deliveries");
    put("snap_exec_expansions", Kind::Counter,
        static_cast<double>(expansions),
        "propagation expansions performed");
    put("snap_exec_link_traversals", Kind::Counter,
        static_cast<double>(linkTraversals),
        "semantic links traversed");
    put("snap_exec_barriers", Kind::Counter,
        static_cast<double>(barriers), "barrier epochs completed");
    put("snap_exec_collects", Kind::Counter,
        static_cast<double>(collects),
        "collect instructions executed");
    put("snap_exec_collected_items", Kind::Counter,
        static_cast<double>(collectedItems),
        "items read from collect buffers");
    put("snap_exec_pu_busy_ticks", Kind::Counter,
        static_cast<double>(puBusyTicks),
        "PU busy ticks summed over units");
    put("snap_exec_mu_busy_ticks", Kind::Counter,
        static_cast<double>(muBusyTicks),
        "MU busy ticks summed over units");
    put("snap_exec_mean_msgs_per_epoch", Kind::Gauge,
        meanMsgsPerEpoch(),
        "mean inter-cluster messages per barrier epoch");
    put("snap_exec_max_depth", Kind::Gauge,
        static_cast<double>(maxDepth),
        "maximum propagation depth reached");
}

std::string
ExecBreakdown::summary() const
{
    std::ostringstream os;
    os << "wall time: " << fmtDouble(wallMs(), 3) << " ms\n";
    os << "category times (active wall ms):\n";
    for (std::size_t c = 0; c < numCats; ++c) {
        auto cat = static_cast<InstrCategory>(c);
        os << "  " << categoryName(cat) << ": "
           << fmtDouble(ticksToMs(categoryTimer.activeTicks(cat)), 3)
           << " (count " << categoryCounts[c] << ")\n";
    }
    os << "overheads (ms): broadcast="
       << fmtDouble(ticksToMs(broadcastTicks), 3)
       << " comm=" << fmtDouble(ticksToMs(commTicks), 3)
       << " sync=" << fmtDouble(ticksToMs(syncTicks), 3)
       << " collect=" << fmtDouble(ticksToMs(collectTicks), 3)
       << "\n";
    os << "traffic: msgs=" << messagesSent << " hops=" << messageHops
       << " arrivals=" << arrivalsProcessed
       << " localDeliveries=" << localDeliveries
       << " barriers=" << barriers
       << " meanMsgs/epoch=" << fmtDouble(meanMsgsPerEpoch(), 2)
       << "\n";
    return os.str();
}

} // namespace snap
