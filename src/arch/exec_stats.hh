/**
 * @file
 * Execution statistics gathered over one program run.
 *
 * These counters feed every evaluation figure: per-category busy wall
 * time (Figs. 6/18/19), per-opcode counts (Fig. 20), messages per
 * barrier epoch (Fig. 8), the four parallel-overhead components
 * (Fig. 21), and the α distribution (Fig. 16).
 */

#ifndef SNAP_ARCH_EXEC_STATS_HH
#define SNAP_ARCH_EXEC_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace snap
{

/**
 * Tracks, per instruction category, the wall-clock time during which
 * at least one unit anywhere in the machine is busy with work of that
 * category.  Parallel work of one category thus compresses its
 * "category time" — the effect Figs. 18/19 plot.
 */
class ActiveTimer
{
  public:
    /** Returns true when the category transitions idle -> active
     *  (the union interval opens), so tracers can mirror the exact
     *  intervals this timer accumulates. */
    bool
    start(InstrCategory c, Tick now)
    {
        auto i = static_cast<std::size_t>(c);
        if (count_[i]++ == 0) {
            since_[i] = now;
            return true;
        }
        return false;
    }

    /** Returns true when the category transitions active -> idle
     *  (the union interval closes). */
    bool
    stop(InstrCategory c, Tick now)
    {
        auto i = static_cast<std::size_t>(c);
        snap_assert(count_[i] > 0, "ActiveTimer underflow cat %zu", i);
        if (--count_[i] == 0) {
            close(i, now);
            return true;
        }
        return false;
    }

    /** Accumulated active wall time (all intervals closed). */
    Tick
    activeTicks(InstrCategory c) const
    {
        return accum_[static_cast<std::size_t>(c)];
    }

    bool
    allClosed() const
    {
        for (auto c : count_)
            if (c != 0)
                return false;
        return true;
    }

    /** Force-close every open interval at `now`.  Used when a run is
     *  demoted by a wedge/watchdog fault with units still mid-work:
     *  the accumulated times stay meaningful and allClosed() holds
     *  again for mergeClosed(). */
    void
    closeAll(Tick now)
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (count_[i] != 0) {
                close(i, now);
                count_[i] = 0;
            }
        }
    }

    void
    reset()
    {
        count_.fill(0);
        accum_.fill(0);
        since_.fill(0);
    }

    /** Add another (closed) timer's accumulated time. */
    void
    mergeClosed(const ActiveTimer &other)
    {
        snap_assert(other.allClosed(), "merging an open ActiveTimer");
        for (std::size_t i = 0; i < N; ++i)
            accum_[i] += other.accum_[i];
    }

  private:
    static constexpr std::size_t N =
        static_cast<std::size_t>(InstrCategory::NumCategories);

    void
    close(std::size_t i, Tick now)
    {
        accum_[i] += now - since_[i];
    }

    std::array<std::uint32_t, N> count_{};
    std::array<Tick, N> since_{};
    std::array<Tick, N> accum_{};
};

/** All statistics of one run. */
struct ExecBreakdown
{
    static constexpr std::size_t numCats =
        static_cast<std::size_t>(InstrCategory::NumCategories);
    static constexpr std::size_t numOps =
        static_cast<std::size_t>(Opcode::NumOpcodes);

    /** Wall-clock span of the run. */
    Tick wallTicks = 0;

    /** Active wall time per category (see ActiveTimer). */
    ActiveTimer categoryTimer;

    /** Busy ticks summed over units, per category. */
    std::array<Tick, numCats> categoryBusy{};

    /** Instructions executed per opcode / category. */
    std::array<std::uint64_t, numOps> opcodeCounts{};
    std::array<std::uint64_t, numCats> categoryCounts{};

    // --- the four parallel-overhead components (Fig. 21) ----------------
    /** SCP busy time broadcasting instructions. */
    Tick broadcastTicks = 0;
    /** CU busy time (service, transfer, relay, delivery). */
    Tick commTicks = 0;
    /** Barrier detection + release time (after quiescence). */
    Tick syncTicks = 0;
    /** SCP busy time reading collect buffers. */
    Tick collectTicks = 0;

    // --- propagation / traffic ------------------------------------------
    std::uint64_t messagesSent = 0;      ///< inter-cluster messages
    std::uint64_t messageHops = 0;
    std::uint64_t arrivalsProcessed = 0;
    std::uint64_t localDeliveries = 0;
    std::uint64_t expansions = 0;
    std::uint64_t linkTraversals = 0;
    std::uint64_t barriers = 0;
    std::uint64_t collects = 0;
    std::uint64_t collectedItems = 0;

    /** Busy-tick sums per unit type (utilization analysis). */
    Tick puBusyTicks = 0;
    Tick muBusyTicks = 0;

    /** Inter-cluster messages per barrier epoch (Fig. 8 series). */
    std::vector<std::uint32_t> msgsPerEpoch;

    /** Source activations per PROPAGATE (α, Fig. 16). */
    stats::Distribution alphaDist;
    /** End-to-end message latency in ticks. */
    stats::Distribution msgLatency;
    /** Propagation path depth reached. */
    std::uint32_t maxDepth = 0;

    Tick
    categoryTicks(InstrCategory c) const
    {
        return categoryTimer.activeTicks(c);
    }

    double wallMs() const { return ticksToMs(wallTicks); }

    /** Mean messages per barrier epoch (paper: 11.49). */
    double
    meanMsgsPerEpoch() const
    {
        if (msgsPerEpoch.empty())
            return 0;
        double sum = 0;
        for (auto v : msgsPerEpoch)
            sum += v;
        return sum / static_cast<double>(msgsPerEpoch.size());
    }

    /** Human-readable multi-line summary. */
    std::string summary() const;

    /** Push every counter into a MetricsRegistry under the
     *  snap_exec_* prefix, with `labels` (e.g. worker="3") applied
     *  to each sample. */
    void exportMetrics(MetricsRegistry &reg,
                       MetricsRegistry::Labels labels = {}) const;

    /** Accumulate another run's statistics (multi-program
     *  applications: the parser issues several programs per
     *  sentence). */
    void merge(const ExecBreakdown &other);
};

} // namespace snap

#endif // SNAP_ARCH_EXEC_STATS_HH
