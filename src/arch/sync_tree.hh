/**
 * @file
 * Tiered barrier synchronization (paper §III-C, Figs. 13/14).
 *
 * "The AND-tree provides a synchronization interlock signal (SIGI) to
 * the SCP when processors are idle ...  The processors maintain a
 * marker message counter for each level to indicate if messages are
 * in transit.  It is initialized to zero and is incremented upon each
 * process creation and decremented after each process termination.
 * If the processors are idle and the counters sum to zero, then the
 * propagation has terminated and the barrier is complete."
 *
 * The machine keeps one SyncTree over the whole array.  Every
 * mutation is stamped with the simulated tick, and the optional
 * callbacks fire synchronously at the mutation that makes a predicate
 * true, so the controller's detection procedure is timed from the
 * exact tick the barrier completed.
 */

#ifndef SNAP_ARCH_SYNC_TREE_HH
#define SNAP_ARCH_SYNC_TREE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace snap
{

/** Number of tiered propagation levels tracked (paper: "levels of
 *  propagation"); deeper steps saturate into the last tier. */
constexpr std::uint32_t numSyncLevels = 16;

class SyncTree
{
  public:
    explicit SyncTree(std::uint32_t num_clusters)
        : atBarrier_(num_clusters, false),
          idle_(num_clusters, true),
          numIdle_(num_clusters)
    {
        counters_.fill(0);
    }

    /** Saturating tier for a propagation depth. */
    static std::uint8_t
    level(std::uint32_t steps)
    {
        return static_cast<std::uint8_t>(
            steps < numSyncLevels ? steps : numSyncLevels - 1);
    }

    /** A marker message / local continuation was created at tier
     *  @p lvl. */
    void
    created(std::uint8_t lvl, Tick now)
    {
        snap_assert(lvl < numSyncLevels, "bad sync level %u", lvl);
        bump(lvl, +1);
        ++totalCreated_;
        lastMutation_ = now;
    }

    /** A marker message / continuation was fully consumed. */
    void
    consumed(std::uint8_t lvl, Tick now)
    {
        snap_assert(lvl < numSyncLevels, "bad sync level %u", lvl);
        bump(lvl, -1);
        ++totalConsumed_;
        lastMutation_ = now;
        maybeFire();
    }

    /** Cluster @p c reached a BARRIER instruction (or left it). */
    void
    setAtBarrier(ClusterId c, bool at, Tick now)
    {
        if (atBarrier_.at(c) != at) {
            atBarrier_[c] = at;
            numAtBarrier_ += at ? 1 : -1;
            lastMutation_ = now;
        }
        if (at)
            maybeFire();
    }

    /** Cluster @p c's idle line (all units quiescent locally). */
    void
    setIdle(ClusterId c, bool idle, Tick now)
    {
        if (idle_.at(c) != idle) {
            idle_[c] = idle;
            numIdle_ += idle ? 1 : -1;
            lastMutation_ = now;
        }
        if (idle)
            maybeFire();
    }

    /** True when every cluster is at the barrier, idle, and all
     *  tier counters are zero.  O(1): the AND-tree lines and the
     *  nonzero-tier count are maintained incrementally, so the
     *  detection check costs the same regardless of array size. */
    bool
    complete() const
    {
        return numAtBarrier_ == atBarrier_.size() &&
               numIdle_ == idle_.size() && nonzeroLevels_ == 0;
    }

    /** Sum of in-flight work over all tiers. */
    std::int64_t
    inFlight() const
    {
        std::int64_t sum = 0;
        for (std::int64_t v : counters_)
            sum += v;
        return sum;
    }

    std::int64_t counter(std::uint8_t lvl) const
    {
        return counters_.at(lvl);
    }

    /** All clusters idle and all counters drained (ignores the
     *  at-barrier lines) — end-of-program quiescence.  O(1). */
    bool
    quiescent() const
    {
        return numIdle_ == idle_.size() && nonzeroLevels_ == 0;
    }

    /** Tick of the most recent state-changing mutation. */
    Tick lastMutation() const { return lastMutation_; }

    /** Install the completion callback (the machine forwards it to
     *  the controller's detection procedure). */
    void onComplete(std::function<void()> fn)
    {
        onComplete_ = std::move(fn);
    }

    /** Install the quiescence callback (end-of-program drain). */
    void onQuiescent(std::function<void()> fn)
    {
        onQuiescent_ = std::move(fn);
    }

    std::uint64_t totalCreated() const { return totalCreated_; }
    std::uint64_t totalConsumed() const { return totalConsumed_; }

  private:
    void
    bump(std::uint8_t lvl, std::int64_t delta)
    {
        std::int64_t before = counters_[lvl];
        std::int64_t after = before + delta;
        counters_[lvl] = after;
        if (before == 0)
            ++nonzeroLevels_;
        else if (after == 0)
            --nonzeroLevels_;
    }

    void
    maybeFire()
    {
        if (onComplete_ && complete())
            onComplete_();
        if (onQuiescent_ && quiescent())
            onQuiescent_();
    }

    std::array<std::int64_t, numSyncLevels> counters_;
    std::vector<bool> atBarrier_;
    std::vector<bool> idle_;
    /** Maintained aggregates backing the O(1) checks. */
    std::size_t numAtBarrier_ = 0;
    std::size_t numIdle_ = 0;
    std::uint32_t nonzeroLevels_ = 0;
    Tick lastMutation_ = 0;
    std::function<void()> onComplete_;
    std::function<void()> onQuiescent_;
    std::uint64_t totalCreated_ = 0;
    std::uint64_t totalConsumed_ = 0;
};

} // namespace snap

#endif // SNAP_ARCH_SYNC_TREE_HH
