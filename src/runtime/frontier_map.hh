/**
 * @file
 * Flat hash map for propagation frontiers.
 *
 * Profiling the fig17 beta-speedup workload showed two thirds of host
 * time inside the `std::unordered_map<key, std::vector<PropLabel>>`
 * that backs the per-propagation dominance frontier: node-based
 * buckets allocate per insert, and clear() destroys every label
 * vector just to rebuild identical ones next round.
 *
 * FrontierMap is a drop-in replacement for the two operations the
 * simulator actually uses — operator[] and clear():
 *
 *  - open addressing with linear probing over a power-of-two slot
 *    array (one cache line probe instead of a bucket chain);
 *  - epoch-stamped slots: clear() bumps a counter in O(1) and every
 *    slot instantly reads as empty, while the label vectors keep
 *    their heap capacity for reuse;
 *  - no erase — frontiers only grow within an epoch — so probe runs
 *    stay contiguous and lookups need no tombstone handling.
 *
 * Entry iteration order is never observed by the simulator, so the
 * map cannot affect simulated results.
 */

#ifndef SNAP_RUNTIME_FRONTIER_MAP_HH
#define SNAP_RUNTIME_FRONTIER_MAP_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "runtime/propagate.hh"

namespace snap
{

class FrontierMap
{
  public:
    FrontierMap() : slots_(initialCapacity) {}

    /** Label list for @p key, default-constructed on first access. */
    std::vector<PropLabel> &
    operator[](std::uint64_t key)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();

        Slot *s = probe(key);
        if (s->epoch != epoch_) {
            s->key = key;
            s->epoch = epoch_;
            s->labels.clear();
            ++size_;
        }
        return s->labels;
    }

    /** Drop all entries; slot and label capacity are kept. */
    void
    clear()
    {
        ++epoch_;
        size_ = 0;
    }

    std::size_t size() const { return size_; }

  private:
    static constexpr std::size_t initialCapacity = 1024;

    struct Slot
    {
        std::uint64_t key = 0;
        std::uint64_t epoch = 0;  ///< live iff equal to map epoch
        std::vector<PropLabel> labels;
    };

    Slot *
    probe(std::uint64_t key)
    {
        const std::size_t mask = slots_.size() - 1;
        // splitmix64 spreads the packed (prop, node, state) key bits.
        std::size_t i = static_cast<std::size_t>(splitmix64(key)) & mask;
        for (;;) {
            Slot &s = slots_[i];
            if (s.epoch != epoch_ || s.key == key)
                return &s;
            i = (i + 1) & mask;
        }
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.clear();
        slots_.resize(old.size() * 2);
        const std::uint64_t oldEpoch = epoch_;
        epoch_ = 1;
        for (Slot &s : old) {
            if (s.epoch != oldEpoch)
                continue;
            Slot *dst = probe(s.key);
            dst->key = s.key;
            dst->epoch = epoch_;
            dst->labels = std::move(s.labels);
        }
    }

    std::vector<Slot> slots_;
    std::uint64_t epoch_ = 1;
    std::size_t size_ = 0;
};

} // namespace snap

#endif // SNAP_RUNTIME_FRONTIER_MAP_HH
