/**
 * @file
 * Consistent-hash ring for request -> shard placement.
 *
 * Each shard contributes `vnodes` virtual points hashed onto a 64-bit
 * ring; a key is served by the first point clockwise from its hash.
 * Virtual points smooth the load split (with 64 points per shard the
 * imbalance across 4 shards stays within a few percent), and
 * consistency bounds movement: adding or removing one shard remaps
 * only the keys that land on its points, not the whole key space —
 * which is what keeps session pinning stable across shard-set edits.
 *
 * Keys: stateless requests hash Program::contentHash (same query
 * text -> same shard -> same answer cache), sessions hash the
 * session id (every query of a session must reach the marker state
 * it accumulated).  The ring itself is key-agnostic: it maps u64 ->
 * shard index.
 */

#ifndef SNAP_SHARD_HASH_RING_HH
#define SNAP_SHARD_HASH_RING_HH

#include <cstdint>
#include <vector>

namespace snap
{
namespace shard
{

class HashRing
{
  public:
    /** @param num_shards shards 0..num_shards-1 all join the ring
     *  @param vnodes virtual points per shard */
    explicit HashRing(std::uint32_t num_shards,
                      std::uint32_t vnodes = 64);

    std::uint32_t numShards() const { return numShards_; }

    /** Owner of @p key: first ring point clockwise from hash(key). */
    std::uint32_t owner(std::uint64_t key) const;

    /**
     * Owner after skipping shards marked unavailable in @p down
     * (indexed by shard, true = skip).  Walks clockwise, so keys of a
     * down shard spill over to the next points — the stateless
     * retry-on-other-shard path.  Returns owner(key) when every
     * shard is down (the caller then reports, rather than spins).
     */
    std::uint32_t ownerSkipping(std::uint64_t key,
                                const std::vector<bool> &down) const;

    /**
     * The first min(@p r, numShards()) *distinct* shards clockwise
     * from hash(key): owners[0] is owner(key) (the primary), the
     * rest are the replica set in ring order.  Replication R >= 2
     * keys every range to this set; consistency keeps it stable
     * across shard-set edits just like owner().
     */
    std::vector<std::uint32_t> owners(std::uint64_t key,
                                      std::uint32_t r) const;

  private:
    struct Point
    {
        std::uint64_t hash;
        std::uint32_t shard;
    };

    std::uint32_t numShards_;
    /** Sorted by hash; lookup is a binary search + wrap. */
    std::vector<Point> points_;
};

} // namespace shard
} // namespace snap

#endif // SNAP_SHARD_HASH_RING_HH
