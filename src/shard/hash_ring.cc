#include "shard/hash_ring.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace snap
{
namespace shard
{

HashRing::HashRing(std::uint32_t num_shards, std::uint32_t vnodes)
    : numShards_(num_shards)
{
    snap_assert(num_shards >= 1, "HashRing needs >= 1 shard");
    snap_assert(vnodes >= 1, "HashRing needs >= 1 vnode per shard");
    points_.reserve(static_cast<std::size_t>(num_shards) * vnodes);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
        for (std::uint32_t v = 0; v < vnodes; ++v) {
            // splitmix64 scatters (shard, vnode) pairs uniformly even
            // though they are tiny consecutive integers.
            const std::uint64_t h =
                splitmix64((static_cast<std::uint64_t>(s) << 32) | v);
            points_.push_back(Point{h, s});
        }
    }
    std::sort(points_.begin(), points_.end(),
              [](const Point &a, const Point &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  // 64-bit collisions across points are vanishingly
                  // rare but must still order deterministically.
                  return a.shard < b.shard;
              });
}

std::uint32_t
HashRing::owner(std::uint64_t key) const
{
    const std::uint64_t h = splitmix64(key);
    auto it = std::lower_bound(
        points_.begin(), points_.end(), h,
        [](const Point &p, std::uint64_t v) { return p.hash < v; });
    if (it == points_.end())
        it = points_.begin();
    return it->shard;
}

std::uint32_t
HashRing::ownerSkipping(std::uint64_t key,
                        const std::vector<bool> &down) const
{
    const std::uint64_t h = splitmix64(key);
    auto start = std::lower_bound(
        points_.begin(), points_.end(), h,
        [](const Point &p, std::uint64_t v) { return p.hash < v; });
    if (start == points_.end())
        start = points_.begin();
    auto it = start;
    do {
        const std::uint32_t s = it->shard;
        if (s >= down.size() || !down[s])
            return s;
        ++it;
        if (it == points_.end())
            it = points_.begin();
    } while (it != start);
    return start->shard;
}

std::vector<std::uint32_t>
HashRing::owners(std::uint64_t key, std::uint32_t r) const
{
    const std::uint32_t want = std::min(r, numShards_);
    std::vector<std::uint32_t> out;
    out.reserve(want);
    const std::uint64_t h = splitmix64(key);
    auto start = std::lower_bound(
        points_.begin(), points_.end(), h,
        [](const Point &p, std::uint64_t v) { return p.hash < v; });
    if (start == points_.end())
        start = points_.begin();
    auto it = start;
    do {
        const std::uint32_t s = it->shard;
        if (std::find(out.begin(), out.end(), s) == out.end()) {
            out.push_back(s);
            if (out.size() == want)
                break;
        }
        ++it;
        if (it == points_.end())
            it = points_.begin();
    } while (it != start);
    return out;
}

} // namespace shard
} // namespace snap
