#include "serve/answer_cache.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "isa/encoding.hh"

namespace snap
{
namespace serve
{

namespace
{

/** Per-entry cost of the LRU list node and the index node. */
constexpr std::size_t kBookkeepingBytes = 64;

/** Filter slot of @p hash.  The low bits of an FNV-1a digest depend
 *  only on the low bits of the data fed in, so the slot is taken from
 *  the top bits of a multiplicative mix instead. */
std::size_t
filterSlot(std::uint64_t hash)
{
    static_assert(AnswerCache::kFilterSlots == std::size_t{1} << 12,
                  "filterSlot takes 12 bits");
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ull) >> 52);
}

std::size_t
answerBytes(const ResultSet &results)
{
    std::size_t n = results.capacity() * sizeof(CollectResult);
    for (const CollectResult &r : results) {
        n += r.nodes.capacity() * sizeof(CollectedNode) +
             r.links.capacity() * sizeof(CollectedLink);
    }
    return n;
}

} // namespace

AnswerCache::AnswerCache(std::size_t budget_bytes)
    : budget_(budget_bytes), filter_(kFilterSlots, 0)
{
}

AnswerCache::Key
AnswerCache::keyOf(const Program &prog, std::uint64_t hash)
{
    WireWriter w;
    encodeProgram(w, prog);
    return Key{hash, w.take()};
}

AnswerCache::Lru::iterator
AnswerCache::find(const Key &key)
{
    auto [lo, hi] = index_.equal_range(key.hash);
    for (auto it = lo; it != hi; ++it)
        if (it->second->key.bytes == key.bytes)
            return it->second;
    return lru_.end();
}

bool
AnswerCache::lookup(const Key &key, ResultSet &results,
                    Tick &wall_ticks)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = find(key);
    if (it == lru_.end()) {
        ++stats_.misses;
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it);
    results = it->results;
    wall_ticks = it->wallTicks;
    ++stats_.hits;
    return true;
}

void
AnswerCache::insert(Key key, const ResultSet &results, Tick wall_ticks)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t &seen = filter_[filterSlot(key.hash)];
    if (seen != key.hash) {
        seen = key.hash;
        return;
    }
    if (find(key) != lru_.end())
        return;  // another worker's run of the same program got here
    key.bytes.shrink_to_fit();
    Entry e;
    e.key = std::move(key);
    e.results = results;
    e.wallTicks = wall_ticks;
    e.bytes = sizeof(Entry) + kBookkeepingBytes +
              e.key.bytes.capacity() + answerBytes(e.results);
    if (e.bytes > budget_)
        return;
    while (stats_.bytes + e.bytes > budget_)
        evictOldest();
    stats_.bytes += e.bytes;
    lru_.push_front(std::move(e));
    index_.emplace(lru_.front().key.hash, lru_.begin());
    ++stats_.admitted;
}

void
AnswerCache::evictOldest()
{
    auto victim = std::prev(lru_.end());
    auto [lo, hi] = index_.equal_range(victim->key.hash);
    for (auto it = lo; it != hi; ++it) {
        if (it->second == victim) {
            index_.erase(it);
            break;
        }
    }
    stats_.bytes -= victim->bytes;
    lru_.erase(victim);
    ++stats_.evictions;
}

void
AnswerCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    std::fill(filter_.begin(), filter_.end(), 0);
    stats_.bytes = 0;
}

AnswerCache::Stats
AnswerCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = lru_.size();
    return s;
}

} // namespace serve
} // namespace snap
