#include "serve/answer_cache.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/rng.hh"
#include "isa/encoding.hh"

namespace snap
{
namespace serve
{

namespace
{

/** Per-entry cost of the LRU list node and the index node. */
constexpr std::size_t kBookkeepingBytes = 64;
/** Rows of the frequency sketch, and a counter's ceiling (4 bits). */
constexpr std::size_t kSketchRows = 4;
constexpr std::uint8_t kCounterMax = 15;

static_assert(AnswerCache::kFilterSlots == std::size_t{1} << 12 &&
                  AnswerCache::kSketchSlots == std::size_t{1} << 12,
              "filterSlot and sketchIndex take 12 bits");

/** Filter slot of @p hash.  The low bits of an FNV-1a digest depend
 *  only on the low bits of the data fed in, so the slot is taken from
 *  the top bits of a multiplicative mix instead. */
std::size_t
filterSlot(std::uint64_t hash)
{
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ull) >> 52);
}

/** Index of @p hash's counter in sketch row @p row: its slot is the
 *  top bits of one mix per row, for the reason given at filterSlot. */
std::size_t
sketchIndex(std::uint64_t hash, std::size_t row)
{
    return row * AnswerCache::kSketchSlots +
           static_cast<std::size_t>(splitmix64(hash + row) >> 52);
}

std::vector<std::uint8_t>
programBytes(const Program &prog)
{
    WireWriter w;
    encodeProgram(w, prog);
    return w.take();
}

/** Heap bytes of a stored copy of @p results (a copy holds no spare
 *  capacity). */
std::size_t
answerBytes(const ResultSet &results)
{
    std::size_t n = results.size() * sizeof(CollectResult);
    for (const CollectResult &r : results) {
        n += r.nodes.size() * sizeof(CollectedNode) +
             r.links.size() * sizeof(CollectedLink);
    }
    return n;
}

} // namespace

AnswerCache::AnswerCache(std::size_t budget_bytes)
    : budget_(budget_bytes), filter_(kFilterSlots, 0)
{
}

AnswerCache::Lru::iterator
AnswerCache::find(const Program &prog, std::uint64_t hash,
                  std::vector<std::uint8_t> &bytes)
{
    auto [lo, hi] = index_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
        if (bytes.empty())
            bytes = programBytes(prog);
        if (it->second->program == bytes)
            return it->second;
    }
    return lru_.end();
}

void
AnswerCache::record(std::uint64_t hash)
{
    // Allocated on the first lookup: an engine that serves only
    // sessions never needs it.
    if (sketch_.empty())
        sketch_.assign(kSketchRows * kSketchSlots, 0);
    for (std::size_t row = 0; row < kSketchRows; ++row) {
        std::uint8_t &c = sketch_[sketchIndex(hash, row)];
        if (c < kCounterMax)
            ++c;
    }
    if (++samples_ == kSketchSlots) {
        for (std::uint8_t &c : sketch_)
            c >>= 1;
        samples_ = 0;
    }
}

unsigned
AnswerCache::estimate(std::uint64_t hash) const
{
    if (sketch_.empty())
        return 0;
    unsigned f = kCounterMax;
    for (std::size_t row = 0; row < kSketchRows; ++row)
        f = std::min<unsigned>(f, sketch_[sketchIndex(hash, row)]);
    return f;
}

bool
AnswerCache::lookup(const Program &prog, std::uint64_t hash,
                    ResultSet &results, Tick &wall_ticks)
{
    std::lock_guard<std::mutex> lock(mu_);
    record(hash);
    std::vector<std::uint8_t> bytes;
    auto it = find(prog, hash, bytes);
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

bool
AnswerCache::admits(std::uint64_t hash, std::size_t cost)
{
    if (cost > budget_)
        return false;
    const unsigned freq = estimate(hash);
    std::size_t held = stats_.bytes;
    for (auto it = lru_.rbegin(); held + cost > budget_; ++it) {
        if (estimate(it->hash) >= freq) {
            ++stats_.rejected;
            return false;
        }
        held -= it->bytes;
    }
    return true;
}

void
AnswerCache::insert(const Program &prog, std::uint64_t hash,
                    const ResultSet &results, Tick wall_ticks)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t &seen = filter_[filterSlot(hash)];
    if (seen != hash) {
        seen = hash;
        return;
    }
    std::vector<std::uint8_t> bytes;
    if (find(prog, hash, bytes) != lru_.end())
        return;  // another worker's run of the same program got here
    // The cost without the program's bytes settles most refusals, so
    // a refused newcomer is seldom encoded.
    std::size_t cost =
        sizeof(Entry) + kBookkeepingBytes + answerBytes(results);
    if (!admits(hash, cost))
        return;
    if (bytes.empty())
        bytes = programBytes(prog);
    cost += bytes.size();
    if (!admits(hash, cost))
        return;
    while (stats_.bytes + cost > budget_)
        evictOldest();
    Entry e;
    e.hash = hash;
    e.program = std::move(bytes);
    e.program.shrink_to_fit();
    e.results = results;
    e.wallTicks = wall_ticks;
    e.bytes = cost;
    stats_.bytes += cost;
    lru_.push_front(std::move(e));
    index_.emplace(hash, lru_.begin());
    ++stats_.admitted;
}

void
AnswerCache::evictOldest()
{
    auto victim = std::prev(lru_.end());
    auto [lo, hi] = index_.equal_range(victim->hash);
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
    std::fill(sketch_.begin(), sketch_.end(), 0);
    samples_ = 0;
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
