#include "serve/answer_cache.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/wire_format.hh"
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

/** @p to - @p from in 32-bit wrapping arithmetic, as a zigzag
 *  varint: a step of a few ids either way takes one byte. */
void
putStep(WireWriter &w, NodeId from, NodeId to)
{
    const auto d = static_cast<std::int32_t>(to - from);
    w.varint((static_cast<std::uint32_t>(d) << 1) ^
             static_cast<std::uint32_t>(d >> 31));
}

NodeId
getStep(WireReader &r, NodeId from)
{
    const auto z = static_cast<std::uint32_t>(r.varint());
    return from + ((z >> 1) ^ (0u - (z & 1)));
}

/** The answer part of an entry's record. */
void
encodeAnswer(WireWriter &w, const ResultSet &results, Tick wall_ticks)
{
    w.u64(wall_ticks);
    w.u32(static_cast<std::uint32_t>(results.size()));
    for (const CollectResult &cr : results) {
        w.u8(static_cast<std::uint8_t>(cr.op));
        w.u8(cr.marker);
        w.u8(cr.color);
        w.u16(cr.rel);
        w.u32(static_cast<std::uint32_t>(cr.nodes.size()));
        NodeId prev = 0;
        for (const CollectedNode &n : cr.nodes) {
            putStep(w, prev, n.node);
            putStep(w, n.node, n.origin);
            w.f32(n.value);
            prev = n.node;
        }
        w.u32(static_cast<std::uint32_t>(cr.links.size()));
        for (const CollectedLink &l : cr.links) {
            w.u32(l.src);
            w.u16(l.rel);
            w.u32(l.dst);
            w.f32(l.weight);
        }
    }
}

/** Decode what encodeAnswer wrote into @p results / @p wall_ticks;
 *  false if the bytes are not exactly one answer. */
bool
decodeAnswer(WireReader &r, ResultSet &results, Tick &wall_ticks)
{
    wall_ticks = r.u64();
    // A result's header is 13 bytes, a node at least 6 (two one-byte
    // steps and the value) and a link 14.
    results.assign(r.count(13), CollectResult{});
    for (CollectResult &cr : results) {
        cr.op = static_cast<Opcode>(r.u8());
        cr.marker = r.u8();
        cr.color = r.u8();
        cr.rel = r.u16();
        cr.nodes.resize(r.count(6));
        NodeId prev = 0;
        for (CollectedNode &n : cr.nodes) {
            n.node = getStep(r, prev);
            n.origin = getStep(r, n.node);
            n.value = r.f32();
            prev = n.node;
        }
        cr.links.resize(r.count(14));
        for (CollectedLink &l : cr.links) {
            l.src = r.u32();
            l.rel = r.u16();
            l.dst = r.u32();
            l.weight = r.f32();
        }
    }
    return r.done();
}

} // namespace

AnswerCache::AnswerCache(std::size_t budget_bytes)
    : budget_(budget_bytes), filter_(kFilterSlots, 0)
{
}

std::size_t
AnswerCache::charge(std::size_t record_bytes)
{
    return sizeof(Entry) + kBookkeepingBytes + record_bytes;
}

AnswerCache::Lru::iterator
AnswerCache::find(const Program &prog, std::uint64_t hash,
                  std::vector<std::uint8_t> &bytes)
{
    auto [lo, hi] = index_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
        if (bytes.empty())
            bytes = programBytes(prog);
        const Entry &e = *it->second;
        if (e.programBytes == bytes.size() &&
            std::equal(bytes.begin(), bytes.end(), e.record.begin()))
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

unsigned
AnswerCache::frequency(std::uint64_t hash) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return estimate(hash);
}

bool
AnswerCache::get(const Program &prog, std::uint64_t hash,
                 ResultSet &results, Tick &wall_ticks, bool count_miss)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint8_t> bytes;
    auto it = find(prog, hash, bytes);
    if (it == lru_.end()) {
        if (count_miss) {
            record(hash);
            ++stats_.misses;
        }
        return false;
    }
    record(hash);
    lru_.splice(lru_.begin(), lru_, it);
    WireReader r(it->record.data() + it->programBytes,
                 it->record.size() - it->programBytes);
    const bool decoded = decodeAnswer(r, results, wall_ticks);
    snap_assert(decoded, "answer cache: an entry's record does not "
                         "decode");
    ++stats_.hits;
    return true;
}

bool
AnswerCache::lookup(const Program &prog, std::uint64_t hash,
                    ResultSet &results, Tick &wall_ticks)
{
    return get(prog, hash, results, wall_ticks, true);
}

bool
AnswerCache::probe(const Program &prog, std::uint64_t hash,
                   ResultSet &results, Tick &wall_ticks)
{
    return get(prog, hash, results, wall_ticks, false);
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
        held -= charge(it->record.size());
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
    WireWriter answer;
    encodeAnswer(answer, results, wall_ticks);
    if (!admits(hash, charge(answer.size())))
        return;
    if (bytes.empty())
        bytes = programBytes(prog);
    const std::size_t cost = charge(bytes.size() + answer.size());
    if (!admits(hash, cost))
        return;
    while (stats_.bytes + cost > budget_)
        evictOldest();
    Entry e;
    e.hash = hash;
    e.record.reserve(bytes.size() + answer.size());
    e.record.assign(bytes.begin(), bytes.end());
    e.record.insert(e.record.end(), answer.bytes().begin(),
                    answer.bytes().end());
    e.programBytes = static_cast<std::uint32_t>(bytes.size());
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
    stats_.bytes -= charge(victim->record.size());
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
