/**
 * @file
 * AnswerCache: exact memoization of stateless answers.
 *
 * A stateless request runs a pure program against cleared marker
 * state on a replica stamped from the engine's master image, so its
 * answer — results *and* simulated wallTicks — is a function of the
 * program and the image alone (docs/serving.md, guarantee 1).  The
 * engine keeps the answers it has already produced for the current
 * image here and hands them back without running a replica.
 *
 * An entry is one byte record: the program's codec bytes, then the
 * answer in compact form.  The answer keeps wallTicks and each
 * result's header and links as the wire has them; each collected node
 * is a zigzag varint of its id's step from the previous node's, one
 * of its origin's step from its own id (both in 32-bit wrapping
 * arithmetic, so invalidNode is a short step back) and the value's 4
 * raw bytes.  A hit decodes it bit for bit.  A sentence parse's entry
 * costs about 2.5 KB of the budget.
 *
 * Exactness: a hit requires the stored program bytes to equal the
 * request's.  The bytes are the program codec's (isa/encoding.hh),
 * which cover every field Program::contentHash covers (floats by bit
 * pattern, rule names excluded) and are injective, so equal bytes
 * mean equal programs; the 64-bit hash only picks the bucket.
 * Neither an accidental collision nor a crafted program can return
 * another program's answer.  A program is encoded only when a stored
 * entry shares its hash or it is admitted, so a miss on a hash the
 * cache does not hold costs no encode.  What may be stored is the
 * caller's contract: the engine inserts only Ok runs in which no
 * fault was injected, and clears the cache whenever the image
 * changes.
 *
 * Admission (TinyLFU: Einziger, Friedman & Manes, ACM TOS 2017):
 *  - a direct-mapped filter of content hashes, the doorkeeper,
 *    remembers first sightings, so a program is offered for admission
 *    on its second clean run and a stream that never repeats admits
 *    nothing;
 *  - a count-min sketch (4 rows of kSketchSlots saturating 4-bit
 *    counters, one byte each) estimates how often each hash was
 *    looked up lately; every counter halves after each kSketchSlots
 *    lookups;
 *  - while the budget has room the newcomer is admitted; otherwise it
 *    must be estimated strictly more frequent than every
 *    least-recently-used entry it would evict, or it is refused and
 *    nothing is evicted.  Ties keep the incumbent, so a scan of
 *    programs seen twice cannot flush a hot set.
 *
 * Thread-safe: one mutex guards everything; a hit decodes the answer
 * out under it.
 */

#ifndef SNAP_SERVE_ANSWER_CACHE_HH
#define SNAP_SERVE_ANSWER_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"
#include "runtime/results.hh"

namespace snap
{
namespace serve
{

class AnswerCache
{
  public:
    /** Byte budget of one engine's cache. */
    static constexpr std::size_t kBudgetBytes = 512 * 1024;
    /** Slots of the first-sighting filter. */
    static constexpr std::size_t kFilterSlots = 4096;
    /** Counters per sketch row, and the lookups after which every
     *  counter halves. */
    static constexpr std::size_t kSketchSlots = 4096;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t admitted = 0;
        std::uint64_t evictions = 0;
        /** Newcomers refused because an entry they would evict was
         *  at least as frequent (first sightings are not counted). */
        std::uint64_t rejected = 0;
        std::size_t bytes = 0;
        std::size_t entries = 0;
    };

    explicit AnswerCache(std::size_t budget_bytes = kBudgetBytes);

    AnswerCache(const AnswerCache &) = delete;
    AnswerCache &operator=(const AnswerCache &) = delete;

    /** Look @p prog up under bucket @p hash (the engine passes
     *  Program::contentHash).  On a hit, decode the stored answer
     *  into @p results / @p wall_ticks and return true; a miss
     *  returns false.  Either way the outcome is counted and the
     *  lookup is recorded in the frequency sketch. */
    bool lookup(const Program &prog, std::uint64_t hash,
                ResultSet &results, Tick &wall_ticks);

    /** lookup() that counts and records only a hit.  The engine
     *  probes at admission and looks a missed request up again on
     *  its worker, so each request is counted and recorded once. */
    bool probe(const Program &prog, std::uint64_t hash,
               ResultSet &results, Tick &wall_ticks);

    /**
     * Offer a clean run's answer to @p prog (the caller looked it up
     * first).  The first offer of a hash only marks it in the filter;
     * a later one admits the entry if it fits the free budget or
     * out-counts every least-recently-used entry it would evict.  An
     * answer larger than the whole budget is never stored.
     */
    void insert(const Program &prog, std::uint64_t hash,
                const ResultSet &results, Tick wall_ticks);

    /** Drop every entry, the filter and the sketch (the image
     *  changed).  The counters keep running. */
    void clear();

    Stats stats() const;

    /** The sketch's estimate of how often @p hash was looked up
     *  lately, 0 to 15. */
    unsigned frequency(std::uint64_t hash) const;

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        /** The program's codec bytes, which a hit must match, then
         *  the answer in compact form. */
        std::vector<std::uint8_t> record;
        std::uint32_t programBytes = 0;
    };
    using Lru = std::list<Entry>;

    /** The entry holding @p prog, or lru_.end().  @p bytes receives
     *  @p prog's codec bytes if an entry shares @p hash (it stays
     *  empty otherwise). */
    Lru::iterator find(const Program &prog, std::uint64_t hash,
                       std::vector<std::uint8_t> &bytes);
    bool get(const Program &prog, std::uint64_t hash,
             ResultSet &results, Tick &wall_ticks, bool count_miss);
    /** What an entry whose record holds @p record_bytes is charged
     *  against the budget. */
    static std::size_t charge(std::size_t record_bytes);
    /** Whether @p cost more bytes for @p hash fit the budget and
     *  out-count the entries that would be evicted; a refusal by
     *  frequency is counted. */
    bool admits(std::uint64_t hash, std::size_t cost);
    void record(std::uint64_t hash);
    unsigned estimate(std::uint64_t hash) const;
    void evictOldest();

    const std::size_t budget_;
    mutable std::mutex mu_;
    /** Most recently used first. */
    Lru lru_;
    std::unordered_multimap<std::uint64_t, Lru::iterator> index_;
    /** Hash of the last clean run seen per slot. */
    std::vector<std::uint64_t> filter_;
    /** The sketch's rows of kSketchSlots counters, one after the
     *  other (empty until the first lookup). */
    std::vector<std::uint8_t> sketch_;
    /** Lookups recorded since the counters last halved. */
    std::size_t samples_ = 0;
    Stats stats_;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_ANSWER_CACHE_HH
