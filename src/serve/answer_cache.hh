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
 * Exactness: a hit requires the stored program bytes to equal the
 * request's.  The bytes are the program codec's (isa/encoding.hh),
 * which cover every field Program::contentHash covers (floats by bit
 * pattern, rule names excluded) and are injective, so equal bytes
 * mean equal programs; the 64-bit hash only picks the bucket.
 * Neither an accidental collision nor a crafted program can return
 * another program's answer.  What may be stored is the caller's contract: the
 * engine inserts only Ok runs in which no fault was injected, and
 * clears the cache whenever the image changes.
 *
 * Admission and eviction: a program is admitted on its second clean
 * run — a direct-mapped filter of content hashes remembers first
 * sightings, so a stream that never repeats admits nothing.  Entries
 * are evicted least-recently-used under one byte budget.
 *
 * Thread-safe: one mutex guards everything; a hit copies the answer
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

    /** A program's cache identity: the bucket hash (the engine passes
     *  Program::contentHash) and the canonical bytes a hit must
     *  match. */
    struct Key
    {
        std::uint64_t hash = 0;
        std::vector<std::uint8_t> bytes;
    };

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t admitted = 0;
        std::uint64_t evictions = 0;
        std::size_t bytes = 0;
        std::size_t entries = 0;
    };

    explicit AnswerCache(std::size_t budget_bytes = kBudgetBytes);

    AnswerCache(const AnswerCache &) = delete;
    AnswerCache &operator=(const AnswerCache &) = delete;

    /** @p prog's key under bucket @p hash: its program codec bytes
     *  (encodeProgram), about 1.2 KB for a sentence parse. */
    static Key keyOf(const Program &prog, std::uint64_t hash);

    /** On a hit, copy the stored answer into @p results /
     *  @p wall_ticks and return true; a miss returns false.  Either
     *  way the outcome is counted. */
    bool lookup(const Key &key, ResultSet &results, Tick &wall_ticks);

    /**
     * Offer a clean run's answer.  The first offer of a hash only
     * marks it in the filter; a later one admits the entry, evicting
     * least-recently-used entries to stay within the budget.  An
     * answer larger than the whole budget is never stored.
     */
    void insert(Key key, const ResultSet &results, Tick wall_ticks);

    /** Drop every entry and the filter (the image changed).  The
     *  counters keep running. */
    void clear();

    Stats stats() const;

  private:
    struct Entry
    {
        Key key;
        ResultSet results;
        Tick wallTicks = 0;
        std::size_t bytes = 0;
    };
    using Lru = std::list<Entry>;

    /** The entry holding @p key, or lru_.end(). */
    Lru::iterator find(const Key &key);
    void evictOldest();

    const std::size_t budget_;
    mutable std::mutex mu_;
    /** Most recently used first. */
    Lru lru_;
    std::unordered_multimap<std::uint64_t, Lru::iterator> index_;
    /** Hash of the last clean run seen per slot. */
    std::vector<std::uint64_t> filter_;
    Stats stats_;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_ANSWER_CACHE_HH
