/**
 * @file
 * Per-session marker state with submission-order execution.
 *
 * A session is a sequence of queries sharing marker state — the
 * serving analogue of the applications that "issue multiple programs
 * against persistent marker state" (the parser's per-sentence
 * programs, host-driven resolution loops).  State is kept in the
 * runtime/snapshot layer's currency: a flat MarkerStore over global
 * node ids, so a session is partition-independent and can be served
 * by any replica (and checkpointed to disk with saveMarkersFile()).
 *
 * Ordering protocol: submitters call admit() (under the engine's
 * admission lock) to draw a per-session sequence number; the worker
 * that dequeues the request calls awaitTurn() before touching the
 * session, then either complete() (publishing the post-run state) or
 * cancel() (timeout/rejection — state unchanged, the sequence hole
 * is skipped so successors are never deadlocked).
 */

#ifndef SNAP_SERVE_SESSION_STORE_HH
#define SNAP_SERVE_SESSION_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "runtime/marker_store.hh"

namespace snap
{
namespace serve
{

class SessionStore
{
  public:
    /** @p num_nodes sizes each new session's marker state (must
     *  match the served knowledge base). */
    explicit SessionStore(std::uint32_t num_nodes)
        : numNodes_(num_nodes)
    {}

    /** Draw the next sequence number of session @p id (creating the
     *  session on first use).  Call under the engine admission lock
     *  so sequence order matches queue order. */
    std::uint64_t admit(const std::string &id);

    /** Block until every predecessor of @p seq has completed or been
     *  cancelled. */
    void awaitTurn(const std::string &id, std::uint64_t seq);

    /** Copy out the session's current marker state.  Only valid for
     *  the holder of the current turn. */
    MarkerStore fetch(const std::string &id) const;

    /** Non-asserting fetch: false when the session does not exist.
     *  Used by the migration pull path, where "no such session yet"
     *  is a normal answer, not a protocol error. */
    bool tryFetch(const std::string &id, MarkerStore &out) const;

    /** Create-or-overwrite a session's marker state from a
     *  checkpoint (drain migration / warm-backup replication onto
     *  this replica).  Turn bookkeeping is preserved for an existing
     *  session and starts fresh for a new one. */
    void restore(const std::string &id, MarkerStore state);

    /** Publish the post-run state of turn @p seq and pass the turn
     *  on. */
    void complete(const std::string &id, std::uint64_t seq,
                  MarkerStore state);

    /** Give up turn @p seq without running (admission reject or
     *  queue-wait timeout); state is unchanged. */
    void cancel(const std::string &id, std::uint64_t seq);

    std::size_t numSessions() const;

    /** Session ids in lexicographic order (checkpoint dumps). */
    std::vector<std::string> sessionIds() const;

  private:
    struct State
    {
        explicit State(std::uint32_t num_nodes)
            : markers(num_nodes)
        {}
        std::uint64_t submitSeq = 0;
        std::uint64_t doneSeq = 0;
        /** Cancelled turns not yet reached by doneSeq. */
        std::set<std::uint64_t> cancelled;
        MarkerStore markers;
    };

    /** Advance doneSeq over contiguous cancelled turns (caller holds
     *  mu_). */
    static void skipCancelled(State &s);

    State &stateOf(const std::string &id);

    mutable std::mutex mu_;
    std::condition_variable turn_;
    std::map<std::string, State> sessions_;
    std::uint32_t numNodes_;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_SESSION_STORE_HH
