/**
 * @file
 * Canonical answer serialization for serving-equivalence checks.
 *
 * snapserve --answers-out and snaprouter --answers-out both write
 * this format, so "router + N shards returns the same answers as one
 * process" is a plain `diff`.  Only what the client would consider
 * the *answer* is included — request status and collected results by
 * symbolic name — never timing, worker ids, or whether the answer
 * came from the cache, which legitimately differ between deployments
 * of the same knowledge.
 */

#ifndef SNAP_SHARD_ANSWERS_HH
#define SNAP_SHARD_ANSWERS_HH

#include <cstddef>
#include <iosfwd>
#include <string>

#include "kb/semantic_network.hh"
#include "runtime/results.hh"
#include "serve/request.hh"

namespace snap
{
namespace shard
{

/** Append one request's canonical answer block to @p os.  Node and
 *  relation ids are printed as names so the text is stable across
 *  processes that interned symbols in different orders. */
void writeAnswer(std::ostream &os, const SemanticNetwork &net,
                 std::size_t index, const std::string &sessionId,
                 serve::RequestStatus status, const ResultSet &results);

} // namespace shard
} // namespace snap

#endif // SNAP_SHARD_ANSWERS_HH
