/**
 * @file
 * The request files snapserve and snaprouter read, and the canonical
 * answers they write for serving-equivalence checks.
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
#include <map>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "kb/semantic_network.hh"
#include "runtime/results.hh"
#include "serve/request.hh"

namespace snap
{
namespace shard
{

/** One request-file line. */
struct RequestSpec
{
    /** Empty = stateless. */
    std::string sessionId;
    /** Resolved against the request file's directory. */
    std::string progPath;
};

/** A request file's requests, in file order, and their programs. */
struct RequestFile
{
    std::vector<RequestSpec> specs;
    /** Each distinct program, assembled once, keyed by progPath. */
    std::map<std::string, Program> progs;
};

/**
 * Read the request file at @p path (`query <prog>` or
 * `session <id> <prog>` per line, '#' comments) and assemble each
 * distinct program once against @p net.  Assembly interns symbols
 * into @p net, so call this before any other thread uses it.  An
 * unreadable, malformed or empty file, or a program the assembler
 * refuses, is refused: false, with the reason in @p err.
 */
bool loadRequestFile(const std::string &path, SemanticNetwork &net,
                     RequestFile &out, std::string &err);

/** Append one request's canonical answer block to @p os.  Node and
 *  relation ids are printed as names so the text is stable across
 *  processes that interned symbols in different orders. */
void writeAnswer(std::ostream &os, const SemanticNetwork &net,
                 std::size_t index, const std::string &sessionId,
                 serve::RequestStatus status, const ResultSet &results);

} // namespace shard
} // namespace snap

#endif // SNAP_SHARD_ANSWERS_HH
