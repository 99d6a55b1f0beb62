/**
 * @file
 * Request/response records of the snapserve query-serving engine.
 *
 * A request is one SNAP program to execute against the shared
 * knowledge base.  Stateless requests (empty sessionId) run against
 * cleared marker state so the answer — results *and* simulated
 * wallTicks — depends only on the program, never on which worker
 * serves it or what ran before.  Session requests carry marker state
 * across a session's queries (see serve/session_store.hh) and are
 * executed in submission order.
 */

#ifndef SNAP_SERVE_REQUEST_HH
#define SNAP_SERVE_REQUEST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/program.hh"
#include "runtime/results.hh"

namespace snap
{
namespace serve
{

/** Terminal state of one request. */
enum class RequestStatus
{
    /** Executed; results are valid. */
    Ok,
    /** Refused at admission: the bounded queue was full (back-
     *  pressure) or the engine was shutting down. */
    Rejected,
    /** Deadline expired before execution started; never ran. */
    TimedOut,
    /**
     * Executed, but every attempt (initial + retries) tripped fault
     * detection — a wedge, a watchdog abort, or an integrity-check
     * failure.  No possibly-corrupt results are ever attached; the
     * results field is empty.
     */
    Failed,
};

const char *requestStatusName(RequestStatus s);

/**
 * Deterministic per-request seed: splitmix64 over the engine base
 * seed and the request id.  Reproducible regardless of submission
 * threading or worker scheduling, so any stochastic choice keyed on
 * it (e.g. a load generator picking query start nodes) replays
 * identically.
 */
std::uint64_t requestSeed(std::uint64_t base_seed,
                          std::uint64_t request_id);

/**
 * One query: the record a client hands to the engine, and the one the
 * shard wire carries from the router to a replica (shard::RequestFrame
 * is this type).
 */
struct Request
{
    /**
     * Assigned by the admitting side: on the wire, the router's wire
     * id (echoed in the response); inside a shard, the engine's own
     * id, assigned at admission in submission order.
     */
    std::uint64_t id = 0;
    /** Empty = stateless; otherwise queries with the same id share
     *  marker state and execute in submission order. */
    std::string sessionId;
    /** The program to execute (pre-assembled; assembly mutates the
     *  SemanticNetwork symbol tables and is therefore done on the
     *  submission side, not by workers). */
    Program prog;
    /**
     * Queue-wait deadline in host milliseconds from submission;
     * 0 = use the engine default (which may also be 0 = none).  A
     * request whose deadline passes before execution starts is
     * answered TimedOut without running; execution itself is never
     * preempted.
     */
    double timeoutMs = 0.0;
    /** Per-request seed; 0 = derive via requestSeed() at admission. */
    std::uint64_t rngSeed = 0;
    /** Distributed-trace context (shard mode): the fleet trace id and
     *  the router-side span id of the specific attempt (hedged
     *  duplicates and failover reroutes each get their own), the
     *  anchor for the shard's cross-process "xrpc" flow arrow.
     *  0/false outside a sampled fleet request (the wire then carries
     *  zeros); never affects execution, only what the serve spans
     *  are stamped with.  The router sets these; it ignores what a
     *  caller put there. */
    std::uint64_t traceId = 0;
    std::uint64_t traceParent = 0;
    bool traceSampled = false;
};

/** The engine's answer to one request; also the Response frame
 *  payload (shard::ResponseFrame is this type). */
struct Response
{
    /** The request's id (the wire id on the wire). */
    std::uint64_t id = 0;
    RequestStatus status = RequestStatus::Ok;
    /** Retrieval results in program order (status Ok only). */
    ResultSet results;
    /** Simulated execution time on the SNAP-1 replica. */
    Tick wallTicks = 0;
    /** Seed the request ran under (echoed for reproduction). */
    std::uint64_t rngSeed = 0;
    /** Host milliseconds spent queued (admission to execution). */
    double queueMs = 0.0;
    /** Host milliseconds spent executing on the replica. */
    double serviceMs = 0.0;
    /** Worker replica that served the request. */
    std::uint32_t worker = 0;
    /** Re-executions needed after detected faults (0 = clean first
     *  try).  Ok with retries > 0 means the engine recovered. */
    std::uint32_t retries = 0;
    /** At least one attempt tripped fault detection. */
    bool faultDetected = false;

    double wallUs() const { return ticksToUs(wallTicks); }
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_REQUEST_HH
