/**
 * @file
 * The load generator: one thread drives the router in either an open
 * loop (queries due on a fixed schedule, latency timed from the due
 * time, so a stall is charged to every query it delays) or a closed
 * loop (a fixed number of queries outstanding, for capacity).
 *
 * Stateless workloads send one router request per query.  The session
 * workload sends a sentence as a router session: the parse turn, then
 * the cancel rounds ParseResolver asks for, each built and submitted
 * from the generator thread once the previous turn is answered.
 */

#ifndef FLEETBENCH_LOADGEN_HH
#define FLEETBENCH_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "shard/protocol.hh"
#include "shard/router.hh"

#include "common.hh"
#include "workloads.hh"

namespace fleetbench
{

/** One answered router request (a query or one session turn). */
struct TurnSample
{
    /** Host ms from the request's start (its due time for the first
     *  request of an open-loop query) to the router's callback. */
    double e2eMs = 0.0;
    double queueMs = 0.0;
    double serviceMs = 0.0;
    /** Host ms the submit() call blocked. */
    double submitMs = 0.0;
};

/** A span recorded by the benchmark around its calls into the fleet.
 *  Spans of one query share its id. */
struct Span
{
    std::uint64_t query = 0;
    const char *name = "";
    Clock::time_point begin;
    Clock::time_point end;
};

struct PhaseStats
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    /** Failed, rejected, timed-out or hung queries. */
    std::uint64_t failed = 0;
    std::uint64_t wrong = 0;

    /** Per completed query (due/start to final answer). */
    std::vector<double> latencyMs;
    /** Open loop: generator lateness behind schedule. */
    std::vector<double> lagMs;
    std::vector<TurnSample> turns;

    std::uint64_t retries = 0;
    std::uint64_t faultsDetected = 0;
    std::uint64_t sessionTurns = 0;
    std::uint64_t statelessRuns = 0;
    std::uint64_t distinctRuns = 0;
    /** Ground-truth DES events of the queries answered Ok. */
    std::uint64_t events = 0;

    /** Closed loop: completion times (seconds from the phase start) of
     *  the queries answered Ok inside the measured window, and the
     *  window's length. */
    std::vector<double> doneS;
    double windowS = 0.0;
    /** Closed loop: every input of a unique workload's pool was sent
     *  before the time was up (the run is void). */
    bool poolExhausted = false;

    /** Up to a few hundred real response frames (codec samples). */
    std::vector<snap::shard::ResponseFrame> responseSamples;
};

struct Phase
{
    bool open = true;
    /** Closed loop: measured seconds. */
    double seconds = 0.0;
    /** Range of query numbers to send (see Workload). */
    std::size_t begin = 0;
    std::size_t end = 0;
    /** Outstanding queries (closed loop). */
    std::uint32_t window = 1;
};

/** Run one phase against @p router, then solve the ground truth of
 *  the queries it sent and check every answer.  Spans go to @p spans
 *  when non-null.  @p seen marks programs already run (by index),
 *  across phases, for the share of first-time stateless runs. */
PhaseStats runPhase(Workload &wl, snap::shard::ShardRouter &router,
                    const Phase &phase, std::vector<Span> *spans,
                    std::vector<bool> &seen);

/** Write @p spans as a Chrome trace-event JSON file. */
bool writeSpans(const std::vector<Span> &spans, const std::string &path);

} // namespace fleetbench

#endif // FLEETBENCH_LOADGEN_HH
