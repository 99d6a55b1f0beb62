/**
 * @file
 * snaptrace: low-overhead tracing of simulated-time and host-time
 * spans, serialized as Chrome trace-event JSON (Perfetto-loadable).
 *
 * Design constraints:
 *  - Always compiled, off by default.  The disabled fast path is one
 *    relaxed atomic load plus a predicted-not-taken branch
 *    (SNAP_TRACE_ON), so trace-off runs stay bit-identical and within
 *    noise on host_perf.
 *  - Two clock domains in one file: simulated ticks (picoseconds,
 *    rendered as microseconds) and host wall time (steady_clock
 *    nanoseconds since the trace epoch).  Each domain gets its own
 *    Chrome "process" so Perfetto never mixes the time bases on one
 *    track.
 *  - Events land in per-thread ring buffers (registered lazily,
 *    drop-oldest when full); nothing on the record path takes a lock
 *    after a thread's first event.
 *  - Host-time serve spans are linked to simulated-time machine runs
 *    by flow arrows ('s'/'f' pairs): the submitter arms a flow id in
 *    thread-local state and the machine's run span consumes it.
 */

#ifndef SNAP_TRACE_TRACE_HH
#define SNAP_TRACE_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace snap
{
namespace trace
{

/** Category bitmask. Events are recorded only when their category
 *  bit is set in the active mask. */
enum Category : std::uint32_t
{
    kInstr   = 1u << 0,  ///< instruction phases per InstrCategory
    kCluster = 1u << 1,  ///< per-cluster MU busy spans
    kIcn     = 1u << 2,  ///< CU hop batches on the marker ICN
    kSync    = 1u << 3,  ///< barrier / sync-tree epochs
    kSem     = 1u << 4,  ///< semaphore waits at marker delivery
    kFault   = 1u << 5,  ///< fault inject / detect / repair
    kMachine = 1u << 6,  ///< whole machine.run spans (flow targets)
    kServe   = 1u << 7,  ///< host-time serve request lifecycle
    kAllCategories = (1u << 8) - 1,
};

/** One trace event.  POD; `name` must point at a string with
 *  static storage duration (it is not copied). */
struct Event
{
    std::uint64_t ts = 0;       ///< sim ticks (ps) or host ns
    std::uint64_t dur = 0;      ///< 'X' spans only, same unit as ts
    std::uint64_t id = 0;       ///< flow / async id ('s','f','b','e')
    std::uint64_t arg = 0;      ///< numeric payload, emitted as "v"
    const char *name = nullptr;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint32_t cat = 0;
    char ph = 'i';              ///< Chrome phase: B E X i s f b e
    bool host = false;          ///< host-ns clock (else sim ticks)
    bool hasArg = false;
};

/** Global category mask; zero means tracing is off. Read on every
 *  potential record site, hence inline + relaxed. */
extern std::atomic<std::uint32_t> g_mask;

inline bool
enabledFor(std::uint32_t cat)
{
    return (g_mask.load(std::memory_order_relaxed) & cat) != 0;
}

/** The one-branch guard. Use as: if (SNAP_TRACE_ON(kIcn)) {...} */
#define SNAP_TRACE_ON(cat) \
    __builtin_expect(::snap::trace::enabledFor(cat), 0)

/** Start collecting events for categories in `mask`; (re)initializes
 *  the buffer registry. `perThreadCapacity` bounds each thread's ring
 *  (drop-oldest beyond that). */
void start(std::uint32_t mask,
           std::size_t perThreadCapacity = 1u << 16);

/** Stop collecting (mask -> 0). Buffered events remain readable. */
void stop();

/** Drop all buffered events and track names; implies stop(). */
void reset();

bool active();

/** Record one event into the calling thread's ring buffer. The
 *  caller must have checked SNAP_TRACE_ON first. */
void record(const Event &ev);

/** Host nanoseconds since the trace epoch (set by start()). */
std::uint64_t hostNowNs();

/** Fresh process-unique flow id (never 0). */
std::uint64_t nextFlowId();

/** Arm `id` as the pending flow for this thread; the next
 *  flow-consuming span (machine.run) emits the matching 'f'. */
void armFlow(std::uint64_t id);

/** Take and clear this thread's armed flow id (0 if none). */
std::uint64_t takeArmedFlow();

/** Register a human-readable name for a (pid) process or (pid, tid)
 *  track; emitted as Chrome metadata events. Idempotent; cold path. */
void nameProcess(std::uint32_t pid, const std::string &name);
void nameTrack(std::uint32_t pid, std::uint32_t tid,
               const std::string &name);

/** Attach a key/value string to the trace document, emitted under
 *  "otherData" by writeJson.  The fleet layer uses it to publish the
 *  per-shard clock offsets (`clock_sync`) that `snaptrace merge`
 *  needs to align process timelines.  Cold path; cleared by
 *  reset(). */
void setMeta(const std::string &key, const std::string &value);

/** Serialize everything buffered so far as Chrome trace-event JSON
 *  ({"traceEvents": [...], ...}). */
void writeJson(std::ostream &os);

/** writeJson to `path`; false (with a warning) on I/O failure. */
bool writeJsonFile(const std::string &path);

/** Copy of all buffered events, in per-thread registration order.
 *  For tests and the in-process report path. */
std::vector<Event> snapshotEvents();

/** Total events overwritten by drop-oldest since start(). */
std::uint64_t droppedCount();

/** Parse a comma-separated category list ("instr,icn,serve" or
 *  "all") into a mask; false on an unknown name. */
bool parseCategories(const std::string &spec, std::uint32_t &mask);

/** "instr,cluster,icn,sync,sem,fault,machine,serve" */
std::string categoryNames();

/** Label for the lowest set category bit (for JSON "cat"). */
const char *categoryLabel(std::uint32_t cat);

// ---------------------------------------------------------------
// Track numbering scheme (shared by instrumentation and the JSON
// writer). Host domain is Chrome pid 1; each simulated machine is
// pid kSimPidBase + traceDomain.
// ---------------------------------------------------------------
constexpr std::uint32_t kHostPid = 1;
constexpr std::uint32_t kSimPidBase = 10;

constexpr std::uint32_t kTidAdmission = 1;    // host domain
constexpr std::uint32_t tidWorker(std::uint32_t w) { return 10 + w; }

constexpr std::uint32_t kTidMachine = 0;      // sim domain
constexpr std::uint32_t kTidScp = 1;
constexpr std::uint32_t tidInstr(std::uint32_t cat) { return 2 + cat; }
constexpr std::uint32_t tidCluster(std::uint32_t c) { return 100 + c; }
constexpr std::uint32_t tidCu(std::uint32_t c) { return 200 + c; }
constexpr std::uint32_t tidSem(std::uint32_t c) { return 300 + c; }

// Fleet tracks (host domain).  The router puts each shard link's
// rpc.attempt lifecycles on its own track; a shard server puts
// inbound rpc.serve spans on one rpc track per connection.
constexpr std::uint32_t tidShardLink(std::uint32_t s) { return 400 + s; }
constexpr std::uint32_t tidRpcConn(std::uint32_t c) { return 500 + c; }

// ---------------------------------------------------------------
// Thin inline emitters. All of them assume the caller already
// checked SNAP_TRACE_ON for the category.
// ---------------------------------------------------------------

inline void
simBegin(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid,
         const char *name, Tick now)
{
    Event ev;
    ev.ts = now; ev.name = name;
    ev.pid = pid; ev.tid = tid; ev.cat = cat; ev.ph = 'B';
    record(ev);
}

inline void
simEnd(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid,
       const char *name, Tick now)
{
    Event ev;
    ev.ts = now; ev.name = name;
    ev.pid = pid; ev.tid = tid; ev.cat = cat; ev.ph = 'E';
    record(ev);
}

inline void
simSpan(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid,
        const char *name, Tick start, Tick end)
{
    Event ev;
    ev.ts = start; ev.dur = end - start; ev.name = name;
    ev.pid = pid; ev.tid = tid; ev.cat = cat; ev.ph = 'X';
    record(ev);
}

inline void
simInstant(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid,
           const char *name, Tick now)
{
    Event ev;
    ev.ts = now; ev.name = name;
    ev.pid = pid; ev.tid = tid; ev.cat = cat; ev.ph = 'i';
    record(ev);
}

inline void
simInstantArg(std::uint32_t cat, std::uint32_t pid,
              std::uint32_t tid, const char *name, Tick now,
              std::uint64_t arg)
{
    Event ev;
    ev.ts = now; ev.name = name; ev.arg = arg; ev.hasArg = true;
    ev.pid = pid; ev.tid = tid; ev.cat = cat; ev.ph = 'i';
    record(ev);
}

/** Flow finish ('f', bp=e): binds an armed host-side flow to a
 *  simulated-time span at `now`. */
inline void
simFlowEnd(std::uint32_t cat, std::uint32_t pid, std::uint32_t tid,
           std::uint64_t id, Tick now)
{
    Event ev;
    ev.ts = now; ev.id = id; ev.name = "req";
    ev.pid = pid; ev.tid = tid; ev.cat = cat; ev.ph = 'f';
    record(ev);
}

inline void
hostSpan(std::uint32_t cat, std::uint32_t tid, const char *name,
         std::uint64_t startNs, std::uint64_t endNs)
{
    Event ev;
    ev.ts = startNs; ev.dur = endNs - startNs; ev.name = name;
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 'X';
    ev.host = true;
    record(ev);
}

inline void
hostSpanArg(std::uint32_t cat, std::uint32_t tid, const char *name,
            std::uint64_t startNs, std::uint64_t endNs,
            std::uint64_t arg)
{
    Event ev;
    ev.ts = startNs; ev.dur = endNs - startNs; ev.name = name;
    ev.arg = arg; ev.hasArg = true;
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 'X';
    ev.host = true;
    record(ev);
}

inline void
hostInstant(std::uint32_t cat, std::uint32_t tid, const char *name,
            std::uint64_t arg = 0, bool hasArg = false)
{
    Event ev;
    ev.ts = hostNowNs(); ev.name = name;
    ev.arg = arg; ev.hasArg = hasArg;
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 'i';
    ev.host = true;
    record(ev);
}

/** Flow start ('s') anchored at host time `ns`. */
inline void
hostFlowStart(std::uint32_t cat, std::uint32_t tid,
              std::uint64_t id, std::uint64_t ns)
{
    Event ev;
    ev.ts = ns; ev.id = id; ev.name = "req";
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 's';
    ev.host = true;
    record(ev);
}

/** Flow start ('s') with a caller-chosen name.  The fleet layer
 *  names its cross-process arrows "xrpc" so `snaptrace merge` can
 *  tell them apart from in-process "req" flows and keep their ids
 *  stable across the pid re-namespacing. */
inline void
hostFlowStartNamed(std::uint32_t cat, std::uint32_t tid,
                   const char *name, std::uint64_t id,
                   std::uint64_t ns)
{
    Event ev;
    ev.ts = ns; ev.id = id; ev.name = name;
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 's';
    ev.host = true;
    record(ev);
}

/** Flow finish ('f', bp=e) on the host clock with a caller-chosen
 *  name; the receiving half of an "xrpc" arrow. */
inline void
hostFlowEndNamed(std::uint32_t cat, std::uint32_t tid,
                 const char *name, std::uint64_t id,
                 std::uint64_t ns)
{
    Event ev;
    ev.ts = ns; ev.id = id; ev.name = name;
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 'f';
    ev.host = true;
    record(ev);
}

/** Async nestable begin/end ('b'/'e') for overlapping request
 *  lifecycles on the admission track. */
inline void
hostAsyncBegin(std::uint32_t cat, std::uint32_t tid,
               const char *name, std::uint64_t id)
{
    Event ev;
    ev.ts = hostNowNs(); ev.id = id; ev.name = name;
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 'b';
    ev.host = true;
    record(ev);
}

inline void
hostAsyncEnd(std::uint32_t cat, std::uint32_t tid,
             const char *name, std::uint64_t id)
{
    Event ev;
    ev.ts = hostNowNs(); ev.id = id; ev.name = name;
    ev.pid = kHostPid; ev.tid = tid; ev.cat = cat; ev.ph = 'e';
    ev.host = true;
    record(ev);
}

} // namespace trace
} // namespace snap

#endif // SNAP_TRACE_TRACE_HH
