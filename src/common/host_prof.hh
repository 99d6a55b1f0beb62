/**
 * @file
 * Per-phase host-time profiler for the machine loop.
 *
 * bench/host_perf --profile uses this to answer "where do the host
 * cycles go?" on whole machine runs: the event queue, the dispatch
 * shell and each machine component get their own share, so a change
 * is judged by the phase it moves, not by a microbench of one part.
 *
 * Design constraints:
 *  - Always compiled in, off by default.  When off, a probe costs one
 *    relaxed atomic load and a predictable branch; no clock is read.
 *  - Self-time attribution: nested scopes suspend their parent, so a
 *    phase's time excludes the phases it calls into.
 *  - Thread-safe by construction: all counters are thread_local and
 *    snapshot() reads the calling thread's view.
 *
 * What it cannot see: each probe scope costs two TSC reads and a scope
 * push, about as much as one event-queue schedule or pop, and that
 * cost lands in the phase it times.  So the `queue` and `dispatch`
 * shares are upper bounds.  On table4 the probe profile put the queue
 * at 28.8% of host time, while SIGPROF PC sampling of 300 served
 * parses put it at 18.5%.
 */

#ifndef SNAP_COMMON_HOST_PROF_HH
#define SNAP_COMMON_HOST_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace snap
{

class MetricsRegistry;

namespace hostprof
{

/** Host-time phases of one simulated-event's life. */
enum class Phase : std::uint8_t
{
    Queue = 0,   ///< event queue schedule / pop / head arbitration
    Dispatch,    ///< event dispatch shell (callbacks, bookkeeping)
    Kernels,     ///< MU marker kernels (word ops, row scans, expand)
    Markers,     ///< marker-plane delivery (test/set, frontier admit)
    Icn,         ///< CU service: sends, relays, local delivery
    Sync,        ///< sync-tree mutation + idle-line updates
    Stats,       ///< statistics accumulation and distributions
    Trace,       ///< trace emission and gating
    NumPhases,
};

constexpr std::size_t numPhases =
    static_cast<std::size_t>(Phase::NumPhases);

const char *phaseName(Phase p);

/** Global on/off switch (relaxed: only the profiling run flips it). */
extern std::atomic<bool> g_enabled;

inline bool enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

/** Enable/disable and reset the calling thread's counters. */
void setEnabled(bool on);
void resetThread();

struct Totals
{
    std::uint64_t ns[numPhases] = {};
    std::uint64_t hits[numPhases] = {};
    std::uint64_t totalNs() const
    {
        std::uint64_t s = 0;
        for (auto v : ns)
            s += v;
        return s;
    }
};

/** The calling thread's accumulated per-phase self-time. */
Totals snapshot();

/** Formatted table of @p t (phase, self-ns, hits, share). */
std::string format(const Totals &t);

/** Export @p t as snap_host_phase_ns_total{phase="queue"|...}, one
 *  counter sample of self-time nanoseconds per phase. */
void exportMetrics(const Totals &t, MetricsRegistry &reg);

namespace detail
{

struct ThreadState
{
    /** Accumulated self-time in nowRaw() units (converted to ns at
     *  snapshot time). */
    std::uint64_t ns[numPhases] = {};
    std::uint64_t hits[numPhases] = {};
    /** Innermost open scope (for self-time suspension). */
    struct Scope *top = nullptr;
};

extern thread_local ThreadState tls;

/**
 * Raw timestamp for probes.  On x86-64 this is rdtsc, not a clock:
 * a steady_clock read costs ~85 ns, which is on the order of the
 * phases being measured — clock-based probes inflated a 14 ms
 * machine run to ~70 ms and made the shares fiction.  rdtsc is a
 * handful of cycles and constant-rate on every host this targets.
 * The raw units are calibrated back to nanoseconds in snapshot()
 * against an (rdtsc, steady_clock) anchor pair taken at
 * setEnabled(true); probes never pay the conversion.
 */
inline std::uint64_t
nowRaw()
{
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/** RAII probe.  Opening a scope suspends the enclosing one, so each
 *  phase accumulates self-time only. */
struct Scope
{
    explicit Scope(Phase p)
    {
        if (!hostprof::enabled()) [[likely]]
            return;
        live = true;
        phase = static_cast<std::size_t>(p);
        auto &t = tls;
        const std::uint64_t now = nowRaw();
        parent = t.top;
        if (parent)
            t.ns[parent->phase] += now - parent->openedAt;
        openedAt = now;
        t.top = this;
        ++t.hits[phase];
    }

    ~Scope()
    {
        if (!live) [[likely]]
            return;
        auto &t = tls;
        const std::uint64_t now = nowRaw();
        t.ns[phase] += now - openedAt;
        t.top = parent;
        if (parent)
            parent->openedAt = now;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    bool live = false;
    std::size_t phase = 0;
    std::uint64_t openedAt = 0;
    Scope *parent = nullptr;
};

} // namespace detail

using detail::Scope;

} // namespace hostprof
} // namespace snap

#endif // SNAP_COMMON_HOST_PROF_HH
