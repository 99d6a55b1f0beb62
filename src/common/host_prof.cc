#include "common/host_prof.hh"

#include <cinttypes>
#include <cstdio>

#include "common/metrics_registry.hh"

namespace snap
{
namespace hostprof
{

std::atomic<bool> g_enabled{false};

namespace detail
{
thread_local ThreadState tls;
} // namespace detail

namespace
{
/** Calibration anchors: nowRaw() and steady_clock sampled together
 *  at setEnabled(true).  snapshot() derives raw-units-per-ns from a
 *  second pair, so reported ns stay honest whatever nowRaw() is. */
std::uint64_t g_anchorRaw = 0;
std::uint64_t g_anchorClockNs = 0;

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}
} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Queue: return "queue";
      case Phase::Dispatch: return "dispatch";
      case Phase::Kernels: return "kernels";
      case Phase::Markers: return "markers";
      case Phase::Icn: return "icn";
      case Phase::Sync: return "sync";
      case Phase::Stats: return "stats";
      case Phase::Trace: return "trace";
      default: return "?";
    }
}

void
setEnabled(bool on)
{
    if (on) {
        g_anchorRaw = detail::nowRaw();
        g_anchorClockNs = steadyNs();
    }
    g_enabled.store(on, std::memory_order_relaxed);
}

void
resetThread()
{
    auto &t = detail::tls;
    for (std::size_t i = 0; i < numPhases; ++i) {
        t.ns[i] = 0;
        t.hits[i] = 0;
    }
}

Totals
snapshot()
{
    // Convert accumulated raw units to nanoseconds using the
    // elapsed (raw, clock) deltas since setEnabled(true).  The
    // profiled run spans that whole interval, so the ratio is
    // measured over a long-enough window to be stable.
    const std::uint64_t rawSpan = detail::nowRaw() - g_anchorRaw;
    const std::uint64_t nsSpan = steadyNs() - g_anchorClockNs;
    const double toNs =
        (rawSpan && nsSpan)
            ? static_cast<double>(nsSpan) / static_cast<double>(rawSpan)
            : 1.0;
    Totals out;
    const auto &t = detail::tls;
    for (std::size_t i = 0; i < numPhases; ++i) {
        out.ns[i] = static_cast<std::uint64_t>(
            static_cast<double>(t.ns[i]) * toNs);
        out.hits[i] = t.hits[i];
    }
    return out;
}

std::string
format(const Totals &t)
{
    const double total =
        static_cast<double>(t.totalNs() ? t.totalNs() : 1);
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-10s %12s %12s %7s\n",
                  "phase", "self_ms", "hits", "share");
    out += line;
    for (std::size_t i = 0; i < numPhases; ++i) {
        std::snprintf(line, sizeof(line),
                      "%-10s %12.2f %12" PRIu64 " %6.1f%%\n",
                      phaseName(static_cast<Phase>(i)),
                      static_cast<double>(t.ns[i]) / 1e6, t.hits[i],
                      100.0 * static_cast<double>(t.ns[i]) / total);
        out += line;
    }
    return out;
}

void
exportMetrics(const Totals &t, MetricsRegistry &reg)
{
    for (std::size_t i = 0; i < numPhases; ++i) {
        const char *phase = phaseName(static_cast<Phase>(i));
        reg.counter("snap_host_phase_ns_total",
                    static_cast<double>(t.ns[i]),
                    "Host self-time per phase of the profiled run (ns)",
                    {{"phase", phase}});
    }
}

} // namespace hostprof
} // namespace snap
