/**
 * @file
 * Serving observability: counters, gauges, latency histograms.
 *
 * The serving-layer analogue of the machine model's "integrated
 * measurement system" (§II-B): every request's queue wait, service
 * time, end-to-end latency (host milliseconds), and simulated
 * execution time feed log-bucketed histograms; admission outcomes
 * feed counters; the queue reports depth/high-water gauges.  A
 * snapshot leaves the process only through the MetricsRegistry
 * (exportMetrics), as JSON or Prometheus text.
 *
 * Recording is mutex-serialized — one short critical section per
 * request completion, negligible next to a multi-millisecond
 * machine-model run.
 */

#ifndef SNAP_SERVE_METRICS_HH
#define SNAP_SERVE_METRICS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/metrics_registry.hh"
#include "common/types.hh"
#include "serve/answer_cache.hh"

namespace snap
{
namespace serve
{

/** Per-worker serving tallies. */
struct WorkerStats
{
    /** Requests this worker answered (a hit answered at admission is
     *  no worker's). */
    std::uint64_t served = 0;
    /** Simulated machine time spent executing (sum of wallTicks of
     *  the runs this replica made; answer-cache hits add none). */
    Tick busyTicks = 0;
    /** Host milliseconds spent executing. */
    double busyMs = 0.0;
};

/** Point-in-time copy of every serving metric. */
struct MetricsSnapshot
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timedOut = 0;

    // --- robustness (all zero unless fault injection is armed) ---------
    /** Run attempts that tripped fault detection (integrity mismatch,
     *  wedge, or simulated-time watchdog). */
    std::uint64_t faultsDetected = 0;
    /** Subset of faultsDetected where the machine wedged or the
     *  watchdog fired (vs a caught-but-completed corruption). */
    std::uint64_t wedges = 0;
    /** Re-execution attempts issued after detected faults. */
    std::uint64_t retries = 0;
    /** Requests answered Ok only after >= 1 retry. */
    std::uint64_t recovered = 0;
    /** Requests answered Failed (retry budget exhausted). */
    std::uint64_t failed = 0;
    /** Stateless requests shed at admission during a fault storm. */
    std::uint64_t shed = 0;
    /** Replica quarantines (re-stamped from the master image). */
    std::uint64_t quarantines = 0;
    /** Knowledge-image hot-swaps applied (epoch flips). */
    std::uint64_t imageSwaps = 0;

    std::size_t queueDepth = 0;
    std::size_t queueHighWater = 0;
    std::size_t queueCapacity = 0;

    /** Host wall-clock seconds since the engine started. */
    double uptimeSec = 0.0;

    Histogram queueWaitMs;
    Histogram serviceMs;
    Histogram totalMs;
    Histogram simUs;

    std::vector<WorkerStats> workers;

    /** The engine's answer cache (filled in by the engine, which owns
     *  the cache). */
    AnswerCache::Stats answerCache;

    /** Completed requests per host wall-clock second. */
    double
    throughputQps() const
    {
        return uptimeSec > 0.0
                   ? static_cast<double>(completed) / uptimeSec
                   : 0.0;
    }

    /** Longest per-replica simulated busy time: the makespan of the
     *  simulated machine farm under the actual assignment. */
    Tick
    simMakespanTicks() const
    {
        Tick makespan = 0;
        for (const WorkerStats &w : workers)
            if (w.busyTicks > makespan)
                makespan = w.busyTicks;
        return makespan;
    }

    /** Push every serving counter, queue gauge, histogram summary,
     *  and per-worker tally into the unified MetricsRegistry under
     *  the snap_serve_* prefix; `labels` is applied to each sample. */
    void exportMetrics(MetricsRegistry &reg,
                       MetricsRegistry::Labels labels = {}) const;
};

/** Shared recording surface for the engine's workers. */
class ServeMetrics
{
  public:
    explicit ServeMetrics(std::uint32_t num_workers)
    {
        m_.workers.resize(num_workers);
    }

    void
    noteSubmitted()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.submitted;
    }

    void
    noteRejected()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.submitted;
        ++m_.rejected;
    }

    void
    noteTimedOut(double queue_ms)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.timedOut;
        m_.queueWaitMs.record(queue_ms);
    }

    /**
     * One request answered Ok with an answer of @p sim_ticks simulated
     * time.  @p executed is false for an answer-cache hit: the replica
     * ran nothing, so its simulated busy time takes none of it.
     */
    void
    noteCompleted(std::uint32_t worker, double queue_ms,
                  double service_ms, Tick sim_ticks,
                  bool executed = true)
    {
        std::lock_guard<std::mutex> lock(mu_);
        recordOk(queue_ms, service_ms, sim_ticks);
        WorkerStats &w = m_.workers.at(worker);
        ++w.served;
        if (executed)
            w.busyTicks += sim_ticks;
        w.busyMs += service_ms;
    }

    /** One request admitted and answered at admission from the
     *  answer cache: it waited in no queue and no worker served
     *  it. */
    void
    noteAnsweredAtAdmission(double service_ms, Tick sim_ticks)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.submitted;
        recordOk(0.0, service_ms, sim_ticks);
    }

    /** One run attempt tripped fault detection. */
    void
    noteFaultDetected(bool wedged)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.faultsDetected;
        if (wedged)
            ++m_.wedges;
    }

    void
    noteRetry()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.retries;
    }

    /** Request answered Ok after at least one retry. */
    void
    noteRecovered()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.recovered;
    }

    /** Retry budget exhausted; request answered Failed. */
    void
    noteFailed(double queue_ms)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.failed;
        m_.queueWaitMs.record(queue_ms);
    }

    /** Stateless request shed at admission under a fault storm. */
    void
    noteShed()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.submitted;
        ++m_.shed;
    }

    /** Replica quarantined and re-stamped from the master image. */
    void
    noteQuarantine()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.quarantines;
    }

    /** One knowledge-image hot-swap (epoch flip) was applied. */
    void
    noteImageSwap()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++m_.imageSwaps;
    }

    /** Copy everything out; queue gauges and uptime are supplied by
     *  the engine (it owns the queue and the start timestamp). */
    MetricsSnapshot
    snapshot(std::size_t queue_depth, std::size_t queue_high_water,
             std::size_t queue_capacity, double uptime_sec) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        MetricsSnapshot s = m_;
        s.queueDepth = queue_depth;
        s.queueHighWater = queue_high_water;
        s.queueCapacity = queue_capacity;
        s.uptimeSec = uptime_sec;
        return s;
    }

  private:
    void
    recordOk(double queue_ms, double service_ms, Tick sim_ticks)
    {
        ++m_.completed;
        m_.queueWaitMs.record(queue_ms);
        m_.serviceMs.record(service_ms);
        m_.totalMs.record(queue_ms + service_ms);
        m_.simUs.record(ticksToUs(sim_ticks));
    }

    mutable std::mutex mu_;
    /** The counters, histograms and per-worker tallies; the queue
     *  gauges, uptime and answer-cache stats stay zero here. */
    MetricsSnapshot m_;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_METRICS_HH
