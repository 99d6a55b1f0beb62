#include "serve/metrics.hh"

namespace snap
{
namespace serve
{

namespace
{

void
histMetrics(MetricsRegistry &reg, const std::string &base,
            const Histogram &h, const char *help,
            const MetricsRegistry::Labels &labels)
{
    reg.counter(base + "_count", static_cast<double>(h.count()),
                help, labels);
    reg.counter(base + "_sum", h.sum(), help, labels);
    reg.gauge(base + "_min", h.min(), help, labels);
    reg.gauge(base + "_max", h.max(), help, labels);
    reg.gauge(base + "_p50", h.quantile(0.50), help, labels);
    reg.gauge(base + "_p95", h.quantile(0.95), help, labels);
    reg.gauge(base + "_p99", h.quantile(0.99), help, labels);
}

} // namespace

void
MetricsSnapshot::exportMetrics(MetricsRegistry &reg,
                               MetricsRegistry::Labels labels) const
{
    auto cnt = [&](const char *name, std::uint64_t v,
                   const char *help) {
        reg.counter(name, static_cast<double>(v), help, labels);
    };
    auto gau = [&](const char *name, double v, const char *help) {
        reg.gauge(name, v, help, labels);
    };

    cnt("snap_serve_submitted_total", submitted,
        "Requests admitted (including rejected and shed)");
    cnt("snap_serve_completed_total", completed,
        "Requests answered Ok");
    cnt("snap_serve_rejected_total", rejected,
        "Requests rejected at admission (backpressure)");
    cnt("snap_serve_timed_out_total", timedOut,
        "Requests expired before service");
    cnt("snap_serve_faults_detected_total", faultsDetected,
        "Run attempts that tripped fault detection");
    cnt("snap_serve_wedges_total", wedges,
        "Detected faults that wedged the machine");
    cnt("snap_serve_retries_total", retries,
        "Re-execution attempts after detected faults");
    cnt("snap_serve_recovered_total", recovered,
        "Requests answered Ok after >= 1 retry");
    cnt("snap_serve_failed_total", failed,
        "Requests answered Failed (retry budget exhausted)");
    cnt("snap_serve_shed_total", shed,
        "Stateless requests shed during a fault storm");
    cnt("snap_serve_quarantines_total", quarantines,
        "Replica quarantines (re-stamped from master)");
    cnt("snap_serve_image_swaps_total", imageSwaps,
        "Knowledge-image hot-swaps applied (epoch flips)");
    cnt("snap_serve_answer_cache_hits_total", answerCache.hits,
        "Stateless requests answered from the answer cache");
    cnt("snap_serve_answer_cache_misses_total", answerCache.misses,
        "Answer-cache lookups that ran the program");
    cnt("snap_serve_answer_cache_admitted_total", answerCache.admitted,
        "Answers admitted to the cache (second clean run)");
    cnt("snap_serve_answer_cache_evictions_total",
        answerCache.evictions,
        "Answers evicted least-recently-used under the byte budget");
    cnt("snap_serve_answer_cache_rejected_total", answerCache.rejected,
        "Admissions refused: an entry to evict was as frequent");
    gau("snap_serve_answer_cache_bytes",
        static_cast<double>(answerCache.bytes),
        "Bytes held by the answer cache");
    gau("snap_serve_answer_cache_entries",
        static_cast<double>(answerCache.entries),
        "Answers held by the answer cache");

    gau("snap_serve_queue_depth", static_cast<double>(queueDepth),
        "Admission queue depth at snapshot time");
    gau("snap_serve_queue_high_water",
        static_cast<double>(queueHighWater),
        "Admission queue high-water mark");
    gau("snap_serve_queue_capacity",
        static_cast<double>(queueCapacity),
        "Admission queue capacity");
    gau("snap_serve_uptime_seconds", uptimeSec,
        "Host seconds since engine start");
    gau("snap_serve_throughput_qps", throughputQps(),
        "Completed requests per host second");
    gau("snap_serve_sim_makespan_us",
        ticksToUs(simMakespanTicks()),
        "Simulated makespan of the replica farm");

    histMetrics(reg, "snap_serve_queue_wait_ms", queueWaitMs,
                "Queue wait latency (host ms)", labels);
    histMetrics(reg, "snap_serve_service_ms", serviceMs,
                "Service latency (host ms)", labels);
    histMetrics(reg, "snap_serve_total_ms", totalMs,
                "End-to-end latency (host ms)", labels);
    histMetrics(reg, "snap_serve_sim_us", simUs,
                "Simulated execution time (us)", labels);

    for (std::size_t i = 0; i < workers.size(); ++i) {
        MetricsRegistry::Labels wl = labels;
        wl.emplace_back("worker", std::to_string(i));
        reg.counter("snap_serve_worker_served_total",
                    static_cast<double>(workers[i].served),
                    "Requests served by this worker", wl);
        reg.counter("snap_serve_worker_busy_sim_ticks",
                    static_cast<double>(workers[i].busyTicks),
                    "Simulated busy ticks of this worker's replica",
                    wl);
        reg.gauge("snap_serve_worker_busy_host_ms",
                  workers[i].busyMs,
                  "Host milliseconds this worker spent executing",
                  wl);
    }
}

} // namespace serve
} // namespace snap
