/**
 * @file
 * MetricsRegistry: the one metrics export path.
 *
 * Producers (SnapMachine's components, ExecBreakdown,
 * serve::ServeMetrics, the logger) push (name, kind, value, labels)
 * samples; the registry alone renders them, as structured JSON or
 * Prometheus text exposition format.  It deliberately holds no live
 * references — each export is a point-in-time snapshot assembled by
 * the owning subsystems' exportMetrics() methods, so there is no
 * locking protocol to get wrong.
 */

#ifndef SNAP_COMMON_METRICS_REGISTRY_HH
#define SNAP_COMMON_METRICS_REGISTRY_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace snap
{

class MetricsRegistry
{
  public:
    enum class Kind { Counter, Gauge };

    using Labels = std::vector<std::pair<std::string, std::string>>;

    struct Sample
    {
        std::string name;
        std::string help;
        Kind kind = Kind::Counter;
        Labels labels;
        double value = 0.0;
    };

    /** Append one sample. `name` is sanitized to the Prometheus
     *  charset ([a-zA-Z_:][a-zA-Z0-9_:]*) on export; pass
     *  snake_case to avoid surprises. */
    void add(const std::string &name, Kind kind, double value,
             const std::string &help = "", Labels labels = {});

    void
    counter(const std::string &name, double value,
            const std::string &help = "", Labels labels = {})
    {
        add(name, Kind::Counter, value, help, std::move(labels));
    }

    void
    gauge(const std::string &name, double value,
          const std::string &help = "", Labels labels = {})
    {
        add(name, Kind::Gauge, value, help, std::move(labels));
    }

    std::size_t size() const { return samples_.size(); }

    /** Point-in-time sample list, in insertion order.  The shard
     *  wire layer serializes this directly into a StatsSnapshot
     *  frame; the router re-adds the samples into its aggregated
     *  fleet registry with a shard label appended. */
    const std::vector<Sample> &samples() const { return samples_; }

    /** {"metrics": [{"name":..., "kind":..., "labels":{...},
     *  "value":...}, ...]} */
    void writeJson(std::ostream &os) const;

    /** Prometheus text exposition format: one # HELP / # TYPE pair
     *  per metric name (samples grouped by name), then the samples
     *  with label sets. */
    void writePrometheus(std::ostream &os) const;

    /** Map arbitrary stat names ("icn.hops", "p99-ms") into the
     *  Prometheus name charset. */
    static std::string sanitizeName(const std::string &name);

    /** Like sanitizeName but for label keys, whose Prometheus
     *  charset excludes ':' ([a-zA-Z_][a-zA-Z0-9_]*). */
    static std::string sanitizeLabelName(const std::string &name);

  private:
    std::vector<Sample> samples_;
};

} // namespace snap

#endif // SNAP_COMMON_METRICS_REGISTRY_HH
