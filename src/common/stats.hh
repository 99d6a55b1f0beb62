/**
 * @file
 * Running distributions for the SNAP-1 model.
 *
 * The paper (§II-B "Performance") describes an integrated measurement
 * system for evaluating marker-propagation algorithms, partitioning
 * functions, communication traffic, and synchronization protocols.
 * Components accumulate their samples in a Distribution; what they
 * report leaves through their exportMetrics() into the one
 * MetricsRegistry (common/metrics_registry.hh).
 */

#ifndef SNAP_COMMON_STATS_HH
#define SNAP_COMMON_STATS_HH

#include <cstdint>
#include <limits>

namespace snap
{
namespace stats
{

/** Running distribution: count, sum, min, max, mean. */
class Distribution
{
  public:
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0; }
    double max() const { return count_ ? max_ : 0; }

    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /** Pool another distribution's samples into this one. */
    void
    merge(const Distribution &other)
    {
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.count_) {
            if (other.min_ < min_)
                min_ = other.min_;
            if (other.max_ > max_)
                max_ = other.max_;
        }
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace stats
} // namespace snap

#endif // SNAP_COMMON_STATS_HH
