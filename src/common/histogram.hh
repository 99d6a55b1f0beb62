/**
 * @file
 * Log-linear histogram for latency/size distributions.
 *
 * Fixed-size bucket array covering ~[1e-6, 1.7e13] in the caller's
 * unit: each power-of-two octave is split into 8 linear sub-buckets,
 * bounding the relative quantile error at ~6%.  Count, sum, min, and
 * max are tracked exactly.  Instances are NOT thread-safe by design:
 * the serve engine gives each worker a private histogram and merges
 * them under its own lock when a metrics snapshot is taken.
 */

#ifndef SNAP_COMMON_HISTOGRAM_HH
#define SNAP_COMMON_HISTOGRAM_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace snap
{

class Histogram
{
  public:
    /** Sub-buckets per octave (power of two). */
    static constexpr int subBuckets = 8;
    /** Smallest/largest resolvable exponents: values outside
     *  [2^minExp, 2^maxExp) clamp into the edge buckets. */
    static constexpr int minExp = -20;
    static constexpr int maxExp = 44;
    static constexpr int numBuckets = (maxExp - minExp) * subBuckets;

    void
    record(double v)
    {
        if (!(v >= 0.0))
            v = 0.0;
        ++counts_[bucketOf(v)];
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * Value at quantile @p p in (0, 1]; 0 when empty.  Returns the
     * midpoint of the bucket holding the p-th sample, clamped to the
     * exact [min, max] envelope.
     */
    double
    quantile(double p) const
    {
        snap_assert(p > 0.0 && p <= 1.0, "quantile(%f)", p);
        if (count_ == 0)
            return 0.0;
        auto target = static_cast<std::uint64_t>(
            std::ceil(p * static_cast<double>(count_)));
        if (target == 0)
            target = 1;
        std::uint64_t seen = 0;
        for (int b = 0; b < numBuckets; ++b) {
            seen += counts_[b];
            if (seen >= target) {
                double v = bucketMid(b);
                if (v < min_)
                    v = min_;
                if (v > max_)
                    v = max_;
                return v;
            }
        }
        return max_;
    }

    /** Fold @p other into this histogram. */
    void
    merge(const Histogram &other)
    {
        for (int b = 0; b < numBuckets; ++b)
            counts_[b] += other.counts_[b];
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.count_) {
            if (other.min_ < min_)
                min_ = other.min_;
            if (other.max_ > max_)
                max_ = other.max_;
        }
    }

    void
    reset()
    {
        counts_.fill(0);
        count_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = 0.0;
    }

  private:
    static int
    bucketOf(double v)
    {
        if (v < std::ldexp(1.0, minExp))
            return 0;
        int e = std::ilogb(v);
        if (e >= maxExp)
            return numBuckets - 1;
        // Linear position of the mantissa within the octave.
        double frac = v / std::ldexp(1.0, e) - 1.0;
        int sub = static_cast<int>(frac * subBuckets);
        if (sub >= subBuckets)
            sub = subBuckets - 1;
        return (e - minExp) * subBuckets + sub;
    }

    static double
    bucketMid(int b)
    {
        int e = minExp + b / subBuckets;
        int sub = b % subBuckets;
        double lo = std::ldexp(1.0 + static_cast<double>(sub) /
                                         subBuckets, e);
        double width = std::ldexp(1.0, e) / subBuckets;
        return lo + width / 2.0;
    }

    std::array<std::uint64_t, numBuckets> counts_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = 0.0;
};

} // namespace snap

#endif // SNAP_COMMON_HISTOGRAM_HH
