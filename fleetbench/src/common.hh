/**
 * @file
 * Small helpers shared by the fleetbench modules: the host clock and
 * the order statistics the metrics are reported as.
 */

#ifndef FLEETBENCH_COMMON_HH
#define FLEETBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace fleetbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Quantile @p q of @p xs by linear interpolation between order
 *  statistics (0 for an empty sample). */
inline double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

/**
 * Quantile @p q over @p slices consecutive parts of @p xs (schedule
 * order) of each part's median.  On a shared host a slow spell only
 * adds time, and only to the slices it covers; a low @p q reads past
 * spells that cover fewer than (1 - q) of the slices.
 */
inline double
slicedMedian(const std::vector<double> &xs, std::size_t slices, double q)
{
    if (xs.size() < slices)
        return median(xs);
    std::vector<double> meds;
    for (std::size_t c = 0; c < slices; ++c) {
        auto b = xs.begin() + static_cast<std::ptrdiff_t>(
                                  xs.size() * c / slices);
        auto e = xs.begin() + static_cast<std::ptrdiff_t>(
                                  xs.size() * (c + 1) / slices);
        meds.push_back(median(std::vector<double>(b, e)));
    }
    return quantile(meds, q);
}

/** Quantile @p q over equal slices of [0, @p window_s) of the rate of
 *  @p times_s in each: whole seconds, widened until a slice expects
 *  200 events (fewer make a slice's count itself noisy); the plain
 *  rate when that leaves fewer than two slices. */
inline double
slicedRate(const std::vector<double> &times_s, double window_s, double q)
{
    const auto bins = std::min(static_cast<std::size_t>(window_s),
                               times_s.size() / 200);
    if (bins < 2)
        return window_s > 0.0
                   ? static_cast<double>(times_s.size()) / window_s
                   : 0.0;
    const double width = window_s / static_cast<double>(bins);
    std::vector<double> rates(bins, 0.0);
    for (double t : times_s) {
        auto b = static_cast<std::size_t>(t / width);
        if (t >= 0.0 && b < bins)
            rates[b] += 1.0 / width;
    }
    return quantile(rates, q);
}

} // namespace fleetbench

#endif // FLEETBENCH_COMMON_HH
