/**
 * @file
 * Deterministic random number generator used by every synthetic
 * workload generator and by the cluster arbiter's random tie-break.
 *
 * xoshiro256** — small, fast, and fully reproducible across platforms,
 * unlike std::mt19937 distributions whose mapping is implementation
 * defined for some std distributions.  All distribution mapping here
 * is hand-rolled so results are bit-identical everywhere.
 */

#ifndef SNAP_COMMON_RNG_HH
#define SNAP_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace snap
{

/**
 * SplitMix64: the output of one step from state @p x, a
 * full-avalanche 64-bit mix.  The repo-wide seeding and hashing
 * primitive (generator seeds, request seeds, trace ids, hash-ring
 * points, sketch and frontier-map slots).  Inline because the
 * frontier map hashes every admit on the DES hot path.
 */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** xoshiro256** pseudo-random generator with explicit seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedull)
    {
        // SplitMix64 seeding, per the xoshiro reference code.
        for (auto &word : s_) {
            word = splitmix64(seed);
            seed += 0x9e3779b97f4a7c15ull;
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0 (unbiased). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        snap_assert(bound > 0, "Rng::below(0)");
        // Rejection sampling to remove modulo bias.
        std::uint64_t threshold = (0 - bound) % bound;
        while (true) {
            std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        snap_assert(lo <= hi, "Rng::range(%lld,%lld)",
                    static_cast<long long>(lo),
                    static_cast<long long>(hi));
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish pick for fanout distributions: integer in
     * [1, max] with mean roughly @p mean (truncated exponential).
     */
    std::uint32_t
    truncExp(double mean, std::uint32_t max_value)
    {
        snap_assert(mean > 0 && max_value >= 1,
                    "truncExp(%f,%u)", mean, max_value);
        // Inverse-CDF sample, clamped.
        double u = uniform();
        // Guard against log(0).
        if (u >= 1.0)
            u = 0x1.fffffffffffffp-1;
        double x = -mean * log1p(-u);
        auto v = static_cast<std::uint32_t>(x) + 1;
        return v > max_value ? max_value : v;
    }

    /** Fisher-Yates shuffle of a random-access container. */
    template <typename Vec>
    void
    shuffle(Vec &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace snap

#endif // SNAP_COMMON_RNG_HH
