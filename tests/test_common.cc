/**
 * @file
 * Tests for logging, RNG, statistics, and string utilities.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"

namespace snap
{
namespace
{

// --- logging ---------------------------------------------------------------

std::vector<std::pair<LogLevel, std::string>> g_captured;

void
captureHook(LogLevel level, const std::string &msg)
{
    g_captured.emplace_back(level, msg);
}

TEST(Logging, HookCapturesMessages)
{
    g_captured.clear();
    auto old = Logger::setHook(captureHook);
    snap_warn("watch out: %d", 42);
    snap_inform("fyi %s", "text");
    Logger::setHook(old);

    ASSERT_EQ(g_captured.size(), 2u);
    EXPECT_EQ(g_captured[0].first, LogLevel::Warn);
    EXPECT_EQ(g_captured[0].second, "watch out: 42");
    EXPECT_EQ(g_captured[1].first, LogLevel::Inform);
}

TEST(Logging, FormatString)
{
    EXPECT_EQ(formatString("a%db%sc", 7, "x"), "a7bxc");
    EXPECT_EQ(formatString("%s", std::string(500, 'y').c_str()),
              std::string(500, 'y'));
}

TEST(Logging, DebugGatedByFlag)
{
    g_captured.clear();
    auto old = Logger::setHook(captureHook);
    Logger::setDebugEnabled(false);
    snap_debug("hidden");
    Logger::setDebugEnabled(true);
    snap_debug("visible");
    Logger::setDebugEnabled(false);
    Logger::setHook(old);
    ASSERT_EQ(g_captured.size(), 1u);
    EXPECT_EQ(g_captured[0].second, "visible");
}

TEST(LoggingDeath, FatalExitsWithStatusOne)
{
    EXPECT_EXIT(snap_fatal("bad config %d", 3),
                ::testing::ExitedWithCode(1), "bad config 3");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(snap_panic("internal bug"), "internal bug");
}

TEST(LoggingDeath, AssertReportsCondition)
{
    EXPECT_DEATH(snap_assert(1 == 2, "context %d", 9),
                 "assertion failed: 1 == 2");
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123), c(124);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitMix64IsTheReferenceStep)
{
    // The reference generator's outputs from states 0 and 1: request
    // seeds, trace ids, ring points and sketch slots all hang off it.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ull);
    // Rng seeds its state from consecutive SplitMix64 steps.
    EXPECT_EQ(Rng(0).next(), 0x99ec5f36cb75f2b4ull);
    EXPECT_EQ(Rng(0x5eed5eed5eed5eedull).next(), 0x5530c1deb89725efull);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(8);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, TruncExpRespectsCap)
{
    Rng rng(10);
    double sum = 0;
    for (int i = 0; i < 5000; ++i) {
        auto v = rng.truncExp(3.0, 16);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 16u);
        sum += v;
    }
    double mean = sum / 5000;
    EXPECT_GT(mean, 2.0);
    EXPECT_LT(mean, 5.0);
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

// --- stats ----------------------------------------------------------------------

TEST(Stats, DistributionMoments)
{
    stats::Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(Stats, EmptyDistributionIsSane)
{
    stats::Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

// --- strutil ---------------------------------------------------------------

TEST(Strutil, Tokenize)
{
    EXPECT_EQ(tokenize("a b  c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(tokenize("  lead trail  "),
              (std::vector<std::string>{"lead", "trail"}));
    EXPECT_TRUE(tokenize("").empty());
}

TEST(Strutil, SplitKeepsEmptyFields)
{
    EXPECT_EQ(split("a,,b", ','),
              (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strutil, TrimAndLower)
{
    EXPECT_EQ(trim("  x y \t"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
}

TEST(Strutil, ParseNumbers)
{
    long long i;
    EXPECT_TRUE(parseInt("42", i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseInt("-7", i));
    EXPECT_EQ(i, -7);
    EXPECT_TRUE(parseInt("0x10", i));
    EXPECT_EQ(i, 16);
    EXPECT_FALSE(parseInt("12x", i));
    EXPECT_FALSE(parseInt("", i));

    double d;
    EXPECT_TRUE(parseDouble("2.5", d));
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_FALSE(parseDouble("2.5q", d));
}

TEST(Strutil, TextTableAligns)
{
    TextTable t;
    t.header({"col", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("col"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Every line has the same rendering discipline: dashes line
    // under the header.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Strutil, FmtDouble)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
}

} // namespace
} // namespace snap
