/**
 * @file
 * Tests for stats::Distribution (reset/merge semantics), the
 * MetricsRegistry exporters and the log-bucketed Histogram's quantile
 * edge cases.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "common/stats.hh"

namespace snap
{
namespace
{

// --- stats::Distribution ---------------------------------------------------

TEST(StatsDistribution, ResetRestoresEmptyState)
{
    stats::Distribution d;
    d.sample(1.0);
    d.sample(3.0);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);

    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    EXPECT_EQ(d.mean(), 0.0);

    // A reset distribution must accept new samples as if fresh.
    d.sample(5.0);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.min(), 5.0);
    EXPECT_DOUBLE_EQ(d.max(), 5.0);
}

TEST(StatsDistribution, MergePoolsSamples)
{
    stats::Distribution a, b;
    a.sample(1.0);
    a.sample(2.0);
    b.sample(10.0);
    b.sample(20.0);

    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.sum(), 33.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 20.0);

    // The merged mean must match sampling everything into one
    // distribution directly.
    stats::Distribution direct;
    for (double v : {1.0, 2.0, 10.0, 20.0})
        direct.sample(v);
    EXPECT_DOUBLE_EQ(a.mean(), direct.mean());
}

TEST(StatsDistribution, MergeEmptyLeavesEnvelopeAlone)
{
    stats::Distribution a, empty;
    a.sample(4.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.min(), 4.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);

    // And merging INTO an empty one adopts the other's envelope.
    stats::Distribution c;
    c.merge(a);
    EXPECT_EQ(c.count(), 1u);
    EXPECT_DOUBLE_EQ(c.min(), 4.0);
    EXPECT_DOUBLE_EQ(c.max(), 4.0);
}

// --- MetricsRegistry exposition escaping -----------------------------------

TEST(MetricsRegistry, PrometheusEscapesLabelValuesAndHelp)
{
    MetricsRegistry reg;
    reg.counter("snap_evil_total", 1.0,
                "help with \\ backslash\nand newline",
                {{"path", "C:\\tmp\n\"quoted\""}});
    std::ostringstream os;
    reg.writePrometheus(os);
    const std::string text = os.str();

    // The label value must carry the three spec escapes and no raw
    // quote/newline inside the quotes.
    EXPECT_NE(text.find("path=\"C:\\\\tmp\\n\\\"quoted\\\"\""),
              std::string::npos)
        << text;
    // HELP escapes backslash and newline (quotes stay raw there).
    EXPECT_NE(text.find(
                  "# HELP snap_evil_total help with \\\\ "
                  "backslash\\nand newline\n"),
              std::string::npos)
        << text;
    // Exactly one physical line may contain the sample: an
    // unescaped newline would split it.
    std::istringstream is(text);
    std::string line;
    std::size_t sample_lines = 0;
    while (std::getline(is, line))
        if (line.rfind("snap_evil_total{", 0) == 0)
            ++sample_lines;
    EXPECT_EQ(sample_lines, 1u);
}

TEST(MetricsRegistry, JsonEscapesLabelStrings)
{
    MetricsRegistry reg;
    reg.gauge("snap_g", 2.0, "",
              {{"k", "a\"b\\c\nd\te\x01z"}});
    std::ostringstream os;
    reg.writeJson(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("a\\\"b\\\\c\\nd\\te\\u0001z"),
              std::string::npos)
        << text;
}

TEST(MetricsRegistry, SanitizeLabelNameExcludesColon)
{
    EXPECT_EQ(MetricsRegistry::sanitizeLabelName("a:b.c"), "a_b_c");
    EXPECT_EQ(MetricsRegistry::sanitizeLabelName("9lead"), "_lead");
    EXPECT_EQ(MetricsRegistry::sanitizeLabelName(""), "_");
    // Metric names keep the colon; label names must not.
    EXPECT_EQ(MetricsRegistry::sanitizeName("a:b"), "a:b");
}

// --- Logger counter export -------------------------------------------------

TEST(LoggerMetrics, ExportsPerLevelEmitAndSuppressCounters)
{
    Logger::resetCounters();
    snap_inform("logger-metrics probe %d", 1);
    snap_warn("logger-metrics probe %d", 2);
    snap_warn("logger-metrics probe %d", 3);

    MetricsRegistry reg;
    Logger::exportMetrics(reg);

    double info_emitted = -1.0, warn_emitted = -1.0;
    std::size_t suppressed_series = 0;
    for (const auto &s : reg.samples()) {
        if (s.name == "snap_log_emitted_total") {
            ASSERT_EQ(s.labels.size(), 1u);
            EXPECT_EQ(s.labels[0].first, "level");
            if (s.labels[0].second == "info")
                info_emitted = s.value;
            else if (s.labels[0].second == "warn")
                warn_emitted = s.value;
        } else if (s.name == "snap_log_suppressed_total") {
            ++suppressed_series;
        }
    }
    EXPECT_GE(info_emitted, 1.0);
    EXPECT_GE(warn_emitted, 2.0);
    // One suppressed series per level, even when all-zero.
    EXPECT_EQ(suppressed_series, 5u);
    Logger::resetCounters();
}

// --- snap::Histogram (log-bucketed) quantile edges -------------------------

TEST(LogBucketHistogram, EmptyQuantileIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(1.0), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
}

TEST(LogBucketHistogram, SingleSampleQuantilesClampToIt)
{
    Histogram h;
    h.record(3.7);
    // With one sample every quantile must return exactly that value:
    // the bucket midpoint is clamped to the [min, max] envelope.
    EXPECT_DOUBLE_EQ(h.quantile(0.01), 3.7);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.7);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.7);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.7);
}

TEST(LogBucketHistogram, AllSamplesInOneBucket)
{
    Histogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(8.0);
    // Every quantile lands in the same bucket and clamps to 8.0.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 8.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 8.0);
    EXPECT_DOUBLE_EQ(h.min(), 8.0);
    EXPECT_DOUBLE_EQ(h.max(), 8.0);
    EXPECT_DOUBLE_EQ(h.mean(), 8.0);
}

TEST(LogBucketHistogram, QuantileOrderingAndBoundedError)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    double p50 = h.quantile(0.50);
    double p95 = h.quantile(0.95);
    double p99 = h.quantile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    // Sub-bucketed octaves bound the relative error at ~6%.
    EXPECT_NEAR(p50, 500.0, 500.0 * 0.07);
    EXPECT_NEAR(p99, 990.0, 990.0 * 0.07);
    // p100 lands in the top occupied bucket; its midpoint may sit
    // below max, but never above it.
    EXPECT_NEAR(h.quantile(1.0), 1000.0, 1000.0 * 0.07);
    EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(LogBucketHistogram, MergeAndReset)
{
    Histogram a, b;
    a.record(1.0);
    b.record(100.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 100.0);
    EXPECT_DOUBLE_EQ(a.sum(), 101.0);
    // Merging an empty histogram is a no-op on the envelope.
    Histogram empty;
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 100.0);

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.quantile(0.5), 0.0);
}

} // namespace
} // namespace snap
