/**
 * @file
 * Fig. 8 — Time distribution of marker activity.
 *
 * "Parsing generates bursts of marker activation.  The vertical axis
 * represents the number of marker activation messages which occurred
 * at each barrier synchronization in the program ...  While on
 * average 11.49 messages are transmitted per synchronization point,
 * bursts of over 30 messages are typical."
 *
 * Reproduction: parse newswire text on the 16-cluster machine and
 * report the inter-cluster message count per barrier epoch.
 */

#include <algorithm>
#include <iterator>

#include "arch/machine.hh"
#include "bench/bench_util.hh"
#include "nlu/corpus.hh"
#include "nlu/kb_factory.hh"
#include "nlu/mb_parser.hh"

using namespace snap;

int
main()
{
    bench::banner("Fig. 8 — marker activation messages per barrier "
                  "synchronization",
                  "mean ~11.49 messages per sync point; bursts of "
                  "over 30 are typical");

    LinguisticKbParams params;
    params.nonlexicalNodes = 5000;
    params.vocabulary = 600;
    LinguisticKb kb(params);
    MemoryBasedParser parser(kb);

    MachineConfig cfg = MachineConfig::paperSetup();
    SnapMachine machine(cfg);
    machine.loadKb(kb.net());

    auto sentences = makeNewswireBatch(kb.lexicon(), 4, 88);
    std::vector<std::uint32_t> series;
    for (const auto &s : sentences) {
        ParseOutcome out = parser.parseOn(machine, s);
        for (auto v : out.stats.msgsPerEpoch)
            series.push_back(v);
    }

    // The figure: messages at each synchronization point.
    std::printf("sync#  messages\n");
    for (std::size_t i = 0; i < series.size(); ++i)
        std::printf("%5zu  %u\n", i, series[i]);

    double sum = 0;
    std::uint32_t peak = 0;
    for (auto v : series) {
        sum += v;
        peak = std::max(peak, v);
    }
    double mean = sum / static_cast<double>(series.size());

    // Twelve buckets of 10 messages; larger bursts overflow.
    constexpr std::uint32_t kBucket = 10;
    std::uint64_t buckets[12] = {};
    std::uint64_t overflow = 0;
    for (auto v : series) {
        if (v / kBucket < std::size(buckets))
            ++buckets[v / kBucket];
        else
            ++overflow;
    }
    std::printf("\nhistogram (bucket=10 msgs):");
    for (std::uint64_t c : buckets)
        std::printf(" %llu", static_cast<unsigned long long>(c));
    std::printf(" overflow=%llu\n",
                static_cast<unsigned long long>(overflow));
    std::printf("sync points: %zu   mean: %.2f (paper: 11.49)   "
                "peak burst: %u (paper: >30)\n\n",
                series.size(), mean, peak);

    std::vector<std::uint32_t> sorted = series;
    std::sort(sorted.begin(), sorted.end());
    double median = sorted[sorted.size() / 2];
    std::printf("median: %.0f\n\n", median);

    bench::check("tens of synchronization points per parse",
                 series.size() >= 30);
    bench::check("mean is a small fraction of the peak burst",
                 mean >= 2.0 &&
                     mean < static_cast<double>(peak) / 3.0);
    bench::check("traffic is right-skewed / bursty (median < mean)",
                 median < mean);
    bench::check("bursts well above the mean occur (peak > 2.5x)",
                 static_cast<double>(peak) > 2.5 * mean);
    bench::check("peak burst exceeds 30 messages",
                 peak > 30);
    return bench::finish();
}
