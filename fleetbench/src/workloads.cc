#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "arch/machine.hh"
#include "common/rng.hh"
#include "nlu/corpus.hh"
#include "shard/hash_ring.hh"
#include "shard/protocol.hh"
#include "shard/router.hh"

#include "common.hh"
#include "fleet.hh"

using namespace snap;

namespace fleetbench
{

namespace
{

const WorkloadSpec kWorkloads[] = {
    // name, kind, open rate, window, capacity, warmup
    {"parse-zipf", Kind::Zipf, 80.0, 8, 0.0, 40},
    {"parse-unique", Kind::Parse, 80.0, 8, 500.0, 40},
    {"parse-session-guarded", Kind::Session, 15.0, 16, 45.0, 8},
};

/** Distinct sentences the Zipf workload draws from. */
constexpr std::size_t kDistinctSentences = 2000;
/** Non-lexical concepts and vocabulary of the Table IV 5K KB. */
constexpr std::uint32_t kLinguisticNodes = 5000;
constexpr std::uint32_t kVocabulary = 700;
/** MemoryBasedParser's cap on host-driven cancel rounds. */
constexpr std::uint32_t kMaxCancelRounds = 12;

/** Run @p body(index, machine, parser) for every index in [0, n),
 *  spread over @p threads private solo machines stamped from
 *  @p image.  @p parser is null unless @p kb is given. */
template <typename Body>
void
forEachOnSoloMachines(std::size_t n, unsigned threads,
                      const KbImage &image, LinguisticKb *kb,
                      Body body)
{
    threads = std::max(1u, std::min<unsigned>(
                               threads, static_cast<unsigned>(n)));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            SnapMachine machine(servingMachineConfig());
            machine.loadKb(image);
            std::unique_ptr<MemoryBasedParser> parser;
            if (kb)
                parser = std::make_unique<MemoryBasedParser>(*kb);
            for (std::size_t i = t; i < n; i += threads)
                body(i, machine, parser.get());
        });
    }
    for (auto &th : pool)
        th.join();
}

/** @p count distinct newswire sentences (10-28 words). */
std::vector<Sentence>
uniqueSentences(const Lexicon &lex, std::size_t count,
                std::uint64_t seed)
{
    std::vector<Sentence> out;
    std::unordered_set<std::string> seen;
    for (std::uint64_t round = 0; out.size() < count; ++round) {
        auto batch = makeNewswireBatch(
            lex, static_cast<std::uint32_t>(count - out.size() + 16),
            splitmix64(seed + round));
        for (Sentence &s : batch) {
            if (out.size() < count && seen.insert(s.text()).second)
                out.push_back(std::move(s));
        }
    }
    return out;
}

/** Van der Corput radical inverse of @p n in base 2. */
double
radicalInverse(std::uint32_t n)
{
    double inv = 0.0, scale = 0.5;
    for (; n != 0; n >>= 1, scale *= 0.5)
        if (n & 1)
            inv += scale;
    return inv;
}

/**
 * Give each Zipf rank a program, so that seeds compare like for like.
 * The router sends every repeat of a program to one shard (the ring
 * owner of Program::contentHash()), so the hot head would load the
 * shards unevenly, and differently on every seed.  Ranks are dealt
 * instead, in order, to the shard with the least Zipf weight so far.
 * Within a shard, its k-th rank takes the program at cost quantile
 * radicalInverse(k + 1) (the median, then the quartiles, ...).  Which
 * programs are hot still depends on the seed; the shards' shares of
 * the load and the cost profile of the head do not.
 */
void
assignPopularity(Workload &wl)
{
    const auto n = static_cast<std::uint32_t>(wl.programs.size());
    const shard::HashRing ring(kShards, shard::RouterConfig{}.vnodes);
    std::vector<std::vector<std::uint32_t>> owned(kShards);
    for (std::uint32_t i = 0; i < n; ++i)
        owned[ring.owner(wl.programs[i].contentHash())].push_back(i);

    std::vector<std::vector<std::uint32_t>> ranks(kShards);
    std::vector<double> weight(kShards, 0.0);
    for (std::uint32_t r = 0; r < n; ++r) {
        std::uint32_t to = kShards;
        for (std::uint32_t s = 0; s < kShards; ++s)
            if (ranks[s].size() < owned[s].size() &&
                (to == kShards || weight[s] < weight[to]))
                to = s;
        ranks[to].push_back(r);
        weight[to] += 1.0 / static_cast<double>(r + 1);
    }

    wl.programOfRank.resize(n);
    for (std::uint32_t s = 0; s < kShards; ++s) {
        std::vector<std::uint32_t> &by_cost = owned[s];
        std::stable_sort(by_cost.begin(), by_cost.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return wl.answers[a].events <
                                    wl.answers[b].events;
                         });
        const auto m = static_cast<std::uint32_t>(by_cost.size());
        std::vector<std::pair<double, std::uint32_t>> quantile_of(m);
        for (std::uint32_t k = 0; k < m; ++k)
            quantile_of[k] = {radicalInverse(k + 1), ranks[s][k]};
        std::sort(quantile_of.begin(), quantile_of.end());
        for (std::uint32_t j = 0; j < m; ++j)
            wl.programOfRank[quantile_of[j].second] = by_cost[j];
    }
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const WorkloadSpec &w : kWorkloads)
        out.push_back(w.name);
    return out;
}

FaultSpec
guardedFaultSpec(std::uint64_t seed)
{
    FaultSpec spec = FaultSpec::messageFaults(seed, 2e-5);
    spec.watchdogTicks = 200'000'000'000; // 200 ms simulated
    return spec;
}

MachineConfig
servingMachineConfig()
{
    MachineConfig cfg;
    cfg.perfNetEnabled = false;
    return cfg;
}

std::vector<std::uint8_t>
encodeAnswer(ResultSet results, Tick wall_ticks)
{
    for (CollectResult &c : results)
        c.sortNodes();
    shard::WireWriter w;
    shard::encodeResults(w, results);
    w.u64(wall_ticks);
    return w.take();
}

std::uint64_t
fnvFold(std::uint64_t h, const std::vector<std::uint8_t> &bytes)
{
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<std::uint8_t>
encodeParse(NodeId best_root, float best_score,
            std::vector<CollectedNode> candidates)
{
    std::sort(candidates.begin(), candidates.end(),
              [](const CollectedNode &a, const CollectedNode &b) {
                  return a.node < b.node;
              });
    shard::WireWriter w;
    w.u32(best_root);
    w.f32(best_score);
    w.u32(static_cast<std::uint32_t>(candidates.size()));
    for (const CollectedNode &c : candidates) {
        w.u32(c.node);
        w.f32(c.value);
        w.u32(c.origin);
    }
    return w.take();
}

bool
ParseResolver::next(const std::vector<CollectedNode> &collected,
                    float &theta)
{
    // Mirrors MemoryBasedParser::parseOn: accept when few enough
    // candidates survive, when a round empties the field (keep the
    // previous set), or when the threshold stops biting.
    if (!started_) {
        started_ = true;
        candidates_ = collected;
    } else {
        ++rounds_;
        std::vector<CollectedNode> prev = std::move(candidates_);
        candidates_ = collected;
        if (candidates_.empty()) {
            candidates_ = std::move(prev);
            return false;
        }
        if (candidates_.size() >= prev.size())
            return false;
    }
    if (candidates_.size() <= maxCandidates_ ||
        rounds_ >= kMaxCancelRounds)
        return false;
    std::vector<float> scores;
    scores.reserve(candidates_.size());
    for (const CollectedNode &c : candidates_)
        scores.push_back(c.value);
    std::nth_element(scores.begin(), scores.begin() + scores.size() / 2,
                     scores.end());
    theta = scores[scores.size() / 2] + 1e-4f;
    return true;
}

std::vector<std::uint8_t>
ParseResolver::answer() const
{
    NodeId best = invalidNode;
    float score = 0.0f;
    for (const CollectedNode &c : candidates_) {
        if (best == invalidNode || c.value > score ||
            (c.value == score && c.node < best)) {
            best = c.node;
            score = c.value;
        }
    }
    return encodeParse(best, score, candidates_);
}

std::size_t
Workload::poolEnd() const
{
    return spec->kind == Kind::Zipf ? SIZE_MAX : programs.size();
}

std::uint32_t
Workload::program(std::size_t q) const
{
    if (spec->kind != Kind::Zipf)
        return static_cast<std::uint32_t>(q);
    // Zipf(s = 1) over popularity ranks, drawn from the query's number
    // (a SplitMix64 stream keyed by the seed).
    const std::uint64_t h =
        splitmix64(splitmix64(seed ^ 0x21bfu) + q * 0x9e3779b97f4a7c15ull);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53 *
                     zipfCdf.back();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(zipfCdf.begin(), zipfCdf.end(), u) -
        zipfCdf.begin());
    return programOfRank[std::min(rank, programOfRank.size() - 1)];
}

void
Workload::solve(std::size_t end)
{
    const std::size_t begin = answers.size();
    end = std::min(end, programs.size());
    if (end <= begin)
        return;
    answers.resize(end);
    if (spec->kind == Kind::Session) {
        // Session ground truth: the whole parseOn pipeline on a solo
        // machine from cleared markers.
        forEachOnSoloMachines(
            end - begin, threads, *image, lkb.get(),
            [&](std::size_t i, SnapMachine &m, MemoryBasedParser *p) {
                m.image().resetMarkers();
                std::uint64_t ev0 = m.eventsProcessed();
                ParseOutcome out = p->parseOn(m, sentences[begin + i]);
                Answer &a = answers[begin + i];
                a.bytes = encodeParse(out.bestRoot, out.bestScore,
                                      out.candidates);
                a.events = m.eventsProcessed() - ev0;
            });
        return;
    }
    // Stateless ground truth: each program once, from cleared markers,
    // exactly as a serving replica runs it.
    forEachOnSoloMachines(
        end - begin, threads, *image, nullptr,
        [&](std::size_t i, SnapMachine &m, MemoryBasedParser *) {
            m.image().resetMarkers();
            std::uint64_t ev0 = m.eventsProcessed();
            RunResult run = m.run(programs[begin + i]);
            Answer &a = answers[begin + i];
            a.bytes = encodeAnswer(std::move(run.results), run.wallTicks);
            a.events = m.eventsProcessed() - ev0;
        });
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec, std::uint64_t seed,
             double open_s, double closed_s, unsigned threads)
{
    auto wl = std::make_unique<Workload>();
    wl->spec = &spec;
    wl->seed = seed;
    wl->threads = threads;
    wl->numOpen = static_cast<std::size_t>(
        std::ceil(spec.openRate * open_s));
    Rng rng(splitmix64(seed ^ 0xf1ee7be9c4ull));

    LinguisticKbParams params;
    params.nonlexicalNodes = kLinguisticNodes;
    params.vocabulary = kVocabulary;
    wl->lkb = std::make_unique<LinguisticKb>(params);
    wl->parser = std::make_unique<MemoryBasedParser>(*wl->lkb);
    const std::size_t num_distinct =
        spec.kind == Kind::Zipf
            ? kDistinctSentences
            : wl->closedBegin() +
                  static_cast<std::size_t>(std::ceil(
                      spec.capacityQps * closed_s * kPoolHeadroom));
    std::vector<Sentence> sentences =
        uniqueSentences(wl->lkb->lexicon(), num_distinct, rng.next());
    wl->programs.resize(num_distinct);
    for (std::size_t i = 0; i < num_distinct; ++i)
        wl->programs[i] = wl->parser->buildProgram(sentences[i].words);
    if (spec.kind == Kind::Session) {
        wl->sentences = std::move(sentences);
        wl->faults = guardedFaultSpec(rng.next());
    }
    wl->image =
        std::make_unique<KbImage>(wl->net(), servingMachineConfig());

    if (spec.kind == Kind::Zipf) {
        // Every distinct program is solved up front; their costs then
        // give the ranks their programs.
        double acc = 0.0;
        for (std::size_t k = 0; k < num_distinct; ++k) {
            acc += 1.0 / static_cast<double>(k + 1);
            wl->zipfCdf.push_back(acc);
        }
        wl->solve(num_distinct);
        assignPopularity(*wl);
    } else {
        wl->solve(wl->closedBegin());
    }
    return wl;
}

} // namespace fleetbench
