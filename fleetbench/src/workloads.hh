/**
 * @file
 * The three fleetbench workloads: their knowledge bases, the query
 * streams drawn from the seed, and the solo-machine ground truth every
 * served answer is checked against.
 *
 *   parse-zipf             stateless NLU parses, Zipf(1)-repeated over
 *                          2000 distinct sentences
 *   parse-unique           stateless NLU parses, no sentence repeats
 *   parse-session-guarded  whole-sentence parses as router sessions
 *                          (parse turn + host-driven cancel rounds)
 *                          on fault-armed, integrity-shadowed shards
 */

#ifndef FLEETBENCH_WORKLOADS_HH
#define FLEETBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/kb_image.hh"
#include "fault/fault_plan.hh"
#include "isa/program.hh"
#include "kb/semantic_network.hh"
#include "nlu/corpus.hh"
#include "nlu/kb_factory.hh"
#include "nlu/mb_parser.hh"

namespace fleetbench
{

enum class Kind
{
    /** Stateless parses, Zipf-repeated over a set of sentences. */
    Zipf,
    /** Stateless parses, no sentence twice. */
    Parse,
    /** Whole-sentence parses as router sessions. */
    Session,
};

struct WorkloadSpec
{
    const char *name;
    Kind kind;
    /** Offered rate of the open-loop phase (queries per second). */
    double openRate;
    /** Outstanding queries of the closed-loop phase. */
    std::uint32_t window;
    /** Unique workloads: capacity (queries per second) the closed-loop
     *  pool of distinct inputs is sized for, kPoolHeadroom times over.
     *  A run that uses the pool up is void. */
    double capacityQps;
    /** Unmeasured queries run before the phases. */
    std::uint32_t warmup;
};

/** How far above a unique workload's capacityQps its closed-loop pool
 *  reaches. */
constexpr double kPoolHeadroom = 4.0;

const WorkloadSpec *findWorkload(const std::string &name);
std::vector<std::string> workloadNames();

/**
 * The guarded workload's fault plan.  Both fields differ from the
 * defaults on purpose:
 *  - FaultSpec::watchdogTicks defaults to 2 ms simulated, but a parse
 *    turn runs ~20 ms simulated, so the default watchdog aborts every
 *    parse with zero faults injected;
 *  - the per-event message rate of the faults bench (0.0025) hits
 *    nearly every ~24K-event parse turn.
 * The plan below lets most turns run clean and some retry.
 */
snap::FaultSpec guardedFaultSpec(std::uint64_t seed);

/** Machine configuration of every replica and of the ground truth. */
snap::MachineConfig servingMachineConfig();

/** The expected answer to one program (stateless) or one sentence
 *  (session). */
struct Answer
{
    std::vector<std::uint8_t> bytes;
    /** DES events of the solo ground-truth run(s). */
    std::uint64_t events = 0;
};

/**
 * Canonical bytes of a stateless answer: every collect with its nodes
 * and links sorted (node order inside a collect is machine collection
 * order), then the simulated wall time.  Two answers are equal iff
 * these bytes are.
 */
std::vector<std::uint8_t> encodeAnswer(snap::ResultSet results,
                                       snap::Tick wall_ticks);

/** FNV-1a64 fold of @p bytes into @p h (start from fnvBasis). */
std::uint64_t fnvFold(std::uint64_t h,
                      const std::vector<std::uint8_t> &bytes);
constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ull;

/** Outcome of a served session, in the shape of ParseOutcome. */
std::vector<std::uint8_t>
encodeParse(snap::NodeId best_root, float best_score,
            std::vector<snap::CollectedNode> candidates);

/**
 * Client side of MemoryBasedParser::parseOn's resolution loop, driven
 * by served answers instead of a local machine: after each turn it
 * either names the next cancel threshold or declares the parse done.
 */
class ParseResolver
{
  public:
    explicit ParseResolver(std::uint32_t max_candidates)
        : maxCandidates_(max_candidates)
    {}

    /** Feed the final collect of the turn just answered.  @return
     *  true when another cancel round is due; its threshold is then
     *  in @p theta. */
    bool next(const std::vector<snap::CollectedNode> &collected,
              float &theta);

    /** Canonical answer bytes once next() returned false. */
    std::vector<std::uint8_t> answer() const;

  private:
    std::uint32_t maxCandidates_;
    bool started_ = false;
    std::uint32_t rounds_ = 0;
    std::vector<snap::CollectedNode> candidates_;
};

/**
 * Everything a run needs, generated from the seed before any timer.
 *
 * Queries are numbered: [0, warmup) warm the fleet, then the open-loop
 * schedule, then the closed loop from closedBegin() up to poolEnd().
 * parse-zipf draws each query's Zipf rank from its number, so its
 * closed loop never runs out; the unique workloads give query q the
 * q-th distinct program.
 */
struct Workload
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 0;
    /** Solo machines the ground truth is spread over. */
    unsigned threads = 1;

    /** The 5K linguistic KB of Table IV and its parser. */
    std::unique_ptr<snap::LinguisticKb> lkb;
    std::unique_ptr<snap::MemoryBasedParser> parser;
    const snap::SemanticNetwork &net() const { return lkb->net(); }
    /** net() compiled for the serving machine configuration (the
     *  ground truth and the layer timings stamp machines from it). */
    std::unique_ptr<snap::KbImage> image;

    /** Distinct programs (session: each sentence's parse turn). */
    std::vector<snap::Program> programs;
    /** Session: the sentences, for the parseOn ground truth. */
    std::vector<snap::Sentence> sentences;
    /** Expected answers of programs [0, answers.size()); solve()
     *  extends them. */
    std::vector<Answer> answers;

    std::size_t numOpen = 0;

    /** Fault plan of the guarded workload (all-zero otherwise). */
    snap::FaultSpec faults;

    /** Zipf: cumulative rank weights, and the program each rank takes. */
    std::vector<double> zipfCdf;
    std::vector<std::uint32_t> programOfRank;

    std::size_t openBegin() const { return spec->warmup; }
    std::size_t closedBegin() const { return spec->warmup + numOpen; }
    std::size_t poolEnd() const;

    /** The program query @p q sends. */
    std::uint32_t program(std::size_t q) const;

    /** Compute the expected answers of the programs of queries below
     *  @p end.  The closed-loop pool is solved after the phases, for
     *  the queries that were sent. */
    void solve(std::size_t end);
};

/**
 * Build the workload for @p seed: @p open_s seconds of open-loop
 * schedule and, for the unique workloads, a closed-loop pool for
 * @p closed_s seconds; the ground truth of the warm-up and open-loop
 * queries is computed on @p threads private solo machines.
 */
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &spec,
                                       std::uint64_t seed,
                                       double open_s, double closed_s,
                                       unsigned threads);

} // namespace fleetbench

#endif // FLEETBENCH_WORKLOADS_HH
