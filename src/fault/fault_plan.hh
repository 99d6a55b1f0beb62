#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace snap
{

class MarkerStore;

/**
 * Deterministic fault injection for the SNAP machine model.
 *
 * A FaultSpec describes *what* can go wrong and how often; a FaultPlan
 * turns the spec into a reproducible schedule.  Every decision the plan
 * makes is a pure function of (seed, generation, fault kind, per-kind
 * draw counter), and every injection site is visited in deterministic
 * simulated-event order, so two runs of the same program on the same
 * image with the same plan state inject byte-identical faults.  No host
 * entropy (time, thread ids, addresses) is ever consulted.
 */

/// Everything that can be injected.  Used to index per-kind counters.
enum class FaultKind : std::uint8_t {
    IcnDrop = 0,    ///< ICN message silently lost at the send port
    IcnCorrupt,     ///< ICN message payload corrupted in flight
    IcnDelay,       ///< ICN transfer stalls for extra ticks
    SemStall,       ///< multiport-memory semaphore grant held too long
    MarkerFlip,     ///< a marker bit in a cluster status table flips
    MarkerStick,    ///< a marker bit sticks at 1
    SyncWedge,      ///< sync tree loses a completion credit (wedges)
    DeadCluster,    ///< a cluster fails outright mid-run
    NumKinds,
};

constexpr std::size_t numFaultKinds =
    static_cast<std::size_t>(FaultKind::NumKinds);

const char *faultKindName(FaultKind k);

/// Static description of a fault workload.  All rates default to zero,
/// which means "no plan at all": a machine carrying an all-zero spec is
/// bit-identical to one carrying none.
struct FaultSpec {
    std::uint64_t seed = 0;

    // Per-event rates: probability per injection-site visit.
    double icnDropRate = 0.0;
    double icnCorruptRate = 0.0;
    double icnDelayRate = 0.0;
    double semStallRate = 0.0;

    // Per-run rates: probability that the fault is armed once for the
    // run, at a seed-chosen simulated tick inside scheduleWindowTicks.
    double markerFlipRate = 0.0;
    double markerStickRate = 0.0;
    double syncWedgeRate = 0.0;
    double deadClusterRate = 0.0;

    // Magnitudes / bounds (simulated ticks).
    Tick icnDelayTicks = 2'000'000;       ///< 2 us extra in flight
    Tick semStallTicks = 1'000'000;       ///< 1 us extra hold
    Tick scheduleWindowTicks = 200'000'000;  ///< per-run faults land here
    Tick watchdogTicks = 2'000'000'000;   ///< 2 ms simulated-time budget

    /// True when any rate is non-zero (i.e. the plan can ever fire).
    bool any() const;

    /// Range-check every field; snap_fatal on nonsense (negative rates,
    /// rates > 1, zero watchdog with a wedge rate, ...).
    void validate() const;

    /// Convenience: a message-fault workload at aggregate rate @p rate
    /// split 40% drop / 40% corrupt / 20% delay, as used by the tools'
    /// --fault-rate flag.
    static FaultSpec messageFaults(std::uint64_t seed, double rate);

    /// Serialize to a JSON object (stable key order).
    std::string toJson() const;

    /// Parse the flat object toJson() writes.  A missing key keeps its
    /// default; an unknown or repeated key, or any other malformation,
    /// is refused (false, @p out untouched) with the reason in @p why
    /// when it is not null.
    static bool fromJson(const std::string &text, FaultSpec &out,
                         std::string *why = nullptr);
};

/// What actually happened during one run.  Attached to RunResult.
struct FaultReport {
    bool enabled = false;        ///< a live plan covered this run

    // Injection tallies (what fired, not what was rolled).
    std::uint64_t icnDropped = 0;
    std::uint64_t icnCorrupted = 0;
    std::uint64_t icnDelayed = 0;
    std::uint64_t semStalls = 0;
    std::uint64_t markerFlips = 0;
    std::uint64_t markerSticks = 0;
    std::uint64_t syncWedges = 0;
    std::uint64_t deadClusters = 0;

    // Detection outcomes.
    bool wedged = false;         ///< program failed to finish
    bool watchdogFired = false;  ///< simulated-time budget exceeded
    bool integrityChecked = false;
    bool integrityFailed = false;

    std::uint64_t injected() const
    {
        return icnDropped + icnCorrupted + icnDelayed + semStalls +
               markerFlips + markerSticks + syncWedges + deadClusters;
    }

    /// A run is usable iff it finished and passed whatever integrity
    /// checking was performed.  Timing-only faults still report ok().
    bool ok() const { return !wedged && !watchdogFired && !integrityFailed; }

    /// One-line human summary ("ok, 3 injected (drop=2 delay=1)").
    std::string summary() const;
};

/**
 * The live, stateful schedule.  One plan per machine; all draws advance
 * per-kind monotonic counters so repeated runs see fresh (but still
 * seed-determined) fault patterns.  bumpGeneration() reseeds the whole
 * stream — used when a serving replica is quarantined and re-stamped.
 *
 * The entropy is split into independent streams — stream 0 for the
 * machine itself (per-run arm decisions, made before the run starts)
 * and stream c+1 for cluster c (its CU/MU injection-site rolls).  Each
 * stream's draw history is a pure function of that cluster's own
 * simulated event order.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultSpec &spec);

    const FaultSpec &spec() const { return spec_; }

    /// Size the per-cluster streams.  Called once at machine wiring;
    /// growing preserves existing stream state (draw counters persist
    /// across runs by design).
    void bindClusters(std::uint32_t num_clusters);

    /// Reset the per-run tallies.  Called by SnapMachine::run.
    void beginRun();

    FaultReport &tally() { return tally_; }
    const FaultReport &tally() const { return tally_; }

    // --- per-event injection-site rolls on cluster @p c's stream
    //     (each advances its counter exactly once per call, hit or
    //     miss) ------------------------------------------------------
    bool rollIcnDrop(ClusterId c);
    bool rollIcnCorrupt(ClusterId c);
    bool rollIcnDelay(ClusterId c);
    bool rollSemStall(ClusterId c);

    /// Per-run roll for scheduled faults (flip/stick/wedge/dead).
    /// Machine stream, pre-run only.
    bool rollRun(FaultKind k, double rate);

    // --- raw entropy (deterministic, per-kind streams) ---------------
    /// Machine stream (stream 0).
    std::uint64_t draw(FaultKind k) { return drawOn(0, k); }
    /// Cluster @p c's stream.
    std::uint64_t draw(ClusterId c, FaultKind k)
    {
        return drawOn(c + 1, k);
    }
    /// Uniform in [0, 1), machine stream.
    double drawUnit(FaultKind k);

    /// Deterministically perturb a marker value (finite in, finite
    /// out) using cluster @p c's stream.
    float corruptValue(ClusterId c, float v);
    /// Machine-stream variant (integrity shadows, tests).
    float corruptValue(float v);

    // --- dead-cluster state ------------------------------------------
    // One bit per cluster, cleared at every run start.
    void markDead(ClusterId c);
    bool clusterDead(ClusterId c) const
    {
        return c < 64 && (deadMask_ >> c & 1ull) != 0;
    }

    /// Reseed the whole stream (replica re-stamp after quarantine).
    void bumpGeneration();
    std::uint64_t generation() const { return generation_; }

  private:
    /// One independent entropy stream: a draw counter per kind.
    using Stream = std::array<std::uint64_t, numFaultKinds>;

    Stream &stream(std::uint32_t s);
    std::uint64_t drawOn(std::uint32_t s, FaultKind k);
    double drawUnitOn(std::uint32_t s, FaultKind k);
    bool rollOn(std::uint32_t s, FaultKind k, double rate);

    FaultSpec spec_;
    FaultReport tally_;
    std::vector<Stream> streams_{1};
    std::uint64_t generation_ = 0;
    std::uint64_t deadMask_ = 0;
};

// --- helpers shared by machine integrity checking and tests ----------

/// Exact semantic equality of two marker stores (bit planes, and value
/// and origin of every set bit on complex markers).
bool markersEquivalent(const MarkerStore &a, const MarkerStore &b);

class Program;
struct CollectResult;

/// Order-insensitive equality of two result sets (node order within a
/// collect is machine collection order; both sides are sorted first).
bool resultsEquivalent(std::vector<CollectResult> a,
                       std::vector<CollectResult> b);

/// True when @p prog contains no KB- or marker-table-mutating opcodes
/// (Create/Delete/SetColor/SetWeight/MarkerCreate/MarkerDelete/
/// MarkerSetColor), i.e. the reference-interpreter shadow is a valid
/// integrity oracle for it.
bool programIsPure(const Program &prog);

} // namespace snap
