#include "fault/fault_plan.hh"

#include <array>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/spec_json.hh"
#include "isa/program.hh"
#include "runtime/marker_store.hh"
#include "runtime/results.hh"

namespace snap
{

namespace
{

/// Per-kind stream salt so the eight draw streams never collide even
/// when their counters track each other.
constexpr std::uint64_t kindSalt[numFaultKinds] = {
    0xa3c59ac2f1d0e7b5ull, 0x1f83d9abfb41bd6bull,
    0x5be0cd19137e2179ull, 0x9b05688c2b3e6c1full,
    0x510e527fade682d1ull, 0xbb67ae8584caa73bull,
    0x3c6ef372fe94f82bull, 0xa54ff53a5f1d36f1ull,
};

double
rateOf(const FaultSpec &s, FaultKind k)
{
    switch (k) {
      case FaultKind::IcnDrop: return s.icnDropRate;
      case FaultKind::IcnCorrupt: return s.icnCorruptRate;
      case FaultKind::IcnDelay: return s.icnDelayRate;
      case FaultKind::SemStall: return s.semStallRate;
      case FaultKind::MarkerFlip: return s.markerFlipRate;
      case FaultKind::MarkerStick: return s.markerStickRate;
      case FaultKind::SyncWedge: return s.syncWedgeRate;
      case FaultKind::DeadCluster: return s.deadClusterRate;
      default: return 0.0;
    }
}

/// FaultSpec's JSON keys, in toJson order.
std::array<specjson::Field, 13>
jsonFields(FaultSpec &s)
{
    return {{
        {"seed", nullptr, &s.seed},
        {"icn_drop", &s.icnDropRate},
        {"icn_corrupt", &s.icnCorruptRate},
        {"icn_delay", &s.icnDelayRate},
        {"sem_stall", &s.semStallRate},
        {"marker_flip", &s.markerFlipRate},
        {"marker_stick", &s.markerStickRate},
        {"sync_wedge", &s.syncWedgeRate},
        {"dead_cluster", &s.deadClusterRate},
        {"icn_delay_ticks", nullptr, &s.icnDelayTicks},
        {"sem_stall_ticks", nullptr, &s.semStallTicks},
        {"schedule_window_ticks", nullptr, &s.scheduleWindowTicks},
        {"watchdog_ticks", nullptr, &s.watchdogTicks},
    }};
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::IcnDrop: return "icn_drop";
      case FaultKind::IcnCorrupt: return "icn_corrupt";
      case FaultKind::IcnDelay: return "icn_delay";
      case FaultKind::SemStall: return "sem_stall";
      case FaultKind::MarkerFlip: return "marker_flip";
      case FaultKind::MarkerStick: return "marker_stick";
      case FaultKind::SyncWedge: return "sync_wedge";
      case FaultKind::DeadCluster: return "dead_cluster";
      default: return "?";
    }
}

// --- FaultSpec -------------------------------------------------------

bool
FaultSpec::any() const
{
    for (std::size_t k = 0; k < numFaultKinds; ++k)
        if (rateOf(*this, static_cast<FaultKind>(k)) > 0.0)
            return true;
    return false;
}

void
FaultSpec::validate() const
{
    for (std::size_t k = 0; k < numFaultKinds; ++k) {
        FaultKind kind = static_cast<FaultKind>(k);
        double r = rateOf(*this, kind);
        if (!(r >= 0.0 && r <= 1.0))
            snap_fatal("fault rate %s=%g outside [0,1]",
                       faultKindName(kind), r);
    }
    if (scheduleWindowTicks == 0)
        snap_fatal("fault scheduleWindowTicks must be > 0");
    if (watchdogTicks == 0 && (syncWedgeRate > 0.0 ||
                               deadClusterRate > 0.0 ||
                               icnDropRate > 0.0))
        snap_fatal("faults that can wedge a run require a non-zero "
                   "watchdogTicks budget");
}

FaultSpec
FaultSpec::messageFaults(std::uint64_t seed, double rate)
{
    if (!(rate >= 0.0 && rate <= 1.0))
        snap_fatal("--fault-rate %g outside [0,1]", rate);
    FaultSpec s;
    s.seed = seed;
    s.icnDropRate = rate * 0.4;
    s.icnCorruptRate = rate * 0.4;
    s.icnDelayRate = rate * 0.2;
    return s;
}

std::string
FaultSpec::toJson() const
{
    FaultSpec copy = *this;
    return specjson::write(jsonFields(copy));
}

bool
FaultSpec::fromJson(const std::string &text, FaultSpec &out,
                    std::string *why)
{
    FaultSpec s;
    if (!specjson::read(text, jsonFields(s), why))
        return false;
    out = s;
    return true;
}

// --- FaultReport -----------------------------------------------------

std::string
FaultReport::summary() const
{
    if (!enabled)
        return "faults disabled";
    std::ostringstream os;
    if (ok())
        os << "ok";
    else if (watchdogFired)
        os << "WATCHDOG";
    else if (wedged)
        os << "WEDGED";
    else
        os << "CORRUPT";
    os << ", " << injected() << " injected";
    if (injected() > 0) {
        os << " (";
        bool first = true;
        auto item = [&](const char *nm, std::uint64_t n) {
            if (n == 0)
                return;
            if (!first)
                os << " ";
            first = false;
            os << nm << "=" << n;
        };
        item("drop", icnDropped);
        item("corrupt", icnCorrupted);
        item("delay", icnDelayed);
        item("stall", semStalls);
        item("flip", markerFlips);
        item("stick", markerSticks);
        item("wedge", syncWedges);
        item("dead", deadClusters);
        os << ")";
    }
    if (integrityChecked)
        os << (integrityFailed ? ", integrity FAILED"
                               : ", integrity passed");
    return os.str();
}

// --- FaultPlan -------------------------------------------------------

FaultPlan::FaultPlan(const FaultSpec &spec) : spec_(spec)
{
    spec_.validate();
}

void
FaultPlan::bindClusters(std::uint32_t num_clusters)
{
    if (streams_.size() < num_clusters + 1u)
        streams_.resize(num_clusters + 1u);
}

void
FaultPlan::beginRun()
{
    tally_ = FaultReport{};
    tally_.enabled = true;
    // Dead clusters scope to one run: a wedged run is torn down and
    // re-wired (repair()), a clean run left the array drained.
    deadMask_ = 0;
}

FaultPlan::Stream &
FaultPlan::stream(std::uint32_t s)
{
    snap_assert(s < streams_.size(),
                "fault stream %u of %zu (bindClusters not called?)",
                s, streams_.size());
    return streams_[s];
}

std::uint64_t
FaultPlan::drawOn(std::uint32_t s, FaultKind k)
{
    std::size_t i = static_cast<std::size_t>(k);
    std::uint64_t x = spec_.seed;
    x ^= kindSalt[i];
    x += 0x9e3779b97f4a7c15ull * (stream(s)[i]++ + 1);
    x += 0xc2b2ae3d27d4eb4full * generation_;
    // Stream 0 (the machine) reproduces the historical single-stream
    // draws exactly; cluster streams diverge by this term.
    x += 0x94d049bb133111ebull * s;
    return splitmix64(x);
}

double
FaultPlan::drawUnit(FaultKind k)
{
    return drawUnitOn(0, k);
}

double
FaultPlan::drawUnitOn(std::uint32_t s, FaultKind k)
{
    return static_cast<double>(drawOn(s, k) >> 11) * 0x1.0p-53;
}

bool
FaultPlan::rollOn(std::uint32_t s, FaultKind k, double rate)
{
    // Advance the stream exactly once per visit even at rate 0, so a
    // site's draw history is independent of the other sites' rates.
    return drawUnitOn(s, k) < rate;
}

bool
FaultPlan::rollIcnDrop(ClusterId c)
{
    if (!rollOn(c + 1, FaultKind::IcnDrop, spec_.icnDropRate))
        return false;
    ++tally_.icnDropped;
    return true;
}

bool
FaultPlan::rollIcnCorrupt(ClusterId c)
{
    if (!rollOn(c + 1, FaultKind::IcnCorrupt, spec_.icnCorruptRate))
        return false;
    ++tally_.icnCorrupted;
    return true;
}

bool
FaultPlan::rollIcnDelay(ClusterId c)
{
    if (!rollOn(c + 1, FaultKind::IcnDelay, spec_.icnDelayRate))
        return false;
    ++tally_.icnDelayed;
    return true;
}

bool
FaultPlan::rollSemStall(ClusterId c)
{
    if (!rollOn(c + 1, FaultKind::SemStall, spec_.semStallRate))
        return false;
    ++tally_.semStalls;
    return true;
}

bool
FaultPlan::rollRun(FaultKind k, double rate)
{
    return rollOn(0, k, rate);
}

namespace
{

float
perturb(std::uint64_t r, float v)
{
    // Deterministic finite perturbation: a wrong-but-plausible marker
    // value, never NaN/inf (those would poison comparisons downstream
    // of the detection layer itself).
    float delta = 1.0f + static_cast<float>(r % 7);
    float out = (r & 8) ? v + delta : v - delta;
    if (!std::isfinite(out))
        out = delta;
    return out;
}

} // namespace

float
FaultPlan::corruptValue(ClusterId c, float v)
{
    return perturb(draw(c, FaultKind::IcnCorrupt), v);
}

float
FaultPlan::corruptValue(float v)
{
    return perturb(draw(FaultKind::IcnCorrupt), v);
}

void
FaultPlan::markDead(ClusterId c)
{
    if (c < 64)
        deadMask_ |= 1ull << c;
}

void
FaultPlan::bumpGeneration()
{
    ++generation_;
    for (Stream &s : streams_)
        s.fill(0);
    deadMask_ = 0;
}

// --- helpers ---------------------------------------------------------

bool
markersEquivalent(const MarkerStore &a, const MarkerStore &b)
{
    if (a.numNodes() != b.numNodes())
        return false;
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        MarkerId mid = static_cast<MarkerId>(m);
        const BitVector &ba = a.bits(mid);
        const BitVector &bb = b.bits(mid);
        for (std::uint32_t w = 0; w < ba.numWords(); ++w)
            if (ba.word(w) != bb.word(w))
                return false;
        if (!isComplexMarker(mid))
            continue;
        // The planes are equal, so only a's set bits carry values.
        for (NodeId n = ba.findNext(0); n < ba.size();
             n = ba.findNext(n + 1)) {
            if (a.value(mid, n) != b.value(mid, n) ||
                a.origin(mid, n) != b.origin(mid, n))
                return false;
        }
    }
    return true;
}

bool
resultsEquivalent(std::vector<CollectResult> a,
                  std::vector<CollectResult> b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i].sortNodes();
        b[i].sortNodes();
        if (a[i].op != b[i].op || a[i].marker != b[i].marker ||
            a[i].color != b[i].color || a[i].rel != b[i].rel ||
            !(a[i].nodes == b[i].nodes) || !(a[i].links == b[i].links))
            return false;
    }
    return true;
}

bool
programIsPure(const Program &prog)
{
    for (const Instruction &in : prog.instructions()) {
        switch (in.op) {
          case Opcode::Create:
          case Opcode::Delete:
          case Opcode::SetColor:
          case Opcode::SetWeight:
          case Opcode::MarkerCreate:
          case Opcode::MarkerDelete:
          case Opcode::MarkerSetColor:
            return false;
          default:
            break;
        }
    }
    return true;
}

} // namespace snap
