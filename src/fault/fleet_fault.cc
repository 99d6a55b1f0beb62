#include "fault/fleet_fault.hh"

#include <array>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/spec_json.hh"

namespace snap
{

namespace
{

/// Per-kind stream salts (arbitrary odd constants, distinct from the
/// machine FaultPlan's so composed specs sharing a seed stay
/// independent).
constexpr std::uint64_t kindSalt[numFleetFaultKinds] = {
    0x6a09e667f3bcc909ull, // ConnDrop
    0xbb67ae8584caa73bull, // Truncate
    0x3c6ef372fe94f82bull, // Corrupt
    0xa54ff53a5f1d36f1ull, // Delay
};

double
rateOf(const FleetFaultSpec &s, FleetFaultKind k)
{
    switch (k) {
      case FleetFaultKind::ConnDrop: return s.connDropRate;
      case FleetFaultKind::Truncate: return s.truncateRate;
      case FleetFaultKind::Corrupt: return s.corruptRate;
      case FleetFaultKind::Delay: return s.delayRate;
      default: return 0.0;
    }
}

/// FleetFaultSpec's JSON keys, in toJson order.
std::array<specjson::Field, 6>
jsonFields(FleetFaultSpec &s)
{
    return {{
        {"seed", nullptr, &s.seed},
        {"conn_drop", &s.connDropRate},
        {"truncate", &s.truncateRate},
        {"corrupt", &s.corruptRate},
        {"delay", &s.delayRate},
        {"delay_ms", &s.delayMs},
    }};
}

} // namespace

const char *
fleetFaultKindName(FleetFaultKind k)
{
    switch (k) {
      case FleetFaultKind::ConnDrop: return "conn_drop";
      case FleetFaultKind::Truncate: return "truncate";
      case FleetFaultKind::Corrupt: return "corrupt";
      case FleetFaultKind::Delay: return "delay";
      default: return "?";
    }
}

// --- FleetFaultSpec --------------------------------------------------

bool
FleetFaultSpec::any() const
{
    for (std::size_t k = 0; k < numFleetFaultKinds; ++k)
        if (rateOf(*this, static_cast<FleetFaultKind>(k)) > 0.0)
            return true;
    return false;
}

void
FleetFaultSpec::validate() const
{
    for (std::size_t k = 0; k < numFleetFaultKinds; ++k) {
        FleetFaultKind kind = static_cast<FleetFaultKind>(k);
        double r = rateOf(*this, kind);
        if (!(r >= 0.0 && r <= 1.0))
            snap_fatal("fleet fault rate %s=%g outside [0,1]",
                       fleetFaultKindName(kind), r);
    }
    if (!(delayMs >= 0.0))
        snap_fatal("fleet fault delay_ms %g must be >= 0", delayMs);
}

FleetFaultSpec
FleetFaultSpec::wireFaults(std::uint64_t seed, double rate)
{
    if (!(rate >= 0.0 && rate <= 1.0))
        snap_fatal("--fleet-fault-rate %g outside [0,1]", rate);
    FleetFaultSpec s;
    s.seed = seed;
    s.connDropRate = rate * 0.25;
    s.truncateRate = rate * 0.25;
    s.corruptRate = rate * 0.25;
    s.delayRate = rate * 0.25;
    return s;
}

std::string
FleetFaultSpec::toJson() const
{
    FleetFaultSpec copy = *this;
    return specjson::write(jsonFields(copy));
}

bool
FleetFaultSpec::fromJson(const std::string &text, FleetFaultSpec &out,
                         std::string *why)
{
    FleetFaultSpec s;
    if (!specjson::read(text, jsonFields(s), why))
        return false;
    out = s;
    return true;
}

// --- FleetFaultPlan --------------------------------------------------

FleetFaultPlan::FleetFaultPlan(const FleetFaultSpec &spec) : spec_(spec)
{
    spec_.validate();
}

std::uint64_t
FleetFaultPlan::draw(FleetFaultKind k)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t i = static_cast<std::size_t>(k);
    std::uint64_t x = spec_.seed;
    x ^= kindSalt[i];
    x += 0x9e3779b97f4a7c15ull * (counters_[i]++ + 1);
    return splitmix64(x);
}

bool
FleetFaultPlan::rollOn(FleetFaultKind k, double rate)
{
    // Advance the stream exactly once per visit even at rate 0, so a
    // site's draw history is independent of the other sites' rates.
    return static_cast<double>(draw(k) >> 11) * 0x1.0p-53 < rate;
}

bool
FleetFaultPlan::rollConnDrop()
{
    if (!rollOn(FleetFaultKind::ConnDrop, spec_.connDropRate))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    ++connDrops_;
    return true;
}

bool
FleetFaultPlan::rollTruncate()
{
    if (!rollOn(FleetFaultKind::Truncate, spec_.truncateRate))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    ++truncates_;
    return true;
}

bool
FleetFaultPlan::rollCorrupt()
{
    if (!rollOn(FleetFaultKind::Corrupt, spec_.corruptRate))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    ++corrupts_;
    return true;
}

bool
FleetFaultPlan::rollDelay()
{
    if (!rollOn(FleetFaultKind::Delay, spec_.delayRate))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    ++delays_;
    return true;
}

} // namespace snap
