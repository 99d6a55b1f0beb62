#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace snap
{

/**
 * Deterministic fault injection for the *fleet* layer — the shard
 * wire protocol between snaprouter and its shard workers — composing
 * with the machine-level FaultSpec the same way the real SNAP array
 * composes processor faults with interconnect faults.
 *
 * Injection happens on the shard side of the connection, in the
 * Response write path: a response can be delayed (slow shard),
 * corrupted in place (byzantine payload, caught by the protocol's
 * FNV-1a64 response checksum), truncated mid-frame, or the whole
 * connection dropped without a goodbye.  Shard process kill/restart
 * is driven from outside (the chaos soak / CI), not from this spec.
 *
 * Decisions come from the same salted splitmix64 per-kind streams as
 * FaultPlan: every roll is a pure function of (seed, kind, per-kind
 * draw counter).  Responses complete in host completion order, so
 * the *assignment* of faults to responses varies run to run, but the
 * fault stream itself — which rolls fire, in which order per kind —
 * is seed-reproducible.
 */

/// Everything the fleet layer can inject, indexing per-kind counters.
enum class FleetFaultKind : std::uint8_t {
    ConnDrop = 0,  ///< connection shut down instead of responding
    Truncate,      ///< frame header sent, payload cut short, then EOF
    Corrupt,       ///< one response payload byte flipped (byzantine)
    Delay,         ///< response held back delayMs (slow shard)
    NumKinds,
};

constexpr std::size_t numFleetFaultKinds =
    static_cast<std::size_t>(FleetFaultKind::NumKinds);

const char *fleetFaultKindName(FleetFaultKind k);

/// Static description of a fleet fault workload.  All-zero rates mean
/// "no plan at all": the shard write path is byte-identical to one
/// carrying no spec.
struct FleetFaultSpec {
    std::uint64_t seed = 0;

    // Per-response rates: probability per Response write.
    double connDropRate = 0.0;
    double truncateRate = 0.0;
    double corruptRate = 0.0;
    double delayRate = 0.0;

    /// Slow-shard magnitude (host milliseconds).
    double delayMs = 25.0;

    /// True when any rate is non-zero.
    bool any() const;

    /// Range-check every field; snap_fatal on nonsense.
    void validate() const;

    /// Convenience for the tools' --fleet-fault-rate flag: aggregate
    /// rate @p rate split 25% drop / 25% truncate / 25% corrupt /
    /// 25% delay.
    static FleetFaultSpec wireFaults(std::uint64_t seed, double rate);

    /// Serialize to a JSON object (stable key order).
    std::string toJson() const;

    /// Parse the flat object toJson() writes, as strictly as
    /// FaultSpec::fromJson.
    static bool fromJson(const std::string &text, FleetFaultSpec &out,
                         std::string *why = nullptr);
};

/**
 * The live schedule.  One plan per shard server; rolls arrive from
 * concurrent per-connection/worker threads, so the per-kind counters
 * sit behind a mutex — cross-kind draw independence and per-kind
 * stream determinism still hold.
 */
class FleetFaultPlan
{
  public:
    explicit FleetFaultPlan(const FleetFaultSpec &spec);

    const FleetFaultSpec &spec() const { return spec_; }

    // Each roll advances its kind's counter exactly once per call,
    // hit or miss, so one site's history is independent of the
    // others' rates.
    bool rollConnDrop();
    bool rollTruncate();
    bool rollCorrupt();
    bool rollDelay();

    /// Raw entropy on @p k's stream (e.g. corrupt byte index).
    std::uint64_t draw(FleetFaultKind k);

    // Injection tallies (what fired).
    std::uint64_t connDrops() const { return get(connDrops_); }
    std::uint64_t truncates() const { return get(truncates_); }
    std::uint64_t corrupts() const { return get(corrupts_); }
    std::uint64_t delays() const { return get(delays_); }
    std::uint64_t injected() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return connDrops_ + truncates_ + corrupts_ + delays_;
    }

  private:
    bool rollOn(FleetFaultKind k, double rate);

    std::uint64_t
    get(const std::uint64_t &field) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return field;
    }

    FleetFaultSpec spec_;
    mutable std::mutex mu_;
    std::uint64_t counters_[numFleetFaultKinds] = {};
    std::uint64_t connDrops_ = 0;
    std::uint64_t truncates_ = 0;
    std::uint64_t corrupts_ = 0;
    std::uint64_t delays_ = 0;
};

} // namespace snap
