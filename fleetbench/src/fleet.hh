/**
 * @file
 * The fleet under test: N shard processes (this binary re-executed in
 * shard mode, each a ShardServer over a unix socket) behind the public
 * ShardRouter in the benchmark process.
 *
 * Bring-up is timed from outside: packing the .kbimg, spawning the
 * shards until each has loaded the image, stamped its replica pool
 * and bound its socket, and ShardRouter::connect().  A shard reports
 * its own loadKbImageFile and ShardServer construction times over the
 * readiness pipe.
 */

#ifndef FLEETBENCH_FLEET_HH
#define FLEETBENCH_FLEET_HH

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "kb/semantic_network.hh"
#include "shard/router.hh"

namespace fleetbench
{

/** Shard processes, and engine workers in each. */
constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kWorkersPerShard = 1;

struct FleetOptions
{
    /** Router replication (2 = sessions get a warm backup). */
    std::uint32_t replication = 1;
    /** Replica fault plan (all-zero = unarmed). */
    snap::FaultSpec faults;
};

/** Timings of one bring-up. */
struct BringUp
{
    double setupS = 0.0;
    /** Slowest shard's loadKbImageFile and ShardServer construction. */
    double loadMs = 0.0;
    double stampMs = 0.0;
    double connectMs = 0.0;
    std::uint64_t imageBytes = 0;
};

class Fleet
{
  public:
    /** @p dir holds the image and sockets (relative to the working
     *  directory, which keeps socket paths short). */
    Fleet(std::string dir, FleetOptions opts);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Pack @p net, spawn the shards, connect the router.  Fatal on
     *  failure (the benchmark cannot measure a broken fleet). */
    BringUp start(const snap::SemanticNetwork &net);

    snap::shard::ShardRouter &router() { return *router_; }

    /** Shut the shards down, reap them, drop the router.  @return
     *  the summed peak resident set of the shard processes (MB), read
     *  from each one's /proc status (VmHWM) just before shutdown. */
    double stop();

  private:
    std::string dir_;
    FleetOptions opts_;
    std::unique_ptr<snap::shard::ShardRouter> router_;
    std::vector<pid_t> pids_;
};

/** Entry point of shard mode (argv after the "--shard" flag). */
int shardMain(int argc, char **argv);

/** SIGKILL every live shard process (watchdog path). */
void killAllShards();

} // namespace fleetbench

#endif // FLEETBENCH_FLEET_HH
