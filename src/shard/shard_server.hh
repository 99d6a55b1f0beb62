/**
 * @file
 * ShardServer: one serving process of a sharded snapshard deployment.
 *
 * Wraps a ServeEngine (replica pool stamped from a deserialized
 * .kbimg master — never recompiled) behind the shard protocol: an
 * accept loop hands each connection to a reader thread that decodes
 * frames, submits Request frames through the engine's callback
 * delivery mode, and answers control frames inline.  Responses are
 * written from engine worker threads as requests complete (serialized
 * per connection), so a slow query never head-of-line-blocks the
 * answers behind it.
 *
 * Epoch hot-swap: a Prepare frame names a .kbimg generation; the
 * server bulk-loads it, validates it against the serving image
 * (ServeEngine::checkImage; typed rejection on a corrupt or
 * mismatched file) and stages it — the old image keeps serving.  The
 * positive PrepareAck is the router's barrier token.  The Commit of
 * the same epoch swaps the staged image in (ServeEngine::swapImage
 * drains in-flight work and re-stamps every replica) and flips the
 * advertised fingerprint and epoch, so a swap the router abandons
 * after a refusal elsewhere never flips this shard; the router then
 * sends a Commit of the epoch it stays on, and a Commit of any epoch
 * but the staged one drops the staged image.  Sessions survive
 * the swap (marker state is keyed by global node ids and the node
 * count is checked).
 */

#ifndef SNAP_SHARD_SHARD_SERVER_HH
#define SNAP_SHARD_SHARD_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/kb_image_io.hh"
#include "fault/fleet_fault.hh"
#include "serve/engine.hh"
#include "shard/endpoint.hh"
#include "shard/protocol.hh"

namespace snap
{
namespace shard
{

struct ShardServerConfig
{
    /** Listen endpoint ("unix:/path" or "host:port"). */
    std::string listen;
    /** Engine configuration (numClusters is overridden by the
     *  image's partition). */
    serve::ServeConfig serve;
    /** Wire-layer fault injection on the Response write path (chaos
     *  testing).  All-zero rates = no injection at all. */
    FleetFaultSpec fleetFaults;
};

class ShardServer
{
  public:
    /** Adopt a loaded .kbimg (network + compiled image).  The engine
     *  stamps its replica pool from the image — no recompilation. */
    ShardServer(KbImageFile kb, ShardServerConfig cfg);
    ~ShardServer();

    ShardServer(const ShardServer &) = delete;
    ShardServer &operator=(const ShardServer &) = delete;

    /** Bind + listen.  @return false with @p detail on failure. */
    bool bind(std::string &detail);

    /**
     * Accept/serve until a Shutdown frame arrives or stop() is
     * called.  Blocks; run it on a dedicated thread for in-process
     * use.  Connections are served concurrently.
     */
    void run();

    /** Unblock run() (idempotent; callable from any thread). */
    void stop();

    std::uint64_t epoch() const
    {
        return epoch_.load(std::memory_order_acquire);
    }

    std::uint64_t fingerprint() const
    {
        return fingerprint_.load(std::memory_order_acquire);
    }

    /** Epoch of the image a Prepare left staged; 0 when none. */
    std::uint64_t stagedEpoch() const;

    serve::ServeEngine &engine() { return *engine_; }

    /** Live fleet fault schedule, or nullptr when none is armed. */
    const FleetFaultPlan *fleetPlan() const { return fleetPlan_.get(); }

  private:
    void serveConnection(int fd);
    /** @return false to drop the connection.  @p conn is the
     *  connection ordinal (trace tid of this connection's serve
     *  spans). */
    bool handleFrame(int fd, std::uint32_t conn, std::mutex &write_mu,
                     FrameType type,
                     const std::vector<std::uint8_t> &payload);
    void handleRequest(int fd, std::uint32_t conn,
                       std::mutex &write_mu, serve::Request &&req);
    void writeResponseWithFaults(int fd, std::mutex &write_mu,
                                 std::uint64_t wire_id,
                                 std::vector<std::uint8_t> bytes);
    void handlePrepare(int fd, std::mutex &write_mu,
                       const PrepareFrame &frame);
    /** Swap in the image staged for @p epoch, or drop an image
     *  staged for another epoch.  @return the epoch now served
     *  (unchanged when nothing was staged for @p epoch). */
    std::uint64_t commitStaged(std::uint64_t epoch);

    ShardServerConfig cfg_;
    Endpoint endpoint_;
    /** Current generation's logical network (swapped with the
     *  image under swapMu_). */
    SemanticNetwork net_;
    std::unique_ptr<serve::ServeEngine> engine_;
    std::unique_ptr<FleetFaultPlan> fleetPlan_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> fingerprint_{0};
    /** Serializes Prepare and Commit handling (one swap at a
     *  time); guards the staged image. */
    mutable std::mutex swapMu_;
    /** The image the last accepted Prepare staged, and its epoch. */
    std::unique_ptr<KbImageFile> staged_;
    std::uint64_t stagedEpoch_ = 0;

    std::atomic<bool> stopping_{false};
    std::mutex connMu_;
    /** Listener: set by bind(); closed by run() on its way out, or by
     *  the destructor when run() never ran.  stop() only shuts it
     *  down.  Written after bind() only under connMu_. */
    int listenFd_ = -1;
    std::vector<std::thread> connThreads_;
    /** Open connection fds; a reader unlists its fd before closing
     *  it. */
    std::vector<int> connFds_;
    /** Connection ordinal allocator (trace tids). */
    std::atomic<std::uint32_t> connSeq_{0};
};

} // namespace shard
} // namespace snap

#endif // SNAP_SHARD_SHARD_SERVER_HH
