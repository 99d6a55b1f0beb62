/**
 * @file
 * ShardRouter: consistent-hash front door for N shard processes.
 *
 * Placement: stateless requests hash Program::contentHash onto the
 * ring — identical queries always land on the same shard, where they
 * meet on that shard's answer cache; session requests hash the
 * session id, so a session's marker state accumulates on exactly one
 * shard.  Each shard connection has a bounded in-flight window;
 * submit() blocks (backpressure) when the target window is full.
 *
 * Replication (replication >= 2): every key range has R distinct
 * owner shards in ring order.  Stateless requests fail over to the
 * next live shard when their owner dies (and can be *hedged* — a
 * duplicate sent to a replica when the owner sits on a response
 * longer than hedgeDelayMs; first answer wins, the loser is
 * dropped).  Sessions are pinned to a primary owner with a
 * designated backup from the replica set, kept warm by an async
 * replicator that copies marker state to the backup after each
 * completed turn.  A hard-killed primary promotes the backup: the
 * in-flight turn fails (its execution fate is unknown — replaying
 * it could double-apply), but the session continues from the last
 * replicated state.  Bounded loss, never a wrong answer.
 *
 * Planned drains (drainShard) are lossless: dispatch to the shard
 * pauses, its window empties, every pinned session's marker state is
 * pulled and pushed to its backup owner (any live shard if no
 * backup), pins move, and only then does the shard get Shutdown —
 * zero dropped sessions on a planned drain.
 *
 * Fault handling is typed end to end: the endpoint layer reports
 * *why* I/O failed (connect refused, probe timeout, mid-frame EOF,
 * over-cap, bad type), responses carry an FNV-1a64 checksum so a
 * byzantine-corrupt payload is detected and treated as a dead
 * connection (never served), and down shards are automatically
 * re-dialed in the background (reconnectMs) so a restarted shard
 * process rejoins without operator action.  A session whose primary
 * is down with no warm backup waits out a short revival grace
 * (5 x reconnectMs) before its turn is failed — a connection blip
 * is not a session death; the state is still on the shard.  When
 * every shard is down, requests are answered Failed, never silently
 * dropped.
 *
 * Epoch hot-swap (swapEpoch) is a coordinated barrier: new dispatch
 * pauses, all windows drain, every shard gets Prepare(epoch, path)
 * and must positively ack (it has loaded, validated and staged the
 * image; nothing has flipped yet), then Commit makes each shard
 * re-stamp its pool from the staged image, and dispatch resumes.  A
 * refusal anywhere means no Commit of the new epoch is sent, so the
 * fleet never serves two images (each shard that staged the image
 * gets a Commit of the current epoch, which drops it); after the
 * commits every live shard is probed
 * (a lost Commit ack does not undo a commit) and one not serving the
 * image of a shard on the new epoch is downed.  Every request is
 * served entirely before or entirely after the flip — zero wrong
 * answers and zero drops under live traffic, which
 * ShardFleetTest.EpochHotSwapUnderLoadGivesZeroWrongAnswers and the
 * CI smoke assert.
 */

#ifndef SNAP_SHARD_ROUTER_HH
#define SNAP_SHARD_ROUTER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "shard/endpoint.hh"
#include "shard/hash_ring.hh"
#include "shard/protocol.hh"

namespace snap
{
namespace shard
{

struct RouterConfig
{
    /** Shard endpoints ("unix:/path" or "host:port"), ring order. */
    std::vector<std::string> shards;
    /** Virtual ring points per shard. */
    std::uint32_t vnodes = 64;
    /** Bounded in-flight window per shard; submit() blocks when the
     *  target shard's window is full. */
    std::uint32_t maxInflightPerShard = 64;
    /** How long connect() waits for a booting shard to answer. */
    double connectTimeoutMs = 15000.0;
    /** Re-dispatches of a stateless request to the next live shard
     *  after its shard died. */
    std::uint32_t maxRetries = 2;
    /** Owner shards per key range (1 = the pre-replication single
     *  owner; clamped to the shard count).  At 2 or more, each
     *  session's backup owner is kept warm by replicating its marker
     *  state after every completed turn. */
    std::uint32_t replication = 1;
    /** Hedged retry: a stateless request still unanswered after this
     *  many host ms gets a duplicate on the next live replica (first
     *  answer wins).  0 disables hedging. */
    double hedgeDelayMs = 0.0;
    /** Background re-dial interval for down shards (a restarted
     *  shard process rejoins automatically).  0 disables. */
    double reconnectMs = 200.0;
    /** Head-based trace sampling rate (0..1).  A sampled request
     *  carries a trace context (trace id + per-attempt parent span)
     *  in its Request frames, preserved across hedges, failover
     *  reroutes, and session migration.  0 disables sampling — the
     *  wire bytes are then identical to a pre-trace router. */
    double traceSample = 0.0;
    /** Periodic shard metrics pull (StatsPull frames) every this
     *  many host ms; snapshots feed exportFleetMetrics().  0 = pull
     *  only on demand (pullShardStats). */
    double statsIntervalMs = 0.0;
    /** Requests whose end-to-end host latency reaches this many ms
     *  enter the structured slow-query log.  Negative disables. */
    double slowQueryMs = -1.0;
};

/** One dispatch attempt of one request, for the slow-query log and
 *  the per-attempt trace spans. */
struct RouterHop
{
    std::uint32_t shard = 0;
    /** "primary", "reroute", or "hedge". */
    const char *kind = "primary";
    /** Host-ns send timestamp (trace::hostNowNs clock). */
    std::uint64_t sentNs = 0;
    /** Router-side span id carried as the attempt's traceParent. */
    std::uint64_t spanId = 0;
};

/** One slow-query log record: where a slow request's latency went. */
struct SlowQuery
{
    std::uint64_t traceId = 0;
    std::uint64_t requestId = 0;
    std::string sessionId;
    double totalMs = 0.0;
    /** Shard whose answer won, and the kind of hop that sent it. */
    std::uint32_t winner = 0;
    const char *winnerKind = "primary";
    /** Reroute re-dispatches consumed (not counting the hedge). */
    std::uint32_t retries = 0;
    bool hedged = false;
    std::vector<RouterHop> hops;
};

/** One query handed to the router: the wire's request record.  The
 *  router assigns the id and the trace context itself and ignores
 *  what the caller put there. */
using RouterRequest = RequestFrame;

class ShardRouter
{
  public:
    using ResponseFn = std::function<void(ResponseFrame &&)>;

    explicit ShardRouter(RouterConfig cfg);
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /** Dial + handshake every shard.  @return false with detail on
     *  version/fingerprint mismatch or an unreachable shard. */
    bool connect(std::string &detail);

    /**
     * Route one request.  @p done fires from a router reader thread
     * (or inline on immediate failure); it must not re-enter the
     * router.  Blocks while the target shard's window is full or an
     * epoch swap is in progress — requests are held, never dropped.
     */
    void submit(RouterRequest req, ResponseFn done);

    /** Block until every submitted request has been answered. */
    void drain();

    /**
     * Coordinated-barrier hot-swap to the .kbimg at @p image_path.
     * Pauses dispatch, drains every shard, Prepares all (each shard
     * loads, validates and stages the image), Commits (each shard
     * re-stamps from it), probes, resumes.  @return false with @p err
     * if any shard refuses the Prepare (no shard flipped; those that
     * staged the image are told to drop it) or no shard
     * reports the new epoch after the commits (every live shard is on
     * the old image); dispatch resumes either way.
     */
    bool swapEpoch(const std::string &image_path, std::string &err);

    /**
     * Planned lossless drain of one shard: stop dispatching to it,
     * wait for its window to empty, migrate every session pinned to
     * it (pull marker state, push to the backup owner, re-pin), then
     * send Shutdown.  Concurrent traffic to the shard is re-routed
     * (stateless) or held until the migration lands (sessions).
     * Call from the control thread (not concurrently with
     * swapEpoch).  @return false with @p err when the shard was
     * already down or a session could not be migrated.
     */
    bool drainShard(std::uint32_t shard, std::string &err);

    /**
     * Re-dial a down shard (shard process restarted): tears down the
     * old connection, re-handshakes (fingerprint must still match),
     * and resumes dispatch to it.  Also
     * clears the "retired" mark a drain leaves, so a drained shard
     * can be brought back deliberately.
     */
    bool reviveShard(std::uint32_t shard, std::string &err);

    /** Probe one shard (nonce echo).  A probe *timeout* on a
     *  healthy shard marks it down and fails over its in-flight
     *  work — a wedged shard is as gone as a dead one. */
    bool probeShard(std::uint32_t shard, std::string &err);

    /** Send Shutdown to every live shard (they drain and exit). */
    void shutdownShards();

    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /** Fingerprint agreed at connect (0 before connect). */
    std::uint64_t fingerprint() const { return fingerprint_; }
    std::uint64_t epoch() const { return epoch_; }
    bool shardHealthy(std::uint32_t shard) const;

    /** Typed reason the shard's connection last failed (None while
     *  healthy and never failed). */
    IoErrorKind shardLastError(std::uint32_t shard) const;

    /** Requests answered by a re-dispatch after a shard died. */
    std::uint64_t rerouteCount() const;
    /** Hedged duplicates actually sent. */
    std::uint64_t hedgeCount() const;
    /** Sessions promoted to their backup after a hard kill. */
    std::uint64_t failoverCount() const;
    /** Sessions migrated by planned drains. */
    std::uint64_t migratedCount() const;
    /** Completed warm-backup replications. */
    std::uint64_t warmupCount() const;
    /** Responses rejected as malformed/corrupt (checksum or codec). */
    std::uint64_t corruptResponseCount() const;
    /** Planned drains completed losslessly. */
    std::uint64_t drainCount() const;

    /** Shard clock minus router clock at handshake (trace::hostNowNs
     *  domain), i.e. routerNs - offset ~= the shard's reading of the
     *  same instant. */
    std::int64_t shardClockOffsetNs(std::uint32_t shard) const;

    /**
     * Pull one shard's MetricsRegistry snapshot over the wire
     * (StatsPull / StatsSnapshot) and cache it for
     * exportFleetMetrics().  @return false with @p err when the
     * shard is down or the ack is missing/mismatched.
     */
    bool pullShardStats(std::uint32_t shard, StatsSnapshotFrame &out,
                        std::string &err);

    /**
     * Aggregated fleet view: the router's own counters plus every
     * cached shard snapshot re-emitted with a `shard="N"` label.
     * Snapshots come from the periodic pull (statsIntervalMs) or
     * explicit pullShardStats() calls.
     */
    void exportFleetMetrics(MetricsRegistry &reg) const;

    /** Snapshot of the slow-query log (slowQueryMs >= 0; bounded to
     *  the most recent maxSlowQueries records). */
    std::vector<SlowQuery> slowQueries() const;
    /** Requests ever recorded in the slow-query log, including those
     *  the bounded window has since dropped. */
    std::uint64_t slowQueryCount() const;

    static constexpr std::size_t maxSlowQueries = 1024;

  private:
    using Clock = std::chrono::steady_clock;

    /**
     * One routed request.  Shared between the per-shard pending maps
     * because hedging can register the same request (same wire id)
     * on two shards at once: `answered` makes delivery exactly-once,
     * `copies` counts live map registrations so whichever shard-death
     * sweep orphans the *last* copy decides retry vs fail.
     */
    struct PendingRoute
    {
        RequestFrame frame;
        ResponseFn done;
        bool stateless = true;
        std::atomic<std::uint32_t> attempts{0};
        std::uint64_t routeKey = 0;
        std::atomic<bool> answered{false};
        std::atomic<bool> hedged{false};
        std::atomic<std::uint32_t> copies{0};
        Clock::time_point sentAt{};

        /** Fleet trace id (0 when sampling is off) and the head-based
         *  sampling decision.  Immutable after submit(). */
        std::uint64_t traceId = 0;
        bool sampled = false;
        /** Record per-attempt hops (sampled, or slow-query logging). */
        bool logHops = false;
        std::uint64_t submitNs = 0;
        /** Guards the mutable trace fields of `frame` (traceParent is
         *  re-stamped per attempt) plus `hops` — dispatch of a
         *  reroute and hedgeOne can encode the same frame at once. */
        std::mutex hopMu;
        std::vector<RouterHop> hops;
        std::uint32_t attemptSeq = 0;
    };
    using PendingPtr = std::shared_ptr<PendingRoute>;

    /** A control frame's answer as it came off the wire. */
    struct ControlAck
    {
        FrameType type = FrameType::HealthAck;
        std::vector<std::uint8_t> payload;
    };

    /** One shard connection + its reader thread and window. */
    struct Shard
    {
        Endpoint ep;
        int fd = -1;
        bool up = false;
        std::mutex writeMu;
        std::thread reader;

        std::mutex mu;
        std::condition_variable windowCv;
        std::unordered_map<std::uint64_t, PendingPtr> pending;

        /** Draining flag: no new dispatch while a planned drain is
         *  migrating this shard's sessions. */
        std::atomic<bool> draining{false};
        /** Administratively shut down (drain / shutdownShards): the
         *  background re-dialer leaves it alone. */
        std::atomic<bool> retired{false};
        /** Why the connection last failed. */
        std::atomic<IoErrorKind> lastError{IoErrorKind::None};
        /** Last background re-dial attempt (monitor thread only). */
        Clock::time_point lastReviveAttempt{};

        /** Serializes whole control *operations* (send + ack read):
         *  probes, prepares, commits, session pulls/pushes can come
         *  from the control thread and the replicator at once. */
        std::mutex controlOpMu;

        /** One outstanding control op at a time; its ack lands here
         *  undecoded, and the op checks and decodes it. */
        std::condition_variable controlCv;
        bool controlReady = false;
        ControlAck controlAck;

        /** Shard clock minus router clock at handshake (see
         *  shardClockOffsetNs). */
        std::atomic<std::int64_t> clockOffsetNs{0};
    };

    /** A session's owner pair.  Guarded by pinMu_. */
    struct SessionPin
    {
        std::uint32_t primary = 0;
        std::uint32_t backup = 0;
        bool hasBackup = false;
    };

    enum class ShardState
    {
        Up,
        Draining,
        Down
    };

    void readerMain(std::uint32_t idx);
    /** Mark a shard dead and fail/re-route its in-flight work. */
    void shardDown(std::uint32_t idx);
    /** Pick the live owner for a key (ring walk over down shards).
     *  @p any_draining reports whether a drain (not death) is what
     *  made shards unavailable. */
    bool pickShard(std::uint64_t key, std::uint32_t &out,
                   bool &any_draining);
    /** Pick (and maintain) the pinned shard of a session; promotes
     *  the backup on a dead primary, waits out drains. */
    bool pickSessionShard(const std::string &sid, std::uint64_t key,
                          std::uint32_t &out);
    ShardState shardState(std::uint32_t idx) const;
    std::vector<bool> effectiveDown() const;
    /** Choose a backup for @p pin from the replica set (excluding
     *  its primary and @p excluded). */
    void assignBackup(SessionPin &pin, std::uint64_t key,
                      std::int64_t excluded);
    void dispatch(PendingPtr p);
    void failRequest(const PendingPtr &p);
    void noteDone();
    /** How a control exchange ended: Silent when the shard is down
     *  or does not answer in time, Wrong when its answer has another
     *  type, does not decode, or answers another request. */
    enum class Reply { Ok, Silent, Wrong };
    /** One control exchange with shard @p idx (call under its
     *  controlOpMu): send @p request as a @p type frame, wait up to
     *  @p timeout_ms, and decode the answer as @p ack_type with
     *  @p decode into @p ack; @p echoes checks that it answers this
     *  request (its nonce, session id or epoch).  Unless Ok, @p err
     *  names the shard and @p what ("health probe", ...). */
    template <typename Ack, typename Decode, typename Echo>
    Reply exchange(std::uint32_t idx, FrameType type,
                   const WireWriter &request, FrameType ack_type,
                   Decode decode, Echo echoes, Ack &ack,
                   double timeout_ms, const char *what,
                   std::string &err);
    /** Health probe of shard @p idx; a timeout downs it. */
    bool probe(std::uint32_t idx, HealthAckFrame &ack,
               std::string &err);
    /** Dial + handshake shard @p idx (no reader thread started). */
    bool dialShard(std::uint32_t idx, double timeout_ms,
                   std::string &detail, IoErrorKind &kind);
    bool reviveWith(std::uint32_t idx, double timeout_ms,
                    std::string &err);
    bool pullSession(std::uint32_t idx, const std::string &sid,
                     SessionStateFrame &out, std::string &err);
    bool pushSession(std::uint32_t idx, const std::string &sid,
                     const MarkerStore &markers, std::string &err);
    void enqueueWarmup(const std::string &sid);
    void replicatorMain();
    void monitorMain();
    void hedgeScan();
    void reviveScan();
    void statsScan();
    void hedgeOne(std::uint32_t cur, const PendingPtr &p);
    /** Stamp a fresh per-attempt span id into the frame (under
     *  hopMu) and encode it; @return the span id (0 unsampled). */
    std::uint64_t stampAttempt(PendingRoute &p, WireWriter &w);
    /** Record an attempt's hop before its write; after the write,
     *  emit the "xrpc" flow start or, when it failed, drop the hop. */
    void beginAttempt(PendingRoute &p, const RouterHop &hop);
    void endAttempt(PendingRoute &p, const RouterHop &hop,
                    bool written);
    /** Attempt-span emission + slow-query recording at delivery. */
    void noteDelivered(PendingRoute &p, std::uint32_t shard,
                       std::uint64_t done_ns);

    RouterConfig cfg_;
    HashRing ring_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint64_t fingerprint_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint32_t numNodes_ = 0;

    /** Wire-id allocator (never reused). */
    std::atomic<std::uint64_t> nextId_{1};

    /** Dispatch gate: held shared-style by submit (brief) and
     *  exclusively across an epoch swap. */
    std::mutex dispatchMu_;
    bool swapInProgress_ = false;
    std::condition_variable swapCv_;

    /** Liveness map guarded by downMu_ (readers copy it). */
    mutable std::mutex downMu_;
    std::vector<bool> down_;

    /** Session pin table. */
    mutable std::mutex pinMu_;
    std::condition_variable pinCv_;
    std::unordered_map<std::string, SessionPin> pins_;
    std::uint64_t failovers_ = 0;
    std::uint64_t migrated_ = 0;
    std::uint64_t drains_ = 0;

    /** Warm-backup replication queue (coalesced per session). */
    mutable std::mutex replMu_;
    std::condition_variable replCv_;
    std::deque<std::string> replQueue_;
    std::set<std::string> replQueued_;
    std::uint64_t warmups_ = 0;
    std::thread replicator_;

    /** Hedging + background re-dial. */
    std::mutex monitorMu_;
    std::condition_variable monitorCv_;
    std::thread monitor_;

    mutable std::mutex doneMu_;
    std::condition_variable allDone_;
    std::uint64_t outstanding_ = 0;
    std::uint64_t rerouted_ = 0;
    std::uint64_t hedged_ = 0;
    std::uint64_t corruptResponses_ = 0;

    /** Cached per-shard metrics snapshots (periodic or on-demand
     *  pulls) for exportFleetMetrics. */
    mutable std::mutex statsMu_;
    std::vector<StatsSnapshotFrame> lastStats_;
    Clock::time_point lastStatsPull_{};

    /** Bounded slow-query log (cfg_.slowQueryMs >= 0) and the count
     *  of every record it ever took. */
    mutable std::mutex slowMu_;
    std::deque<SlowQuery> slowLog_;
    std::uint64_t slowLogged_ = 0;

    std::atomic<bool> closing_{false};
};

} // namespace shard
} // namespace snap

#endif // SNAP_SHARD_ROUTER_HH
