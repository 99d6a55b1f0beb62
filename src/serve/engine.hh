/**
 * @file
 * ServeEngine: the concurrent query-serving engine.
 *
 * Models the deployment the paper argues for — one SNAP-1 knowledge
 * base answering many independent marker-propagation queries — as a
 * host-parallel farm of simulated machines:
 *
 *     submit() ──► bounded MPMC queue ──► worker 0 ─ SnapMachine #0
 *        │  reject-on-full backpressure   worker 1 ─ SnapMachine #1
 *        │                                   ...        ...
 *        └─► callback (or future)  ◄─── completion
 *
 * One immutable master KbImage is compiled at construction; every
 * worker gets a replica stamped from it (SnapMachine::loadKb(image)),
 * so bring-up cost is paid once and all replicas are bit-identical.
 *
 * Determinism guarantees (see docs/serving.md):
 *  - stateless requests run against cleared marker state on an
 *    otherwise-identical replica, so results AND simulated wallTicks
 *    depend only on the program — never on the worker count, the
 *    host scheduler, or what ran before;
 *  - session requests execute in submission order against the
 *    session's marker state, so the state sequence is reproducible;
 *  - every request carries a deterministic seed (requestSeed) echoed
 *    in its response.
 *
 * Answer cache (serve/answer_cache.hh): a stateless request with a
 * pure program is looked up at admission; a hit returns the stored
 * answer of an earlier clean run of the same program, bit-identical
 * to running it again, on the submitting thread, without queueing or
 * touching a replica.  A miss queues, and its worker looks it up
 * again, so an answer admitted while it waited still hits.  Sessions
 * never use the cache, and a hot-swap clears it.
 *
 * Untrusted programs: a program that names a node outside the
 * serving image (the node of CREATE, DELETE, SET-COLOR, SET-WEIGHT or
 * SEARCH-NODE, the end node of CREATE, MARKER-CREATE or
 * MARKER-DELETE) is answered Failed without running, retrying or
 * reaching the integrity shadow.  Everything else the machine could
 * not run — opcodes, markers, rule tokens and sizes out of range —
 * the program codec (isa/encoding.hh) rejects before a program from
 * the wire reaches the engine.
 *
 * Non-goals in this layer: running programs with structural KB edits
 * (CREATE/DELETE) outside a session is undefined — edits would make
 * one replica diverge from the others.  Barrier discipline
 * (runtime/validate) is the submitter's concern.
 */

#ifndef SNAP_SERVE_ENGINE_HH
#define SNAP_SERVE_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "arch/machine.hh"
#include "common/metrics_registry.hh"
#include "fault/fault_plan.hh"
#include "kb/semantic_network.hh"
#include "serve/answer_cache.hh"
#include "serve/metrics.hh"
#include "serve/request.hh"
#include "serve/request_queue.hh"
#include "serve/session_store.hh"

namespace snap
{
namespace serve
{

struct ServeConfig
{
    /** Worker threads == machine replicas. */
    std::uint32_t numWorkers = 2;
    /** Admission-queue capacity; a full queue rejects. */
    std::size_t queueCapacity = 256;
    /** Base of the deterministic per-request seed chain. */
    std::uint64_t baseSeed = 0x5eed5eed5eed5eedull;
    /** Default queue-wait deadline (host ms); 0 = none. */
    double defaultTimeoutMs = 0.0;
    /**
     * Construct workers idle: requests only queue until start() is
     * called.  Gives tests and benches a deterministic
     * enqueue-then-serve boundary.
     */
    bool startPaused = false;
    /**
     * Fault-injection plan armed on every replica (all-zero rates =
     * disabled, the default).  Each worker's plan is re-seeded from
     * faults.seed and the worker index, so replicas inject
     * independent, individually reproducible fault streams, and a
     * retry of a request on the same replica sees fresh draws rather
     * than deterministically re-hitting the same fault.
     */
    FaultSpec faults{};
    /**
     * Recovery policy: how many times a worker re-executes a request
     * whose run tripped fault detection (wedge, simulated-time
     * watchdog, or integrity-check failure) before answering Failed.
     * 0 = fail fast.  Detection always wins over delivery: a
     * corrupted answer is never returned.
     */
    std::uint32_t maxRetries = 3;
    /**
     * Health scoring: a replica whose runs trip fault detection this
     * many times consecutively (no intervening clean run) is
     * quarantined — re-stamped from the master image and its fault
     * stream re-seeded.  0 disables quarantine.
     */
    std::uint32_t quarantineThreshold = 3;
    /**
     * Graceful degradation: once this many faults have been detected
     * engine-wide without an intervening success (a "fault storm"),
     * stateless requests are shed at admission (status Rejected)
     * until a run succeeds.  Session requests are never shed.
     * 0 = never shed (default).
     */
    std::uint32_t shedThreshold = 0;
    /**
     * Replica machine configuration.  The performance-collection
     * network defaults off for serving: its record FIFO grows per
     * run, which a long-lived replica must not.
     */
    MachineConfig machine;

    ServeConfig() { machine.perfNetEnabled = false; }
};

class ServeEngine
{
  public:
    /** Compiles the master image and spins up the worker pool. */
    ServeEngine(const SemanticNetwork &net, ServeConfig cfg);

    /**
     * Adopt a pre-compiled master image (the .kbimg bulk-load path:
     * a shard process deserializes the image and stamps replicas
     * from it without ever re-partitioning or re-compiling).  @p net
     * must be the network the image was compiled from; @p image must
     * be non-null.  cfg.machine.numClusters is overridden to the
     * image's cluster count.
     */
    ServeEngine(const SemanticNetwork &net,
                std::unique_ptr<KbImage> image, ServeConfig cfg);

    /** Drains admissions, joins workers. */
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * Admission control.  Assigns id/seed, applies the default
     * deadline, and answers from the answer cache or enqueues.
     * @p done is invoked exactly once with the response, from the
     * worker that served the request or from the submitting thread:
     * for an answer-cache hit (queueMs 0, worker 0), and on immediate
     * rejection (status Rejected, when the queue is full or the
     * engine is shut down).  The shard server's delivery mode: its
     * connection writers serialize responses straight out of the
     * callback instead of parking a thread per in-flight request.
     * @p done must not re-enter the engine.
     */
    void submit(Request req, std::function<void(Response &&)> done);

    /** submit() with the response delivered through a future. */
    std::future<Response> submit(Request req);

    /**
     * Epoch hot-swap: replace the master image (and every replica's
     * stamped copy) with @p image, compiled from @p net.  Blocks new
     * admissions, drains everything already admitted, re-stamps the
     * pool, then reopens — so every request executes entirely against
     * the old image or entirely against the new one, never a mix.
     * Session marker state is preserved; the node count must match
     * the serving image (session stores and wire node ids are sized
     * by it).  Cluster-count and node-count mismatches are reported
     * by returning false with @p err set (typed rejection, not
     * fatal: the input is an operator-supplied file).
     * Must be called from a non-worker thread.
     */
    bool swapImage(const SemanticNetwork &net,
                   std::unique_ptr<KbImage> image, std::string &err);

    /** swapImage's checks alone: would @p image, compiled from
     *  @p net, be accepted?  @return false with @p err set. */
    bool checkImage(const SemanticNetwork &net, const KbImage &image,
                    std::string &err) const;

    /** Launch the workers of a startPaused engine (idempotent). */
    void start();

    /** Block until every admitted request has a response. */
    void drain();

    /** Stop admissions, drain the queue, join the workers.  Called
     *  by the destructor; safe to call explicitly first. */
    void shutdown();

    MetricsSnapshot metricsSnapshot() const;

    /**
     * Unified observability export: pushes the serving counters
     * (snap_serve_*, answer cache included), the aggregated
     * simulated-execution breakdown of every run attempt
     * (snap_exec_*), and each replica's component stats (ICN, perf
     * net, sync tree, queues; labelled
     * worker="N") into one MetricsRegistry.  Replica component stats
     * are read without synchronization, so call after drain() or
     * shutdown() for exact values; mid-flight reads are approximate.
     */
    void exportMetrics(MetricsRegistry &reg) const;

    /** Marker state of session @p id (checkpoint via
     *  runtime/snapshot's saveMarkersFile). */
    MarkerStore sessionMarkers(const std::string &id) const;
    std::vector<std::string> sessionIds() const;

    /** Non-asserting checkpoint pull: false when the session does
     *  not exist on this engine. */
    bool trySessionMarkers(const std::string &id, MarkerStore &out) const;

    /** Restore (create-or-overwrite) session @p id from a
     *  checkpoint.  Rejects a node-count mismatch with @p err set
     *  (typed: the checkpoint crossed a trust boundary). */
    bool restoreSession(const std::string &id, MarkerStore state,
                        std::string &err);

    const KbImage &sharedImage() const { return *master_; }
    const AnswerCache &answerCache() const { return cache_; }
    std::uint32_t numWorkers() const { return cfg_.numWorkers; }
    const ServeConfig &config() const { return cfg_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        Request req;
        /** Delivers the response (exactly once). */
        std::function<void(Response &&)> callback;
        Clock::time_point enqueuedAt;
        Clock::time_point deadline;
        bool hasDeadline = false;
        std::uint64_t sessionSeq = 0;
        /** Host-ns admission timestamp (trace epoch); 0 when tracing
         *  was off at admission.  Anchors the queue.wait span. */
        std::uint64_t traceAdmitNs = 0;
        /** A stateless pure program: the worker looks it up in the
         *  answer cache under its Program::contentHash. */
        bool cacheable = false;
        std::uint64_t hash = 0;
    };

    /** What admit() did with a request. */
    enum class Admission
    {
        /** Queued for a worker. */
        Queued,
        /** Answered from the answer cache: the answer is in the
         *  early response, and the request stays outstanding until
         *  it is delivered. */
        Hit,
        /** Rejected or shed: the early response says which. */
        Refused,
    };

    void workerMain(std::uint32_t idx);
    void serveOne(std::uint32_t idx, std::unique_ptr<Pending> p);
    Admission admit(Request &&req, std::unique_ptr<Pending> &pending,
                    Response &early);
    void deliverResponse(std::unique_ptr<Pending> p, Response &&resp);
    void noteDone();
    std::uint64_t outstandingCount() const;
    /** Fold one run attempt's ExecBreakdown into the engine-wide
     *  aggregate (under statsMu_). */
    void accumulateRunStats(const ExecBreakdown &stats);

    // --- recovery machinery -------------------------------------------
    /** Repair, score health, maybe quarantine, bump the storm. */
    void noteReplicaFault(std::uint32_t idx, const FaultReport &r);
    void noteReplicaOk(std::uint32_t idx);
    /** Re-stamp the replica from the master image and re-seed its
     *  fault stream. */
    void quarantineReplica(std::uint32_t idx);

    ServeConfig cfg_;
    std::unique_ptr<KbImage> master_;
    /** Functional shadow of the KB for integrity checks (only
     *  allocated when fault injection is armed). */
    std::unique_ptr<SemanticNetwork> shadowNet_;
    std::vector<std::unique_ptr<SnapMachine>> machines_;
    /** Consecutive detected faults per replica (owning worker thread
     *  only). */
    std::vector<std::uint32_t> health_;
    /** Engine-wide consecutive detected faults (any worker); reset on
     *  any clean run.  Drives admission shedding. */
    std::atomic<std::uint32_t> stormFaults_{0};

    BoundedQueue<std::unique_ptr<Pending>> queue_;
    SessionStore sessions_;
    ServeMetrics metrics_;
    /** Answers of clean stateless runs against master_. */
    AnswerCache cache_;
    Clock::time_point startedAt_;

    /** Engine-wide sum of every run attempt's ExecBreakdown (the
     *  simulated-execution island of exportMetrics).  msgsPerEpoch
     *  is dropped on each merge so a long-lived engine stays
     *  bounded. */
    mutable std::mutex statsMu_;
    ExecBreakdown aggExec_;

    /** Admission lock: id/seed assignment, session sequencing, the
     *  answer-cache probe and the queue push happen atomically, so
     *  queue order == session order and swapImage's drain covers
     *  every hit it did not flush. */
    std::mutex admitMu_;
    std::uint64_t nextId_ = 0;

    /** drain() bookkeeping: admitted-but-unanswered requests. */
    mutable std::mutex doneMu_;
    std::condition_variable allDone_;
    std::uint64_t outstanding_ = 0;

    std::mutex lifecycleMu_;
    std::vector<std::thread> workers_;
    bool started_ = false;
    bool shutdown_ = false;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_ENGINE_HH
