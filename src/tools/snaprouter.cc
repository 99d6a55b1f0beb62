/**
 * @file
 * snaprouter — consistent-hash front door for sharded snapserve.
 *
 *   snaprouter <kb.snapkb|kb.kbimg> <requests.txt> --shard EP
 *              [--shard EP ...] [options]
 *     --shard ENDPOINT    one shard worker ("unix:/path" or
 *                         "host:port"); repeat per shard
 *     --vnodes N          virtual ring points per shard (default 64)
 *     --window N          max in-flight requests per shard
 *                         (1..2^32-1, default 64)
 *     --retries N         stateless re-dispatches after a shard
 *                         death (default 2)
 *     --timeout-ms X      per-request queue deadline on the shard
 *     --seed N            base of the per-request seed chain
 *     --connect-ms X      how long to wait for booting shards
 *     --replication N     owner shards per key range (default 1);
 *                         N >= 2 gives stateless requests failover
 *                         replicas and every session a warm backup
 *     --hedge-ms X        hedged retry: duplicate a stateless
 *                         request onto a replica when its owner has
 *                         sat on it for X host ms (default off)
 *     --drain K@N         planned drain: after the N-th request has
 *                         been submitted, migrate every session off
 *                         shard K and retire it (repeatable; zero
 *                         dropped sessions is the contract)
 *     --swap-epoch SPEC   hot-swap the KB mid-run: "FILE@K" swaps
 *                         every shard to the .kbimg FILE after the
 *                         K-th request has been submitted (in-flight
 *                         traffic drains first; zero wrong answers)
 *     --answers-out FILE  write the canonical answer text (same
 *                         format as snapserve --answers-out)
 *     --trace-out FILE    write the router's Chrome trace-event
 *                         JSON: per-attempt rpc spans with "xrpc"
 *                         flow starts into the shards' traces, plus
 *                         the clock_sync offsets snaptrace merge
 *                         uses to align the process timelines
 *     --trace-categories L comma category list (default all)
 *     --trace-sample X    head-based sampling rate 0..1 (default 1
 *                         when --trace-out is given, else 0); the
 *                         decision is deterministic per request and
 *                         sticks across hedges/failover/migration
 *     --stats-interval-ms X pull every shard's metrics snapshot
 *                         over the wire every X ms (default off;
 *                         a final pull always happens when
 *                         --fleet-metrics is given)
 *     --fleet-metrics FILE write the aggregated fleet metrics
 *                         (router counters + per-shard snapshots
 *                         labelled shard="N")
 *     --fleet-metrics-format F json (default) | prometheus
 *     --slow-query-ms X   record requests slower than X host ms in
 *                         the structured slow-query log
 *     --slow-log FILE     write the slow-query log as JSON lines
 *                         (default stderr summary only)
 *     --shutdown          send Shutdown to every shard when done
 *     --quiet             suppress per-request result lines
 *
 * The request file format is snapserve's.  The router needs the same
 * knowledge base the shards serve only to assemble programs and to
 * print symbolic names; the compiled tables live in the shards.
 *
 * Stateless requests are hashed by Program::contentHash, sessions by
 * session id — a session's marker state accumulates on exactly one
 * shard.  See docs/sharding.md for the wire protocol and the epoch
 * state machine.
 *
 * Exit status follows the tools' convention (tools/cli.hh); any
 * answer that is not Ok, a failed drain or a failed swap exits 1.
 */

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/metrics_registry.hh"
#include "common/strutil.hh"
#include "shard/answers.hh"
#include "shard/router.hh"
#include "tools/cli.hh"
#include "trace/trace.hh"

using namespace snap;

namespace
{

const char *const kUsage =
    "usage: snaprouter <kb> <requests.txt> --shard EP "
    "[--shard EP ...] [options]\n"
    "  --shard ENDPOINT    a shard worker (repeatable)\n"
    "  --vnodes N          ring points per shard (default 64)\n"
    "  --window N          max in-flight per shard (default 64)\n"
    "  --retries N         stateless re-dispatch budget "
    "(default 2)\n"
    "  --timeout-ms X      per-request deadline, host ms\n"
    "  --seed N            base request-seed chain\n"
    "  --connect-ms X      shard boot wait (default 15000)\n"
    "  --replication N     owner shards per key range "
    "(default 1)\n"
    "  --hedge-ms X        hedge stateless requests after X ms\n"
    "  --drain K@N         drain shard K after N submits "
    "(repeatable)\n"
    "  --swap-epoch FILE@K hot-swap to FILE after K submits\n"
    "  --answers-out FILE  write canonical answer text\n"
    "  --trace-out FILE    write router Chrome trace JSON\n"
    "  --trace-categories L trace category list (default all)\n"
    "  --trace-sample X    sampling rate 0..1 (default 1 with "
    "--trace-out)\n"
    "  --stats-interval-ms X periodic shard metrics pull\n"
    "  --fleet-metrics FILE write aggregated fleet metrics\n"
    "  --fleet-metrics-format F json|prometheus\n"
    "  --slow-query-ms X   slow-query log threshold, host ms\n"
    "  --slow-log FILE     slow-query log as JSON lines\n"
    "  --shutdown          send Shutdown to shards when done\n"
    "  --quiet             suppress per-request lines\n";

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args("snaprouter", kUsage, argc, argv);
    shard::RouterConfig cfg;
    cli::TraceFlags tracing;
    tracing.sampling = true;
    cli::MetricsFlags metrics("--fleet-metrics", "--fleet-metrics-format");
    double timeout_ms = 0.0;
    std::uint64_t base_seed = 1;
    std::string answers_path;
    std::string swap_path;
    std::size_t swap_after = 0;
    // Planned drains, as (submit index, shard) pairs.
    std::vector<std::pair<std::size_t, std::uint32_t>> drains;
    bool do_shutdown = false;
    bool quiet = false;
    std::string slow_log_path;

    while (args.nextFlag()) {
        if (tracing.take(args) || metrics.take(args))
            continue;
        if (args.is("--shard")) {
            cfg.shards.push_back(args.value());
        } else if (args.is("--vnodes")) {
            cfg.vnodes = static_cast<std::uint32_t>(
                args.intValue(1, 4096, "--vnodes must be 1..4096"));
        } else if (args.is("--window")) {
            cfg.maxInflightPerShard =
                static_cast<std::uint32_t>(args.intValue(
                    1, UINT32_MAX, "--window must be 1..4294967295"));
        } else if (args.is("--retries")) {
            cfg.maxRetries = static_cast<std::uint32_t>(
                args.intValue(0, 100, "--retries must be 0..100"));
        } else if (args.is("--timeout-ms")) {
            timeout_ms = args.doubleValue(0.0, cli::kNoLimit,
                                          "--timeout-ms must be >= 0");
        } else if (args.is("--seed")) {
            base_seed = static_cast<std::uint64_t>(args.intValue(
                LLONG_MIN, LLONG_MAX, "--seed must be an integer"));
        } else if (args.is("--connect-ms")) {
            cfg.connectTimeoutMs = args.doubleValue(
                0.0, cli::kNoLimit, "--connect-ms must be >= 0");
        } else if (args.is("--replication")) {
            cfg.replication = static_cast<std::uint32_t>(
                args.intValue(1, 64, "--replication must be 1..64"));
        } else if (args.is("--hedge-ms")) {
            cfg.hedgeDelayMs = args.doubleValue(
                0.0, cli::kNoLimit, "--hedge-ms must be >= 0");
        } else if (args.is("--drain")) {
            std::string spec = args.value();
            std::size_t at = spec.find_last_of('@');
            long long k, n;
            if (at == std::string::npos || at == 0 ||
                !parseInt(spec.substr(0, at), k) ||
                !parseInt(spec.substr(at + 1), n) || k < 0 ||
                k > UINT32_MAX || n < 0)
                args.usageError("--drain must be K@N (drain shard K "
                                "after N submits)");
            drains.emplace_back(static_cast<std::size_t>(n),
                                static_cast<std::uint32_t>(k));
        } else if (args.is("--swap-epoch")) {
            std::string spec = args.value();
            std::size_t at = spec.find_last_of('@');
            long long k;
            if (at == std::string::npos || at == 0 ||
                !parseInt(spec.substr(at + 1), k) || k < 0)
                args.usageError("--swap-epoch must be FILE@K");
            swap_path = spec.substr(0, at);
            swap_after = static_cast<std::size_t>(k);
        } else if (args.is("--answers-out")) {
            answers_path = args.value();
        } else if (args.is("--stats-interval-ms")) {
            cfg.statsIntervalMs = args.doubleValue(
                0.0, cli::kNoLimit, "--stats-interval-ms must be >= 0");
        } else if (args.is("--slow-query-ms")) {
            cfg.slowQueryMs = args.doubleValue(
                0.0, cli::kNoLimit, "--slow-query-ms must be >= 0");
        } else if (args.is("--slow-log")) {
            slow_log_path = args.value();
        } else if (args.is("--shutdown")) {
            do_shutdown = true;
        } else if (args.is("--quiet")) {
            quiet = true;
        } else {
            args.unknownFlag();
        }
    }
    if (args.positional().size() != 2)
        args.usage();
    const std::string &kb_path = args.positional()[0];
    const std::string &req_path = args.positional()[1];
    if (cfg.shards.empty())
        args.usageError("at least one --shard endpoint is required");
    for (const auto &d : drains) {
        if (d.second >= cfg.shards.size())
            args.usageError("--drain names a shard the fleet lacks");
    }
    std::stable_sort(drains.begin(), drains.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    // --trace-out without an explicit rate samples everything; a
    // rate without --trace-out still propagates context (shards can
    // trace even when the router does not).
    cfg.traceSample = tracing.sampleRate();
    tracing.start();

    // The router's copy of the KB exists for symbol resolution only.
    SemanticNetwork net = cli::loadKb(args, kb_path).net;
    shard::RequestFile requests;
    std::string err;
    if (!shard::loadRequestFile(req_path, net, requests, err))
        args.inputError(err);
    const std::vector<shard::RequestSpec> &specs = requests.specs;

    shard::ShardRouter router(cfg);
    if (!router.connect(err))
        args.inputError("cannot connect shard fleet: " + err);
    std::printf("connected %u shard(s), image fingerprint %016llx, "
                "epoch %llu\n",
                router.numShards(),
                static_cast<unsigned long long>(router.fingerprint()),
                static_cast<unsigned long long>(router.epoch()));
    for (std::uint32_t s = 0; s < router.numShards(); ++s) {
        if (!router.probeShard(s, err))
            args.inputError(formatString(
                "shard %u failed its health probe: %s", s, err.c_str()));
    }

    // Responses land on router reader threads in completion order;
    // park them by request index for ordered reporting.
    std::vector<shard::ResponseFrame> responses(specs.size());
    std::mutex resp_mu;

    bool swap_ok = true;
    bool drains_ok = true;
    std::string swap_err;
    std::size_t next_drain = 0;
    auto run_drains = [&](std::size_t submitted) {
        while (next_drain < drains.size() &&
               drains[next_drain].first <= submitted) {
            const std::uint32_t target = drains[next_drain].second;
            ++next_drain;
            std::string drain_err;
            if (router.drainShard(target, drain_err)) {
                std::printf("drained shard %u after %zu submits "
                            "(%llu sessions migrated so far)\n",
                            target, submitted,
                            static_cast<unsigned long long>(
                                router.migratedCount()));
            } else {
                drains_ok = false;
                snap_warn("drain of shard %u failed: %s", target,
                          drain_err.c_str());
            }
        }
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        run_drains(i);
        if (!swap_path.empty() && i == swap_after) {
            // Live hot-swap: traffic submitted so far may still be
            // in flight; swapEpoch drains it, re-stamps every shard
            // from the new image, then resumes dispatch.
            swap_ok = router.swapEpoch(swap_path, swap_err);
            if (swap_ok) {
                std::printf("epoch %llu live (swapped to %s after "
                            "%zu submits)\n",
                            static_cast<unsigned long long>(
                                router.epoch()),
                            swap_path.c_str(), i);
            } else {
                snap_warn("epoch swap failed: %s", swap_err.c_str());
            }
        }
        shard::RouterRequest req;
        req.sessionId = specs[i].sessionId;
        req.prog = requests.progs.at(specs[i].progPath);
        req.timeoutMs = timeout_ms;
        req.rngSeed = base_seed + i;
        router.submit(std::move(req),
                      [&responses, &resp_mu,
                       i](shard::ResponseFrame &&resp) {
                          std::lock_guard<std::mutex> lock(resp_mu);
                          responses[i] = std::move(resp);
                      });
    }
    run_drains(specs.size());
    if (!swap_path.empty() && swap_after >= specs.size()) {
        swap_ok = router.swapEpoch(swap_path, swap_err);
        if (!swap_ok)
            snap_warn("epoch swap failed: %s", swap_err.c_str());
    }
    router.drain();

    std::uint64_t ok = 0, bad = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const shard::ResponseFrame &resp = responses[i];
        if (resp.status == serve::RequestStatus::Ok)
            ++ok;
        else
            ++bad;
        if (quiet)
            continue;
        std::string kind = specs[i].sessionId.empty()
                               ? std::string("query")
                               : "session " + specs[i].sessionId;
        std::printf("request #%zu (%s): %s, sim %.1f us, queue "
                    "%.3f ms\n",
                    i, kind.c_str(),
                    serve::requestStatusName(resp.status),
                    ticksToUs(resp.wallTicks), resp.queueMs);
    }
    std::printf("\nrouted %llu ok, %llu failed over %u shard(s), "
                "%llu re-routed, %llu hedged, %llu sessions "
                "migrated, %llu failed over\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(bad),
                router.numShards(),
                static_cast<unsigned long long>(
                    router.rerouteCount()),
                static_cast<unsigned long long>(router.hedgeCount()),
                static_cast<unsigned long long>(
                    router.migratedCount()),
                static_cast<unsigned long long>(
                    router.failoverCount()));

    if (!answers_path.empty()) {
        std::ofstream os(answers_path);
        if (!os)
            args.inputError("cannot open '" + answers_path +
                            "' for writing");
        for (std::size_t i = 0; i < specs.size(); ++i) {
            shard::writeAnswer(os, net, i, specs[i].sessionId,
                               responses[i].status,
                               responses[i].results);
        }
        std::printf("wrote canonical answers to %s\n",
                    answers_path.c_str());
    }

    if (!metrics.path().empty()) {
        // Final pull so the aggregated view reflects end-of-run
        // counters even without --stats-interval-ms.
        for (std::uint32_t s = 0; s < router.numShards(); ++s) {
            if (!router.shardHealthy(s))
                continue;
            shard::StatsSnapshotFrame snap;
            if (!router.pullShardStats(s, snap, err))
                snap_warn("final stats pull: %s", err.c_str());
        }
        MetricsRegistry reg;
        router.exportFleetMetrics(reg);
        metrics.write(args, reg);
    }

    if (cfg.slowQueryMs >= 0.0) {
        if (!slow_log_path.empty()) {
            const std::vector<shard::SlowQuery> slow =
                router.slowQueries();
            auto esc = [](const std::string &s) {
                std::string out;
                for (char c : s) {
                    if (c == '"' || c == '\\') {
                        out += '\\';
                        out += c;
                    } else if (static_cast<unsigned char>(c) <
                               0x20) {
                        out += formatString(
                            "\\u%04x", static_cast<unsigned>(
                                           static_cast<unsigned char>(
                                               c)));
                    } else {
                        out += c;
                    }
                }
                return out;
            };
            std::ofstream os(slow_log_path);
            if (!os)
                args.inputError("cannot open '" + slow_log_path +
                                "' for writing");
            for (const shard::SlowQuery &q : slow) {
                os << formatString(
                    "{\"trace_id\":\"0x%llx\",\"request_id\":%llu,"
                    "\"session\":\"%s\",\"total_ms\":%.3f,"
                    "\"winner\":%u,\"winner_kind\":\"%s\","
                    "\"retries\":%u,\"hedged\":%s,\"hops\":[",
                    static_cast<unsigned long long>(q.traceId),
                    static_cast<unsigned long long>(q.requestId),
                    esc(q.sessionId).c_str(), q.totalMs, q.winner,
                    q.winnerKind, q.retries,
                    q.hedged ? "true" : "false");
                for (std::size_t h = 0; h < q.hops.size(); ++h) {
                    const shard::RouterHop &hop = q.hops[h];
                    os << formatString(
                        "%s{\"shard\":%u,\"kind\":\"%s\","
                        "\"sent_ns\":%llu,\"span_id\":\"0x%llx\"}",
                        h ? "," : "", hop.shard, hop.kind,
                        static_cast<unsigned long long>(hop.sentNs),
                        static_cast<unsigned long long>(hop.spanId));
                }
                os << "]}\n";
            }
            std::printf("wrote %zu slow-query record(s) to %s\n",
                        slow.size(), slow_log_path.c_str());
        } else {
            std::printf("slow-query log: %llu request(s) took >= "
                        "%.1f ms\n",
                        static_cast<unsigned long long>(
                            router.slowQueryCount()),
                        cfg.slowQueryMs);
        }
    }

    if (do_shutdown)
        router.shutdownShards();

    if (!tracing.out.empty()) {
        // Clock alignment table for `snaptrace merge`: per shard,
        // the shard-clock-minus-router-clock offset captured in the
        // Hello handshake.
        std::string sync;
        for (std::uint32_t s = 0; s < router.numShards(); ++s) {
            if (!sync.empty())
                sync += ",";
            sync += formatString(
                "%u:%lld", s,
                static_cast<long long>(router.shardClockOffsetNs(s)));
        }
        trace::setMeta("clock_sync", sync);
        trace::setMeta("trace_role", "router");
        tracing.write();
    }
    return (bad == 0 && swap_ok && drains_ok) ? 0 : 1;
}
