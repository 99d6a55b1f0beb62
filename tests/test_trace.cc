/**
 * @file
 * Tests for the snaptrace subsystem: off-by-default guard, ring-buffer
 * drop-oldest semantics, category parsing, flow arming, and — the
 * load-bearing invariants — that traced span durations reproduce the
 * ExecBreakdown counters exactly (per-category active time and
 * per-cluster MU busy time) and that traced serve spans count what
 * the metrics registry counts (cache hits, runs).
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "arch/machine.hh"
#include "common/metrics_registry.hh"
#include "common/strutil.hh"
#include "isa/instruction.hh"
#include "serve/engine.hh"
#include "trace/trace.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

Program
countQuery(NodeId start, RelationType rel)
{
    Program prog;
    RuleId rule = prog.addRule(PropRule::chain(rel));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));
    return prog;
}

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.numClusters = 8;
    cfg.perfNetEnabled = false;
    return cfg;
}

// RAII guard: every test leaves tracing fully off and drained.
struct TraceGuard
{
    ~TraceGuard() { trace::reset(); }
};

// --- mask / guard ----------------------------------------------------------

TEST(Trace, OffByDefaultAndAfterReset)
{
    TraceGuard guard;
    trace::reset();
    EXPECT_FALSE(trace::active());
    EXPECT_FALSE(SNAP_TRACE_ON(trace::kInstr));
    EXPECT_FALSE(SNAP_TRACE_ON(trace::kAllCategories));

    trace::start(trace::kIcn | trace::kServe);
    EXPECT_TRUE(trace::active());
    EXPECT_TRUE(SNAP_TRACE_ON(trace::kIcn));
    EXPECT_FALSE(SNAP_TRACE_ON(trace::kInstr));

    trace::stop();
    EXPECT_FALSE(trace::active());
}

TEST(Trace, StopKeepsEventsResetDropsThem)
{
    TraceGuard guard;
    trace::start(trace::kAllCategories);
    trace::simInstant(trace::kMachine, trace::kSimPidBase,
                      trace::kTidMachine, "mark", 1);
    trace::stop();
    EXPECT_EQ(trace::snapshotEvents().size(), 1u);

    trace::reset();
    EXPECT_TRUE(trace::snapshotEvents().empty());
    EXPECT_EQ(trace::droppedCount(), 0u);
}

// --- ring buffer -----------------------------------------------------------

TEST(Trace, RingDropsOldestWhenFull)
{
    TraceGuard guard;
    constexpr std::size_t cap = 8;
    trace::start(trace::kAllCategories, cap);
    for (std::uint64_t i = 0; i < 20; ++i) {
        trace::simInstantArg(trace::kMachine, trace::kSimPidBase,
                             trace::kTidMachine, "tick", i, i);
    }
    trace::stop();

    std::vector<trace::Event> events = trace::snapshotEvents();
    ASSERT_EQ(events.size(), cap);
    EXPECT_EQ(trace::droppedCount(), 20u - cap);
    // Drop-oldest: the survivors are the 8 newest, in order.
    for (std::size_t i = 0; i < cap; ++i)
        EXPECT_EQ(events[i].arg, 20 - cap + i);
}

// --- category parsing ------------------------------------------------------

TEST(Trace, ParseCategories)
{
    std::uint32_t mask = 0;
    EXPECT_TRUE(trace::parseCategories("all", mask));
    EXPECT_EQ(mask, trace::kAllCategories);

    EXPECT_TRUE(trace::parseCategories("instr,icn,serve", mask));
    EXPECT_EQ(mask, trace::kInstr | trace::kIcn | trace::kServe);

    EXPECT_TRUE(trace::parseCategories("machine", mask));
    EXPECT_EQ(mask, trace::kMachine);

    EXPECT_FALSE(trace::parseCategories("bogus", mask));
    EXPECT_FALSE(trace::parseCategories("instr,bogus", mask));

    // Every advertised name must parse back to a single bit.
    std::uint32_t all = 0;
    for (const std::string &name :
         tokenize(trace::categoryNames(), ",")) {
        std::uint32_t m = 0;
        EXPECT_TRUE(trace::parseCategories(name, m)) << name;
        EXPECT_EQ(m & (m - 1), 0u) << name;
        all |= m;
    }
    EXPECT_EQ(all, trace::kAllCategories);
}

// --- flow arming -----------------------------------------------------------

TEST(Trace, FlowIdsAndArming)
{
    TraceGuard guard;
    trace::start(trace::kAllCategories);
    std::uint64_t a = trace::nextFlowId();
    std::uint64_t b = trace::nextFlowId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);

    EXPECT_EQ(trace::takeArmedFlow(), 0u);
    trace::armFlow(a);
    EXPECT_EQ(trace::takeArmedFlow(), a);
    EXPECT_EQ(trace::takeArmedFlow(), 0u);
}

// --- traced machine run vs ExecBreakdown -----------------------------------

TEST(Trace, MachineSpansMatchExecStats)
{
    TraceGuard guard;
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program q = countQuery(0, inc);

    trace::start(trace::kAllCategories);
    SnapMachine machine(smallConfig());
    machine.loadKb(net);

    std::uint64_t flow = trace::nextFlowId();
    trace::hostFlowStart(trace::kMachine, trace::kTidAdmission, flow,
                         trace::hostNowNs());
    trace::armFlow(flow);
    RunResult run = machine.run(q);
    trace::stop();

    ASSERT_FALSE(run.results.empty());
    std::vector<trace::Event> events = trace::snapshotEvents();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(trace::droppedCount(), 0u);

    const std::uint32_t sim_pid = trace::kSimPidBase;

    // 1. Summed B/E durations on each instr-category track must equal
    //    the ActiveTimer's accumulated active time for that category.
    std::map<std::uint32_t, Tick> cat_total;
    std::map<std::uint32_t, Tick> open_since;
    // 2. Summed 'X' durations on the cluster tracks must equal the
    //    machine-wide MU busy tick count.
    Tick mu_span_total = 0;
    // 3. The armed flow must surface as exactly one 'f' event bound
    //    to the machine.run span's start.
    int flow_ends = 0;
    Tick flow_end_ts = 0;
    Tick machine_span_start = 0, machine_span_dur = 0;

    for (const trace::Event &ev : events) {
        if (ev.pid != sim_pid)
            continue;
        if (ev.cat == trace::kInstr) {
            if (ev.ph == 'B') {
                open_since[ev.tid] = ev.ts;
            } else if (ev.ph == 'E') {
                ASSERT_TRUE(open_since.count(ev.tid));
                cat_total[ev.tid] += ev.ts - open_since[ev.tid];
            }
        } else if (ev.cat == trace::kCluster && ev.ph == 'X') {
            mu_span_total += ev.dur;
        } else if (ev.cat == trace::kMachine && ev.ph == 'f') {
            ++flow_ends;
            flow_end_ts = ev.ts;
            EXPECT_EQ(ev.id, flow);
        } else if (ev.cat == trace::kMachine && ev.ph == 'X') {
            machine_span_start = ev.ts;
            machine_span_dur = ev.dur;
        }
    }

    for (std::size_t c = 0;
         c < static_cast<std::size_t>(InstrCategory::NumCategories);
         ++c) {
        auto cat = static_cast<InstrCategory>(c);
        std::uint32_t tid =
            trace::tidInstr(static_cast<std::uint32_t>(c));
        Tick traced = cat_total.count(tid) ? cat_total[tid] : 0;
        EXPECT_EQ(traced, run.stats.categoryTicks(cat))
            << "category " << categoryName(cat);
    }

    EXPECT_EQ(mu_span_total, run.stats.muBusyTicks);
    EXPECT_EQ(flow_ends, 1);
    EXPECT_EQ(machine_span_dur, run.stats.wallTicks);
    // The 'f' binds to the run span's start tick by design.
    EXPECT_EQ(flow_end_ts, machine_span_start);

    // The JSON writer must produce a parsable-looking document with
    // both clock domains and the flow pair present.
    std::ostringstream os;
    trace::writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("machine.run"), std::string::npos);
}

// --- traced serve spans vs the metrics registry ------------------------------

/** Value of the unlabelled sample @p name in @p reg (-1 if absent). */
double
sampleValue(const MetricsRegistry &reg, const std::string &name)
{
    for (const MetricsRegistry::Sample &s : reg.samples())
        if (s.name == name && s.labels.empty())
            return s.value;
    return -1.0;
}

TEST(Trace, ServeSpansMatchRegistryCounters)
{
    TraceGuard guard;
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");

    trace::start(trace::kServe);
    serve::ServeConfig cfg;
    cfg.numWorkers = 1;
    cfg.machine.numClusters = 8;
    MetricsRegistry reg;
    {
        serve::ServeEngine engine(net, cfg);
        // Two programs, five serves each: two runs and three cache
        // hits apiece; a session turn runs and never hits.
        for (int round = 0; round < 5; ++round) {
            for (NodeId start : {0u, 1u}) {
                serve::Request req;
                req.prog = countQuery(start, inc);
                ASSERT_EQ(engine.submit(std::move(req)).get().status,
                          serve::RequestStatus::Ok);
            }
        }
        serve::Request sess;
        sess.sessionId = "s";
        sess.prog = countQuery(0, inc);
        engine.submit(std::move(sess)).get();
        engine.shutdown();
        engine.exportMetrics(reg);
    }
    trace::stop();

    std::uint64_t hit_spans = 0, admission_hits = 0, attempt_spans = 0;
    for (const trace::Event &ev : trace::snapshotEvents()) {
        if (ev.ph != 'X' || !ev.host || ev.name == nullptr)
            continue;
        const std::string name = ev.name;
        if (name == "cache.hit") {
            ++hit_spans;
            if (ev.tid == trace::kTidAdmission)
                ++admission_hits;
        } else if (name == "attempt") {
            ++attempt_spans;
        }
    }
    EXPECT_EQ(trace::droppedCount(), 0u);
    EXPECT_EQ(static_cast<double>(hit_spans),
              sampleValue(reg, "snap_serve_answer_cache_hits_total"));
    EXPECT_EQ(hit_spans, 6u);
    // Each serve waits for the one before it, so every hit finds its
    // answer already admitted and is answered at admission.
    EXPECT_EQ(admission_hits, hit_spans);
    // Every completed request is either a traced hit or a traced run.
    EXPECT_EQ(static_cast<double>(hit_spans + attempt_spans),
              sampleValue(reg, "snap_serve_completed_total"));
    EXPECT_EQ(static_cast<double>(attempt_spans),
              sampleValue(reg, "snap_serve_answer_cache_misses_total") +
                  1.0)
        << "stateless runs are the cache misses; plus one session run";
}

// --- disabled path is inert ------------------------------------------------

TEST(Trace, DisabledRunRecordsNothing)
{
    TraceGuard guard;
    trace::reset();
    SemanticNetwork net = makeTreeKb(120, 3);
    Program q = countQuery(0, net.relationId("includes"));

    SnapMachine machine(smallConfig());
    machine.loadKb(net);
    RunResult run = machine.run(q);
    ASSERT_FALSE(run.results.empty());
    EXPECT_TRUE(trace::snapshotEvents().empty());
    EXPECT_EQ(trace::droppedCount(), 0u);
}

} // namespace
} // namespace snap
