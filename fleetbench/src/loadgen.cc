#include "loadgen.hh"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

#include "common/logging.hh"

using namespace snap;
using shard::ResponseFrame;
using shard::RouterRequest;

namespace fleetbench
{

namespace
{

constexpr std::size_t kResponseSamples = 256;
/** Session ids the session workload cycles through; a sentence
 *  holds one until its parse is resolved. */
constexpr std::uint32_t kSessionSlots = 32;

/** Sleep until @p t, then spin the last few microseconds. */
void
waitUntil(Clock::time_point t)
{
    using std::chrono::microseconds;
    for (;;) {
        auto now = Clock::now();
        if (now >= t)
            return;
        if (t - now > microseconds(80))
            std::this_thread::sleep_for(t - now - microseconds(60));
    }
}

Clock::time_point
dueTime(Clock::time_point t0, std::size_t i, double rate)
{
    return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    static_cast<double>(i) * 1e9 / rate));
}

bool
statusOk(const ResponseFrame &r)
{
    return r.status == serve::RequestStatus::Ok;
}

void
noteTurn(PhaseStats &st, const ResponseFrame &r, double e2e_ms,
         double submit_ms)
{
    st.turns.push_back({e2e_ms, r.queueMs, r.serviceMs, submit_ms});
    st.retries += r.retries;
    st.faultsDetected += r.faultDetected ? 1 : 0;
    if (st.responseSamples.size() < kResponseSamples && statusOk(r))
        st.responseSamples.push_back(r);
}

void
pushSpan(std::vector<Span> *spans, std::uint64_t q, const char *name,
         Clock::time_point b, Clock::time_point e)
{
    if (spans)
        spans->push_back({q, name, b, e});
}

/** The shard-side spans of one request.  The shard reports how long
 *  the request queued and ran, not when, so both are placed against
 *  the reply. */
void
pushShardSpans(std::vector<Span> *spans, std::uint64_t q,
               const ResponseFrame &r, Clock::time_point reply)
{
    if (!spans)
        return;
    auto ms = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(v));
    };
    Clock::time_point run_begin = reply - ms(r.serviceMs);
    pushSpan(spans, q, "engine.queue", run_begin - ms(r.queueMs),
             run_begin);
    pushSpan(spans, q, "engine.service", run_begin, reply);
}

struct StatelessSlot
{
    Clock::time_point due;
    Clock::time_point begin;
    Clock::time_point submitted;
    Clock::time_point done;
    ResponseFrame resp;
};

PhaseStats
runStateless(Workload &wl, shard::ShardRouter &router, const Phase &phase,
             std::vector<Span> *spans, std::vector<bool> &seen)
{
    const std::size_t n = phase.end - phase.begin;
    // A deque: the closed loop of parse-zipf has no fixed length, and
    // the callbacks hold references to their slots.
    std::deque<StatelessSlot> slots;
    std::mutex mu;
    std::condition_variable cv;
    std::int64_t outstanding = 0;

    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point t_end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(phase.seconds));
    Clock::time_point t_stop = t_end;
    std::size_t issued = 0;
    for (; issued < n; ++issued) {
        StatelessSlot &s = slots.emplace_back();
        if (phase.open) {
            s.due = dueTime(t0, issued, wl.spec->openRate);
            waitUntil(s.due);
            s.begin = Clock::now();
        } else {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return outstanding < phase.window; });
            s.begin = s.due = Clock::now();
            if (s.begin >= t_end)
                break;
            ++outstanding;
        }
        RouterRequest req;
        req.prog = wl.programs[wl.program(phase.begin + issued)];
        router.submit(std::move(req), [&s, &mu, &cv,
                                       &outstanding](ResponseFrame &&r) {
            s.done = Clock::now();
            s.resp = std::move(r);
            {
                std::lock_guard<std::mutex> lock(mu);
                --outstanding;
            }
            cv.notify_one();
        });
        s.submitted = Clock::now();
    }
    PhaseStats st;
    if (!phase.open && issued == n) {
        t_stop = slots[n - 1].submitted;
        st.poolExhausted = true;
    }
    router.drain();
    wl.solve(phase.begin + issued);

    st.windowS = phase.open ? 0.0 : msBetween(t0, t_stop) / 1000.0;
    for (std::size_t i = 0; i < issued; ++i) {
        const StatelessSlot &s = slots[i];
        const std::uint64_t q = phase.begin + i;
        const std::uint32_t prog = wl.program(q);
        ++st.attempted;
        ++st.statelessRuns;
        if (!seen[prog]) {
            seen[prog] = true;
            ++st.distinctRuns;
        }
        if (phase.open)
            st.lagMs.push_back(msBetween(s.due, s.begin));
        if (!statusOk(s.resp)) {
            ++st.failed;
            continue;
        }
        if (encodeAnswer(s.resp.results, s.resp.wallTicks) !=
            wl.answers[prog].bytes)
            ++st.wrong;
        else
            ++st.ok;
        st.events += wl.answers[prog].events;
        st.latencyMs.push_back(msBetween(s.due, s.done));
        noteTurn(st, s.resp, msBetween(s.due, s.done),
                 msBetween(s.begin, s.submitted));
        if (!phase.open && s.done <= t_stop)
            st.doneS.push_back(msBetween(t0, s.done) / 1000.0);
        pushSpan(spans, q, "query", s.due, s.done);
        pushSpan(spans, q, "loadgen.lag", s.due, s.begin);
        pushSpan(spans, q, "router.submit", s.begin, s.submitted);
        pushShardSpans(spans, q, s.resp, s.done);
    }
    return st;
}

/** One sentence in flight as a router session. */
struct SessionQuery
{
    Clock::time_point due;
    Clock::time_point done;
    Clock::time_point turnBegin;
    Clock::time_point turnSubmitted;
    std::uint32_t slot = 0;
    std::uint32_t turns = 0;
    bool failed = false;
    /** The served parse, once resolved (empty if a turn came back
     *  without results). */
    std::vector<std::uint8_t> answer;
    ParseResolver resolver;

    explicit SessionQuery(std::uint32_t max_candidates)
        : resolver(max_candidates)
    {}
};

struct Completion
{
    std::size_t query;
    Clock::time_point at;
    ResponseFrame resp;
};

PhaseStats
runSessions(Workload &wl, shard::ShardRouter &router, const Phase &phase,
            std::vector<Span> *spans)
{
    const std::size_t n = phase.end - phase.begin;
    std::vector<SessionQuery> qs(
        n, SessionQuery(wl.parser->maxCandidates()));
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Completion> inbox;

    std::vector<std::uint32_t> free_slots;
    for (std::uint32_t k = kSessionSlots; k-- > 0;)
        free_slots.push_back(k);
    std::deque<std::size_t> backlog;
    std::size_t active = 0;
    std::size_t next = 0;
    PhaseStats st;

    auto submit_turn = [&](std::size_t i, Program prog) {
        SessionQuery &s = qs[i];
        RouterRequest req;
        req.sessionId = "fb-" + std::to_string(s.slot);
        req.prog = std::move(prog);
        ++s.turns;
        s.turnBegin = Clock::now();
        router.submit(std::move(req), [&, i](ResponseFrame &&r) {
            Clock::time_point at = Clock::now();
            {
                std::lock_guard<std::mutex> lock(mu);
                inbox.push_back({i, at, std::move(r)});
            }
            cv.notify_one();
        });
        s.turnSubmitted = Clock::now();
    };
    auto start_query = [&](std::size_t i) {
        if (free_slots.empty()) {
            backlog.push_back(i);
            return;
        }
        qs[i].slot = free_slots.back();
        free_slots.pop_back();
        submit_turn(i, wl.programs[wl.program(phase.begin + i)]);
    };
    auto finish = [&](std::size_t i, Clock::time_point at) {
        SessionQuery &s = qs[i];
        s.done = at;
        free_slots.push_back(s.slot);
        --active;
        if (!backlog.empty()) {
            std::size_t b = backlog.front();
            backlog.pop_front();
            start_query(b);
        }
    };
    auto on_reply = [&](Completion &c) {
        SessionQuery &s = qs[c.query];
        const std::uint64_t q = phase.begin + c.query;
        // The first turn of an open-loop query is timed from its due
        // time; every later turn from its own submission.
        Clock::time_point from = s.turns == 1 ? s.due : s.turnBegin;
        noteTurn(st, c.resp, msBetween(from, c.at),
                 msBetween(s.turnBegin, s.turnSubmitted));
        ++st.sessionTurns;
        pushSpan(spans, q, "turn", s.turnBegin, c.at);
        pushSpan(spans, q, "router.submit", s.turnBegin,
                 s.turnSubmitted);
        pushShardSpans(spans, q, c.resp, c.at);
        float theta = 0.0f;
        if (!statusOk(c.resp)) {
            s.failed = true;
            finish(c.query, c.at);
        } else if (c.resp.results.empty()) {
            finish(c.query, c.at);
        } else if (s.resolver.next(c.resp.results.back().nodes, theta)) {
            submit_turn(c.query, wl.parser->buildCancelProgram(theta));
        } else {
            s.answer = s.resolver.answer();
            finish(c.query, c.at);
        }
    };

    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point t_end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(phase.seconds));
    Clock::time_point t_stop = t_end;
    for (;;) {
        std::deque<Completion> got;
        {
            std::lock_guard<std::mutex> lock(mu);
            got.swap(inbox);
        }
        for (Completion &c : got)
            on_reply(c);

        Clock::time_point now = Clock::now();
        if (phase.open) {
            while (next < n) {
                Clock::time_point due =
                    dueTime(t0, next, wl.spec->openRate);
                if (due > now)
                    break;
                qs[next].due = due;
                st.lagMs.push_back(msBetween(due, now));
                ++active;
                start_query(next++);
            }
        } else {
            while (active < phase.window && next < n && now < t_end) {
                qs[next].due = now;
                ++active;
                start_query(next++);
                now = Clock::now();
            }
            if (next == n && !st.poolExhausted && now < t_end) {
                t_stop = now;
                st.poolExhausted = true;
            }
        }
        bool issuing = phase.open ? next < n : (next < n && now < t_end);
        if (!issuing && active == 0)
            break;

        std::unique_lock<std::mutex> lock(mu);
        if (!inbox.empty())
            continue;
        if (phase.open && next < n)
            cv.wait_until(lock, dueTime(t0, next, wl.spec->openRate));
        else if (issuing)
            cv.wait_until(lock, t_end);
        else
            cv.wait(lock, [&] { return !inbox.empty(); });
    }
    router.drain();
    wl.solve(phase.begin + next);

    st.windowS = phase.open ? 0.0 : msBetween(t0, t_stop) / 1000.0;
    for (std::size_t i = 0; i < next; ++i) {
        const SessionQuery &s = qs[i];
        const std::uint64_t q = phase.begin + i;
        ++st.attempted;
        if (s.failed) {
            ++st.failed;
            continue;
        }
        const Answer &want = wl.answers[wl.program(q)];
        if (s.answer != want.bytes)
            ++st.wrong;
        else
            ++st.ok;
        st.events += want.events;
        st.latencyMs.push_back(msBetween(s.due, s.done));
        if (!phase.open && s.done <= t_stop)
            st.doneS.push_back(msBetween(t0, s.done) / 1000.0);
        pushSpan(spans, q, "query", s.due, s.done);
    }
    return st;
}

} // namespace

PhaseStats
runPhase(Workload &wl, shard::ShardRouter &router, const Phase &phase,
         std::vector<Span> *spans, std::vector<bool> &seen)
{
    if (wl.spec->kind == Kind::Session)
        return runSessions(wl, router, phase, spans);
    return runStateless(wl, router, phase, spans, seen);
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    Clock::time_point base =
        spans.empty() ? Clock::time_point{} : spans.front().begin;
    for (const Span &s : spans)
        base = std::min(base, s.begin);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char line[256];
        std::snprintf(line, sizeof(line),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"query\": %llu}}%s\n",
                      s.name,
                      static_cast<unsigned long long>(s.query % 64),
                      usBetween(base, s.begin),
                      usBetween(s.begin, s.end),
                      static_cast<unsigned long long>(s.query),
                      i + 1 < spans.size() ? "," : "");
        os << line;
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace fleetbench
