#include "trace/trace.hh"

#include <chrono>
#include <cinttypes>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace snap
{
namespace trace
{

std::atomic<std::uint32_t> g_mask{0};

namespace
{

/** Per-thread ring buffer. Only its owning thread writes; readers
 *  (writeJson/snapshotEvents) run after stop() or tolerate a
 *  racy-but-bounded view, matching the "low overhead over perfect
 *  snapshots" contract. */
struct RingBuffer
{
    explicit RingBuffer(std::size_t cap) : cap_(cap), ev_(cap) {}

    void
    push(const Event &ev)
    {
        ev_[wr_ % cap_] = ev;
        ++wr_;
    }

    std::uint64_t dropped() const { return wr_ > cap_ ? wr_ - cap_ : 0; }

    /** Oldest-first copy of the live window. */
    void
    collect(std::vector<Event> &out) const
    {
        std::uint64_t n = wr_ < cap_ ? wr_ : cap_;
        std::uint64_t first = wr_ - n;
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(ev_[(first + i) % cap_]);
    }

    std::size_t cap_;
    std::uint64_t wr_ = 0;
    std::vector<Event> ev_;
};

struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<RingBuffer>> buffers;
    std::map<std::uint32_t, std::string> processNames;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
        threadNames;
    std::map<std::string, std::string> meta;
    std::size_t perThreadCapacity = 1u << 16;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

Registry &
registry()
{
    static Registry reg;
    return reg;
}

/** Bumped on start()/reset() so stale thread-local buffer pointers
 *  from a previous trace session re-register instead of writing into
 *  freed storage. */
std::atomic<std::uint64_t> g_generation{1};

std::atomic<std::uint64_t> g_flowId{0};

struct ThreadSlot
{
    RingBuffer *buf = nullptr;
    std::uint64_t gen = 0;
    std::uint64_t armedFlow = 0;
};

thread_local ThreadSlot t_slot;

RingBuffer *
acquireBuffer()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(
        std::make_unique<RingBuffer>(reg.perThreadCapacity));
    return reg.buffers.back().get();
}

struct CatName
{
    const char *name;
    std::uint32_t bit;
};

constexpr CatName kCatNames[] = {
    {"instr", kInstr},     {"cluster", kCluster}, {"icn", kIcn},
    {"sync", kSync},       {"sem", kSem},         {"fault", kFault},
    {"machine", kMachine}, {"serve", kServe},
};

void
writeEscaped(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
}

} // namespace

void
start(std::uint32_t mask, std::size_t perThreadCapacity)
{
    Registry &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        reg.buffers.clear();
        reg.perThreadCapacity =
            perThreadCapacity ? perThreadCapacity : 1;
        reg.epoch = std::chrono::steady_clock::now();
    }
    g_generation.fetch_add(1, std::memory_order_relaxed);
    g_mask.store(mask & kAllCategories, std::memory_order_relaxed);
}

void
stop()
{
    g_mask.store(0, std::memory_order_relaxed);
}

void
reset()
{
    stop();
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.clear();
    reg.processNames.clear();
    reg.threadNames.clear();
    reg.meta.clear();
    g_generation.fetch_add(1, std::memory_order_relaxed);
}

bool
active()
{
    return g_mask.load(std::memory_order_relaxed) != 0;
}

void
record(const Event &ev)
{
    std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
    if (t_slot.buf == nullptr || t_slot.gen != gen) {
        t_slot.buf = acquireBuffer();
        t_slot.gen = gen;
    }
    t_slot.buf->push(ev);
}

std::uint64_t
hostNowNs()
{
    auto now = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - registry().epoch)
            .count());
}

std::uint64_t
nextFlowId()
{
    return g_flowId.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
armFlow(std::uint64_t id)
{
    t_slot.armedFlow = id;
}

std::uint64_t
takeArmedFlow()
{
    std::uint64_t id = t_slot.armedFlow;
    t_slot.armedFlow = 0;
    return id;
}

void
nameProcess(std::uint32_t pid, const std::string &name)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.processNames[pid] = name;
}

void
nameTrack(std::uint32_t pid, std::uint32_t tid,
          const std::string &name)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threadNames[{pid, tid}] = name;
}

void
setMeta(const std::string &key, const std::string &value)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.meta[key] = value;
}

const char *
categoryLabel(std::uint32_t cat)
{
    for (const CatName &cn : kCatNames)
        if (cat & cn.bit)
            return cn.name;
    return "misc";
}

bool
parseCategories(const std::string &spec, std::uint32_t &mask)
{
    mask = 0;
    for (const std::string &raw : tokenize(spec, ",")) {
        std::string tok = trim(raw);
        if (tok.empty())
            continue;
        if (tok == "all") {
            mask |= kAllCategories;
            continue;
        }
        bool found = false;
        for (const CatName &cn : kCatNames) {
            if (tok == cn.name) {
                mask |= cn.bit;
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    return true;
}

std::string
categoryNames()
{
    std::string out;
    for (const CatName &cn : kCatNames) {
        if (!out.empty())
            out += ',';
        out += cn.name;
    }
    return out;
}

std::vector<Event>
snapshotEvents()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::vector<Event> out;
    for (const auto &buf : reg.buffers)
        buf->collect(out);
    return out;
}

std::uint64_t
droppedCount()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::uint64_t dropped = 0;
    for (const auto &buf : reg.buffers)
        dropped += buf->dropped();
    return dropped;
}

void
writeJson(std::ostream &os)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);

    os << "{\n\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };

    for (const auto &kv : reg.processNames) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
           << kv.first << ",\"tid\":0,\"args\":{\"name\":\"";
        writeEscaped(os, kv.second);
        os << "\"}}";
    }
    for (const auto &kv : reg.threadNames) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
           << kv.first.first << ",\"tid\":" << kv.first.second
           << ",\"args\":{\"name\":\"";
        writeEscaped(os, kv.second);
        os << "\"}}";
    }

    std::uint64_t dropped = 0;
    std::vector<Event> events;
    for (const auto &buf : reg.buffers) {
        dropped += buf->dropped();
        buf->collect(events);
    }

    for (const Event &ev : events) {
        sep();
        // Sim ticks are picoseconds; Chrome ts is microseconds.
        // Host events carry nanoseconds.
        double scale = ev.host ? 1e-3 : 1e-6;
        os << "{\"ph\":\"" << ev.ph << "\",\"name\":\""
           << (ev.name ? ev.name : "?") << "\",\"cat\":\""
           << categoryLabel(ev.cat) << "\",\"pid\":" << ev.pid
           << ",\"tid\":" << ev.tid << ",\"ts\":"
           << formatString("%.3f",
                           static_cast<double>(ev.ts) * scale);
        if (ev.ph == 'X')
            os << ",\"dur\":"
               << formatString("%.3f",
                               static_cast<double>(ev.dur) * scale);
        if (ev.ph == 's' || ev.ph == 'f' || ev.ph == 'b' ||
            ev.ph == 'e')
            os << ",\"id\":\"0x" << std::hex << ev.id << std::dec
               << "\"";
        if (ev.ph == 'f')
            os << ",\"bp\":\"e\"";
        if (ev.hasArg)
            os << ",\"args\":{\"v\":" << ev.arg << "}";
        os << "}";
    }

    if (dropped > 0) {
        sep();
        os << "{\"ph\":\"i\",\"name\":\"events_dropped\",\"cat\":"
           << "\"misc\",\"pid\":" << kHostPid
           << ",\"tid\":0,\"ts\":0,\"s\":\"g\",\"args\":{\"v\":"
           << dropped << "}}";
    }

    os << "\n],\n\"displayTimeUnit\": \"ms\",\n"
       << "\"otherData\": {\"tool\": \"snaptrace\", \"dropped\": "
       << dropped;
    for (const auto &kv : reg.meta) {
        os << ", \"";
        writeEscaped(os, kv.first);
        os << "\": \"";
        writeEscaped(os, kv.second);
        os << "\"";
    }
    os << "}\n}\n";
}

bool
writeJsonFile(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        snap_warn("trace: cannot open %s for writing", path.c_str());
        return false;
    }
    writeJson(os);
    return os.good();
}

} // namespace trace
} // namespace snap
