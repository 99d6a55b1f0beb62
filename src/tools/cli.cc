#include "tools/cli.hh"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "kb/kb_io.hh"

namespace snap
{
namespace cli
{

Args::Args(const char *tool, const char *usage, int argc, char **argv)
    : tool_(tool), usage_(usage), argc_(argc), argv_(argv)
{}

bool
Args::nextFlag()
{
    while (next_ < argc_) {
        std::string arg = argv_[next_++];
        if (arg.rfind("--", 0) == 0) {
            flag_ = std::move(arg);
            return true;
        }
        positional_.push_back(std::move(arg));
    }
    return false;
}

std::string
Args::value()
{
    if (next_ >= argc_)
        usage();
    return argv_[next_++];
}

long long
Args::intValue(long long lo, long long hi, const std::string &msg)
{
    long long n;
    if (!parseInt(value(), n) || n < lo || n > hi)
        usageError(msg);
    return n;
}

double
Args::doubleValue(double lo, double hi, const std::string &msg)
{
    double x;
    if (!parseDouble(value(), x) || x < lo || x > hi)
        usageError(msg);
    return x;
}

void
Args::unknownFlag() const
{
    std::fprintf(stderr, "%s: unknown option '%s'\n", tool_,
                 flag_.c_str());
    usage();
}

void
Args::usage() const
{
    std::fputs(usage_, stderr);
    std::exit(2);
}

void
Args::usageError(const std::string &msg) const
{
    std::fprintf(stderr, "%s: %s\n", tool_, msg.c_str());
    std::exit(2);
}

void
Args::inputError(const std::string &msg) const
{
    std::fprintf(stderr, "%s: %s\n", tool_, msg.c_str());
    std::exit(1);
}

bool
machineFlag(Args &args, MachineConfig &cfg)
{
    if (args.is("--clusters")) {
        cfg.numClusters = static_cast<std::uint32_t>(
            args.intValue(1, 32, "--clusters must be 1..32"));
    } else if (args.is("--partition")) {
        std::string p = args.value();
        if (p == "seq")
            cfg.partition = PartitionStrategy::Sequential;
        else if (p == "rr")
            cfg.partition = PartitionStrategy::RoundRobin;
        else if (p == "sem")
            cfg.partition = PartitionStrategy::Semantic;
        else
            args.usageError("--partition must be seq, rr, or sem");
    } else if (args.is("--relax-capacity")) {
        cfg.maxNodesPerCluster = capacity::maxNodes;
    } else {
        return false;
    }
    return true;
}

bool
FaultFlags::take(Args &args)
{
    if (args.is(prefix_ + "-seed")) {
        // Any integer; a negative one wraps, as a u64 seed.
        seed_ = static_cast<std::uint64_t>(args.intValue(
            LLONG_MIN, LLONG_MAX, prefix_ + "-seed must be an integer"));
        seedSet_ = true;
    } else if (args.is(prefix_ + "-rate")) {
        rate_ = args.doubleValue(0.0, 1.0, prefix_ + "-rate must be 0..1");
    } else if (args.is(prefix_ + "-spec")) {
        specPath_ = args.value();
    } else {
        return false;
    }
    return true;
}

bool
FaultFlags::given() const
{
    return seedSet_ || rate_ > 0.0 || !specPath_.empty();
}

template <typename Spec>
Spec
FaultFlags::spec(const Args &args,
                 Spec (*mix)(std::uint64_t, double)) const
{
    Spec out;
    if (!specPath_.empty()) {
        std::ifstream is(specPath_);
        if (!is)
            args.inputError("cannot open fault spec '" + specPath_ + "'");
        std::ostringstream text;
        text << is.rdbuf();
        std::string why;
        if (!Spec::fromJson(text.str(), out, &why))
            args.inputError("cannot parse fault spec '" + specPath_ +
                            "': " + why);
        if (seedSet_)
            out.seed = seed_;
    } else if (rate_ > 0.0) {
        out = mix(seed_, rate_);
    }
    return out;
}

template FaultSpec FaultFlags::spec(
    const Args &, FaultSpec (*)(std::uint64_t, double)) const;
template FleetFaultSpec FaultFlags::spec(
    const Args &, FleetFaultSpec (*)(std::uint64_t, double)) const;

bool
TraceFlags::take(Args &args)
{
    if (args.is("--trace-out")) {
        out = args.value();
    } else if (args.is("--trace-categories")) {
        if (!trace::parseCategories(args.value(), mask) || mask == 0)
            args.usageError("--trace-categories must be a comma list "
                            "from: all," + trace::categoryNames());
    } else if (sampling && args.is("--trace-sample")) {
        sample = args.doubleValue(0.0, 1.0,
                                  "--trace-sample must be in 0..1");
    } else {
        return false;
    }
    return true;
}

double
TraceFlags::sampleRate() const
{
    if (sample >= 0.0)
        return sample;
    return out.empty() ? 0.0 : 1.0;
}

void
TraceFlags::start() const
{
    if (!out.empty())
        trace::start(mask);
}

void
TraceFlags::write() const
{
    if (out.empty())
        return;
    trace::stop();
    if (trace::writeJsonFile(out)) {
        std::printf("wrote trace to %s (%llu events dropped)\n",
                    out.c_str(),
                    static_cast<unsigned long long>(
                        trace::droppedCount()));
    }
}

bool
MetricsFlags::take(Args &args)
{
    if (args.is(pathFlag_)) {
        path_ = args.value();
    } else if (args.is(formatFlag_)) {
        std::string format = args.value();
        if (format != "json" && format != "prometheus")
            args.usageError(std::string(formatFlag_) +
                            " must be json or prometheus");
        prometheus_ = format == "prometheus";
    } else {
        return false;
    }
    return true;
}

void
MetricsFlags::write(const Args &args, const MetricsRegistry &reg) const
{
    std::ofstream os(path_);
    if (!os)
        args.inputError("cannot open '" + path_ + "' for writing");
    if (prometheus_)
        reg.writePrometheus(os);
    else
        reg.writeJson(os);
    std::printf("wrote %zu metrics (%s) to %s\n", reg.size(),
                prometheus_ ? "prometheus" : "json", path_.c_str());
}

KbImageFile
loadImage(const Args &args, const std::string &path)
{
    KbImageFile kb;
    std::string detail;
    KbImgStatus status = loadKbImageFile(path, kb, detail);
    if (status != KbImgStatus::Ok)
        args.usageError(path + ": " + kbImgStatusName(status) + " (" +
                        detail + ")");
    return kb;
}

KbImageFile
loadKb(const Args &args, const std::string &path)
{
    if (isKbImageFile(path))
        return loadImage(args, path);
    KbImageFile kb;
    kb.net = loadNetworkFile(path);
    return kb;
}

void
printKb(const std::string &path, const KbImageFile &kb)
{
    std::printf("loaded %s: %u nodes, %llu links", path.c_str(),
                kb.net.numNodes(),
                static_cast<unsigned long long>(kb.net.numLinks()));
    if (kb.image) {
        std::printf(", %u compiled clusters (fingerprint %016llx)",
                    kb.image->numClusters(),
                    static_cast<unsigned long long>(kb.fingerprint));
    }
    std::printf("\n");
}

std::unique_ptr<SnapMachine>
machineFor(const KbImageFile &kb, MachineConfig &cfg)
{
    if (kb.image) {
        cfg.numClusters = kb.image->numClusters();
        cfg.partition = kb.strategy;
    }
    auto machine = std::make_unique<SnapMachine>(cfg);
    if (kb.image)
        machine->loadKb(*kb.image);
    else
        machine->loadKb(kb.net);
    return machine;
}

void
printResults(const SemanticNetwork &net, const ResultSet &results,
             const char *indent)
{
    int idx = 0;
    for (const CollectResult &res : results) {
        std::printf("%scollect #%d (%s):\n", indent, idx++,
                    opcodeName(res.op));
        for (const CollectedNode &c : res.nodes) {
            std::printf("%s  %-24s value %-10.4f origin %s\n", indent,
                        net.nodeName(c.node).c_str(), c.value,
                        c.origin == invalidNode
                            ? "-"
                            : net.nodeName(c.origin).c_str());
        }
        for (const CollectedLink &l : res.links) {
            std::printf("%s  %s -%s-> %s (w %.4f)\n", indent,
                        net.nodeName(l.src).c_str(),
                        net.relations().name(l.rel).c_str(),
                        net.nodeName(l.dst).c_str(), l.weight);
        }
        if (res.nodes.empty() && res.links.empty())
            std::printf("%s  (empty)\n", indent);
    }
}

} // namespace cli
} // namespace snap
