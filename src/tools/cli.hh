/**
 * @file
 * The front end of the command-line tools: flag parsing, the flags
 * several tools share (machine, faults, tracing, metrics), the KB
 * loader, collect-result printing and the exit convention.  Only the
 * tools link it.
 *
 * Exit convention, for every tool:
 *   0  success;
 *   1  bad input: a missing, unreadable or malformed file (knowledge
 *      base, program, request file, fault spec) or output path, and
 *      what a tool refuses to answer (a run rejected by fault
 *      detection, a routed answer that is not Ok);
 *   2  usage error: an unknown option, a missing or out-of-range flag
 *      value, or a .kbimg snapshot refused with its KbImgStatus.
 * Flags are validated as the command line is read, before any input
 * file is opened.
 */

#ifndef SNAP_TOOLS_CLI_HH
#define SNAP_TOOLS_CLI_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/kb_image_io.hh"
#include "arch/machine.hh"
#include "common/metrics_registry.hh"
#include "fault/fault_plan.hh"
#include "fault/fleet_fault.hh"
#include "runtime/results.hh"
#include "trace/trace.hh"

namespace snap
{
namespace cli
{

/**
 * One tool's command line.  An argument that starts with "--" is a
 * flag; the others (a negative seed too) are positional, wherever
 * they stand.
 */
class Args
{
  public:
    /** @p usage is the text usage() prints. */
    Args(const char *tool, const char *usage, int argc, char **argv);

    /** Step to the next flag, collecting the positional arguments
     *  before it; false when no flag is left. */
    bool nextFlag();
    /** True when the current flag is @p flag. */
    bool is(const std::string &flag) const { return flag_ == flag; }
    /** The current flag's value, the next argument; none is a usage
     *  error. */
    std::string value();
    /** The value as an integer in [lo, hi], else usageError(msg). */
    long long intValue(long long lo, long long hi,
                       const std::string &msg);
    /** The value as a number in [lo, hi], else usageError(msg). */
    double doubleValue(double lo, double hi, const std::string &msg);
    /** The current flag is not the tool's: a usage error. */
    [[noreturn]] void unknownFlag() const;

    /** The positional arguments read so far, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Print the usage text; exit 2. */
    [[noreturn]] void usage() const;
    /** Print "<tool>: <msg>"; exit 2. */
    [[noreturn]] void usageError(const std::string &msg) const;
    /** Print "<tool>: <msg>"; exit 1. */
    [[noreturn]] void inputError(const std::string &msg) const;

  private:
    const char *tool_;
    const char *usage_;
    int argc_;
    char **argv_;
    int next_ = 1;
    std::string flag_;
    std::vector<std::string> positional_;
};

/** The upper bound of a doubleValue that has none. */
inline constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/** Take --clusters N (1..32), --partition seq|rr|sem or
 *  --relax-capacity into @p cfg; false when the current flag is none
 *  of them. */
bool machineFlag(Args &args, MachineConfig &cfg);

/**
 * The three flags of one fault spec: <prefix>-seed N,
 * <prefix>-rate X (the spec's canonical mix at aggregate rate X,
 * 0..1) and <prefix>-spec FILE (a whole spec as JSON, whose seed
 * <prefix>-seed overrides).
 */
class FaultFlags
{
  public:
    /** @p prefix is "--fault" or "--fleet-fault". */
    explicit FaultFlags(std::string prefix) : prefix_(std::move(prefix))
    {}

    /** Take the current flag if it is one of the three. */
    bool take(Args &args);
    /** True when any of the three was given. */
    bool given() const;

    /** The spec the flags ask for: the file's (a file that cannot be
     *  read or parsed is bad input), else @p mix at the rate, else
     *  all zero.  Spec is FaultSpec or FleetFaultSpec. */
    template <typename Spec>
    Spec spec(const Args &args,
              Spec (*mix)(std::uint64_t, double)) const;

  private:
    std::string prefix_;
    std::uint64_t seed_ = 1;
    bool seedSet_ = false;
    double rate_ = 0.0;
    std::string specPath_;
};

/** --trace-out FILE and --trace-categories L (default all; checked
 *  against trace::categoryNames() when given), and --trace-sample X
 *  for the tool that propagates trace context (the router). */
struct TraceFlags
{
    /** Whether the tool takes --trace-sample. */
    bool sampling = false;
    std::string out;
    std::uint32_t mask = trace::kAllCategories;
    /** --trace-sample, 0..1; negative when not given. */
    double sample = -1.0;

    bool take(Args &args);
    /** --trace-sample, or when it was not given 1 with --trace-out
     *  (sample everything) and 0 without. */
    double sampleRate() const;
    /** Start tracing when --trace-out was given.  Call before the
     *  machines or engines a trace should name are built. */
    void start() const;
    /** Stop tracing and write --trace-out, when it was given. */
    void write() const;
};

/** A metrics file flag (--metrics-out, --metrics, --fleet-metrics)
 *  and its format flag: json (the default) or prometheus. */
class MetricsFlags
{
  public:
    MetricsFlags(const char *path_flag, const char *format_flag)
        : pathFlag_(path_flag), formatFlag_(format_flag)
    {}

    bool take(Args &args);
    const std::string &path() const { return path_; }
    /** Write @p reg to the file; one that cannot be opened is bad
     *  input. */
    void write(const Args &args, const MetricsRegistry &reg) const;

  private:
    const char *pathFlag_;
    const char *formatFlag_;
    std::string path_;
    bool prometheus_ = false;
};

/** The .kbimg snapshot at @p path; a refused one is a usage error
 *  naming its KbImgStatus. */
KbImageFile loadImage(const Args &args, const std::string &path);

/** The knowledge base at @p path: .snapkb text (no image) or a
 *  snapshot (loadImage), told apart by its magic.  Unreadable or
 *  malformed text is bad input. */
KbImageFile loadKb(const Args &args, const std::string &path);

/** Print "loaded PATH: N nodes, M links", and for a snapshot its
 *  compiled clusters and fingerprint. */
void printKb(const std::string &path, const KbImageFile &kb);

/** A machine holding @p kb: a snapshot's compiled tables as they are
 *  (its cluster count and partition replace @p cfg's), text compiled
 *  for @p cfg. */
std::unique_ptr<SnapMachine> machineFor(const KbImageFile &kb,
                                        MachineConfig &cfg);

/** Print each collect result as a "collect #i (op):" block, every
 *  line led by @p indent. */
void printResults(const SemanticNetwork &net, const ResultSet &results,
                  const char *indent);

} // namespace cli
} // namespace snap

#endif // SNAP_TOOLS_CLI_HH
