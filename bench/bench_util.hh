/**
 * @file
 * Shared harness utilities for the per-figure benchmark binaries.
 *
 * Every bench prints the rows/series the corresponding paper table
 * or figure reports, followed by `paper-shape check:` lines that
 * assert the qualitative claims (who wins, slopes, crossovers).
 * A failed check sets a nonzero exit code.
 */

#ifndef SNAP_BENCH_BENCH_UTIL_HH
#define SNAP_BENCH_BENCH_UTIL_HH

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/types.hh"

#ifndef SNAP_GIT_SHA
#define SNAP_GIT_SHA "unknown"
#endif
#ifndef SNAP_BUILD_TYPE
#define SNAP_BUILD_TYPE "unknown"
#endif

namespace snap
{
namespace bench
{

inline int g_failures = 0;

/** Print the experiment banner. */
inline void
banner(const std::string &id, const std::string &paper_claim)
{
    std::printf("================================================="
                "=====================\n");
    std::printf("%s\n", id.c_str());
    std::printf("paper: %s\n", paper_claim.c_str());
    std::printf("================================================="
                "=====================\n");
}

/** Record and print one shape check. */
inline bool
check(const std::string &what, bool ok)
{
    std::printf("paper-shape check: %-58s %s\n", what.c_str(),
                ok ? "[ok]" : "[FAIL]");
    if (!ok)
        ++g_failures;
    return ok;
}

/** Exit code for main(): 0 when every check passed. */
inline int
finish()
{
    if (g_failures > 0)
        std::printf("\n%d shape check(s) FAILED\n", g_failures);
    else
        std::printf("\nall shape checks passed\n");
    return g_failures == 0 ? 0 : 1;
}

/**
 * Common provenance envelope embedded in every BENCH_*.json.
 *
 * Returns one JSON object member (no trailing comma), e.g.
 *   "envelope": {"schema_version": 1, "git_sha": "abc1234", ...}
 *
 * Deliberately timestamp-free: CI byte-compares back-to-back runs of
 * the fault-tolerance bench, so everything here must be stable within
 * one build on one host.
 */
inline std::string
jsonEnvelope()
{
    char host[256];
    if (::gethostname(host, sizeof(host)) != 0)
        std::snprintf(host, sizeof(host), "unknown");
    host[sizeof(host) - 1] = '\0';
    return formatString(
        "\"envelope\": {\"schema_version\": 1, "
        "\"git_sha\": \"%s\", \"build_type\": \"%s\", "
        "\"hostname\": \"%s\"}",
        SNAP_GIT_SHA, SNAP_BUILD_TYPE, host);
}

/**
 * RAII scratch directory (mkdtemp under $TMPDIR or /tmp): benches
 * that need .kbimg images or unix sockets create them here instead
 * of littering the working tree; everything is removed on exit.
 * Keep socket names short — AF_UNIX paths cap at ~107 bytes.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
    {
        const char *tmp = std::getenv("TMPDIR");
        const std::string tmpl =
            std::string(tmp && *tmp ? tmp : "/tmp") + "/snap_" +
            tag + "_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            snap_fatal("mkdtemp(%s) failed", tmpl.c_str());
        path_ = buf.data();
    }

    ~ScratchDir()
    {
        // Best-effort: the scratch tree is flat (images + sockets).
        DIR *d = ::opendir(path_.c_str());
        if (d != nullptr) {
            while (struct dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name == "." || name == "..")
                    continue;
                ::unlink((path_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(path_.c_str());
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

    /** Absolute path of @p name inside the scratch dir. */
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** Least-squares slope of y over x. */
inline double
slope(const std::vector<double> &x, const std::vector<double> &y)
{
    double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
    }
    return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

inline std::string
ms(Tick t, int precision = 3)
{
    return fmtDouble(ticksToMs(t), precision);
}

inline std::string
us(Tick t, int precision = 1)
{
    return fmtDouble(ticksToUs(t), precision);
}

} // namespace bench
} // namespace snap

#endif // SNAP_BENCH_BENCH_UTIL_HH
