#include "fleet.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "arch/kb_image_io.hh"
#include "common/logging.hh"
#include "shard/shard_server.hh"

#include "common.hh"
#include "workloads.hh"

extern char **environ;

using namespace snap;

namespace fleetbench
{

namespace
{

/** Live shard pids, readable from the watchdog signal handler. */
constexpr int kMaxPids = 16;
std::atomic<pid_t> gPids[kMaxPids];

void
trackPid(pid_t pid)
{
    for (auto &slot : gPids) {
        pid_t none = 0;
        if (slot.compare_exchange_strong(none, pid))
            return;
    }
    snap_fatal("more than %d live shard processes", kMaxPids);
}

void
untrackPid(pid_t pid)
{
    for (auto &slot : gPids) {
        pid_t want = pid;
        if (slot.compare_exchange_strong(want, 0))
            return;
    }
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        snap_fatal("cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<std::size_t>(n));
}

/** Spawn one shard process; @return its pid and the read end of its
 *  readiness pipe (the shard writes "load_ms stamp_ms\n" on fd 3). */
pid_t
spawnShard(const std::string &image, const std::string &listen,
           const FaultSpec &faults, int &ready_fd)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        snap_fatal("pipe2 failed");
    // Keep the write end off fd 3 so the dup2 below always clears
    // its close-on-exec flag.
    int wfd = ::fcntl(fds[1], F_DUPFD_CLOEXEC, 10);
    ::close(fds[1]);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, wfd, 3);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);

    const std::string exe = selfExe();
    std::vector<std::string> args = {exe,
                                     "--shard",
                                     image,
                                     listen,
                                     std::to_string(kWorkersPerShard),
                                     faults.toJson()};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = 0;
    int rc = ::posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(wfd);
    if (rc != 0)
        snap_fatal("posix_spawn %s: error %d", exe.c_str(), rc);
    trackPid(pid);
    ready_fd = fds[0];
    return pid;
}

/** Wait (bounded) for a shard's readiness line. */
bool
readReady(int fd, double &load_ms, double &stamp_ms)
{
    std::string line;
    char buf[128];
    while (line.find('\n') == std::string::npos) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 60000) <= 0)
            return false;
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            return false;
        line.append(buf, static_cast<std::size_t>(n));
    }
    return std::sscanf(line.c_str(), "%lf %lf", &load_ms, &stamp_ms) ==
           2;
}

/**
 * Peak resident set of live process @p pid in MB: VmHWM of its own
 * address space.  (Not wait4's ru_maxrss: a posix_spawn child starts
 * on the parent's memory, and exec carries the parent's peak into the
 * child's ru_maxrss.)
 */
double
peakRssMb(pid_t pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    double kb = 0.0;
    while (is >> key) {
        if (key == "VmHWM:" && is >> kb)
            return kb / 1024.0;
        is.ignore(4096, '\n');
    }
    snap_fatal("no VmHWM for shard process %d", static_cast<int>(pid));
}

/** Reap @p pid (SIGKILL after @p grace_ms). */
void
reap(pid_t pid, double grace_ms)
{
    auto t0 = Clock::now();
    while (::waitpid(pid, nullptr, WNOHANG) == 0) {
        if (msBetween(t0, Clock::now()) > grace_ms) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    untrackPid(pid);
}

} // namespace

void
killAllShards()
{
    for (auto &slot : gPids) {
        pid_t pid = slot.exchange(0);
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
}

Fleet::Fleet(std::string dir, FleetOptions opts)
    : dir_(std::move(dir)), opts_(opts)
{}

Fleet::~Fleet()
{
    if (router_ || !pids_.empty())
        stop();
}

BringUp
Fleet::start(const SemanticNetwork &net)
{
    BringUp b;
    const auto t0 = Clock::now();
    const std::string image_path = dir_ + "/fleet.kbimg";
    {
        MachineConfig mcfg = servingMachineConfig();
        KbImage image(net, mcfg);
        saveKbImageFile(net, image, mcfg.partition, image_path);
    }
    b.imageBytes = std::filesystem::file_size(image_path);

    std::vector<int> ready(kShards, -1);
    std::vector<std::string> endpoints;
    for (std::uint32_t s = 0; s < kShards; ++s) {
        std::string sock = dir_ + "/shard" + std::to_string(s) + ".sock";
        ::unlink(sock.c_str());
        endpoints.push_back("unix:" + sock);
        pids_.push_back(
            spawnShard(image_path, endpoints.back(), opts_.faults, ready[s]));
    }
    for (std::uint32_t s = 0; s < kShards; ++s) {
        double load_ms = 0.0, stamp_ms = 0.0;
        bool ok = readReady(ready[s], load_ms, stamp_ms);
        ::close(ready[s]);
        if (!ok)
            snap_fatal("shard %u did not come up", s);
        b.loadMs = std::max(b.loadMs, load_ms);
        b.stampMs = std::max(b.stampMs, stamp_ms);
    }

    shard::RouterConfig rcfg;
    rcfg.shards = endpoints;
    rcfg.replication = opts_.replication;
    router_ = std::make_unique<shard::ShardRouter>(rcfg);
    const auto t_connect = Clock::now();
    std::string detail;
    if (!router_->connect(detail))
        snap_fatal("router connect: %s", detail.c_str());
    const auto t_up = Clock::now();
    b.connectMs = msBetween(t_connect, t_up);
    b.setupS = msBetween(t0, t_up) / 1000.0;
    return b;
}

double
Fleet::stop()
{
    double rss_mb = 0.0;
    for (pid_t pid : pids_)
        rss_mb += peakRssMb(pid);
    if (router_) {
        router_->shutdownShards();
        router_.reset();
    }
    for (pid_t pid : pids_)
        reap(pid, 10000.0);
    pids_.clear();
    for (std::uint32_t s = 0; s < kShards; ++s)
        ::unlink((dir_ + "/shard" + std::to_string(s) + ".sock").c_str());
    ::unlink((dir_ + "/fleet.kbimg").c_str());
    return rss_mb;
}

int
shardMain(int argc, char **argv)
{
    // Die with the benchmark, whatever way it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::signal(SIGPIPE, SIG_IGN);
    if (argc != 4) {
        std::fprintf(stderr, "usage: fleetbench --shard IMAGE ENDPOINT "
                             "WORKERS FAULT_JSON\n");
        return 2;
    }

    const auto t0 = Clock::now();
    KbImageFile kb;
    std::string detail;
    KbImgStatus st = loadKbImageFile(argv[0], kb, detail);
    if (st != KbImgStatus::Ok) {
        std::fprintf(stderr, "shard: %s: %s (%s)\n", argv[0],
                     kbImgStatusName(st), detail.c_str());
        return 2;
    }
    const auto t_loaded = Clock::now();

    shard::ShardServerConfig cfg;
    cfg.listen = argv[1];
    cfg.serve.numWorkers =
        static_cast<std::uint32_t>(std::stoul(argv[2]));
    cfg.serve.machine = servingMachineConfig();
    if (!FaultSpec::fromJson(argv[3], cfg.serve.faults)) {
        std::fprintf(stderr, "shard: bad fault spec %s\n", argv[3]);
        return 2;
    }
    shard::ShardServer server(std::move(kb), cfg);
    const auto t_stamped = Clock::now();
    if (!server.bind(detail)) {
        std::fprintf(stderr, "shard: cannot listen on %s: %s\n",
                     argv[1], detail.c_str());
        return 2;
    }
    char line[96];
    int n = std::snprintf(line, sizeof(line), "%.6f %.6f\n",
                          msBetween(t0, t_loaded),
                          msBetween(t_loaded, t_stamped));
    if (::write(3, line, static_cast<std::size_t>(n)) != n)
        return 2;
    ::close(3);
    server.run();
    return 0;
}

} // namespace fleetbench
