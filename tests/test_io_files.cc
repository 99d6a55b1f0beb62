/**
 * @file
 * File-level IO round trips: .snapkb files, marker snapshots, and
 * assembler source files — the surfaces the CLI tools sit on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "isa/assembler.hh"
#include "kb/kb_io.hh"
#include "runtime/snapshot.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

/** Unique temp path per test (single process, no races). */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "snap_io_" + name;
}

TEST(IoFiles, NetworkFileRoundTrip)
{
    std::string path = tempPath("net.snapkb");
    SemanticNetwork net = makeRandomKb(40, 2.0, 3, 5);
    saveNetworkFile(net, path);

    SemanticNetwork back = loadNetworkFile(path);
    EXPECT_EQ(back.numNodes(), net.numNodes());
    EXPECT_EQ(back.numLinks(), net.numLinks());
    std::remove(path.c_str());
}

TEST(IoFiles, SnapshotFileRoundTrip)
{
    std::string path = tempPath("markers.snapmarkers");
    MarkerStore store(30);
    store.set(2, 7, 1.5f, 7);
    store.setBit(70, 29);
    std::string err;
    ASSERT_TRUE(saveMarkersFile(store, path, err)) << err;

    MarkerStore back(0);
    ASSERT_TRUE(loadMarkersFile(path, back, err)) << err;
    EXPECT_EQ(back.numNodes(), 30u);
    EXPECT_TRUE(back.test(2, 7));
    EXPECT_FLOAT_EQ(back.value(2, 7), 1.5f);
    EXPECT_EQ(back.origin(2, 7), 7u);
    EXPECT_TRUE(back.test(70, 29));
    std::remove(path.c_str());
}

TEST(IoFiles, SnapshotFileIoErrorsAreMessages)
{
    // Checkpoint files are refused, never fatal: snapsh keeps running.
    MarkerStore store(3);
    std::string err;
    EXPECT_FALSE(loadMarkersFile("/nonexistent/m.snapmarkers", store,
                                 err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    err.clear();
    // A directory opens but cannot be read.
    EXPECT_FALSE(loadMarkersFile(::testing::TempDir(), store, err));
    EXPECT_NE(err.find("read error"), std::string::npos) << err;
    err.clear();
    EXPECT_FALSE(saveMarkersFile(store, "/nonexistent/dir/m.snapmarkers",
                                 err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(IoFiles, AssembleFile)
{
    std::string path = tempPath("prog.snap");
    {
        std::ofstream os(path);
        os << "rule r chain(next)\n"
              "search-node n0 m0 0\n"
              "propagate m0 m1 r count\n"
              "barrier\n"
              "collect-marker m1\n";
    }
    SemanticNetwork net = makeChainKb(5);
    Program prog;
    std::string err;
    ASSERT_TRUE(assembleFile(path, net, prog, err)) << err;
    EXPECT_EQ(prog.size(), 4u);

    // A malformed file is refused with its path and line.
    {
        std::ofstream os(path);
        os << "search-node n0 m0 0\nsearch-node ghost m0 0\n";
    }
    EXPECT_FALSE(assembleFile(path, net, prog, err));
    EXPECT_EQ(err, path + ": line 2: unknown node 'ghost'");
    std::remove(path.c_str());
}

TEST(IoFiles, MissingProgramFileIsRefused)
{
    SemanticNetwork net = makeChainKb(3);
    Program prog;
    std::string err;
    EXPECT_FALSE(assembleFile("/nonexistent/p.snap", net, prog, err));
    EXPECT_EQ(err, "cannot open '/nonexistent/p.snap'");
}

TEST(IoFilesDeath, MissingFilesAreFatal)
{
    EXPECT_EXIT((void)loadNetworkFile("/nonexistent/kb.snapkb"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(IoFilesDeath, UnwritablePathIsFatal)
{
    SemanticNetwork net = makeChainKb(3);
    EXPECT_EXIT(saveNetworkFile(net, "/nonexistent/dir/kb.snapkb"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace snap
