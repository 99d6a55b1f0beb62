/**
 * @file
 * snapkb-pack — compile a text knowledge base into a binary .kbimg
 * snapshot, or verify an existing snapshot.
 *
 *   snapkb-pack <kb.snapkb|kb.kbimg> <out.kbimg> [options]
 *     --clusters N      replica array size (1..32, default 16)
 *     --partition P     seq|rr|sem allocation (default sem)
 *     --relax-capacity  lift the 1024 nodes/cluster cap
 *
 *   snapkb-pack --check <file.kbimg>
 *     Load and validate the snapshot; prints the typed status.
 *
 * The .kbimg is the bulk-load form the sharded serving layer stamps
 * replicas from (see docs/sharding.md): packing pays partitioning and
 * relation-table compilation once, and every shard process that loads
 * the image skips both.
 *
 * The input may also be a .kbimg: its network is packed again for the
 * flags' array.  Exit status follows the tools' convention
 * (tools/cli.hh): a corrupt .kbimg, given to --check or as the input,
 * exits 2 with its typed KbImgStatus, the rejection the round-trip
 * tests gate on.
 */

#include <cstdio>
#include <string>

#include "arch/config.hh"
#include "arch/kb_image.hh"
#include "arch/kb_image_io.hh"
#include "tools/cli.hh"

using namespace snap;

namespace
{

const char *const kUsage =
    "usage: snapkb-pack <kb.snapkb|kb.kbimg> <out.kbimg> [options]\n"
    "       snapkb-pack --check <file.kbimg>\n"
    "  --clusters N      clusters 1..32 (default 16)\n"
    "  --partition P     seq|rr|sem (default sem)\n"
    "  --relax-capacity  lift the nodes/cluster cap\n";

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args("snapkb-pack", kUsage, argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "--check") {
        if (argc != 3)
            args.usage();
        KbImageFile kb = cli::loadImage(args, argv[2]);
        std::printf("%s: ok, %u nodes, %llu links, %u clusters, "
                    "fingerprint %016llx\n",
                    argv[2], kb.net.numNodes(),
                    static_cast<unsigned long long>(
                        kb.net.numLinks()),
                    kb.image->numClusters(),
                    static_cast<unsigned long long>(kb.fingerprint));
        return 0;
    }

    MachineConfig machine = MachineConfig::paperSetup();
    while (args.nextFlag()) {
        if (!cli::machineFlag(args, machine))
            args.unknownFlag();
    }
    if (args.positional().size() != 2)
        args.usage();
    const std::string &kb_path = args.positional()[0];
    const std::string &out_path = args.positional()[1];

    SemanticNetwork net = cli::loadKb(args, kb_path).net;
    KbImage image(net, machine);
    saveKbImageFile(net, image, machine.partition, out_path);

    // Read the result back: the fingerprint is only defined by the
    // serialized form, and the verify catches any I/O truncation at
    // pack time instead of at serve time.
    KbImageFile check;
    std::string detail;
    KbImgStatus status = loadKbImageFile(out_path, check, detail);
    if (status != KbImgStatus::Ok)
        args.inputError(std::string("packed image fails verification: ") +
                        kbImgStatusName(status) + " (" + detail + ")");
    std::printf("packed %s -> %s: %u nodes, %llu links, %u clusters, "
                "fingerprint %016llx\n",
                kb_path.c_str(), out_path.c_str(), net.numNodes(),
                static_cast<unsigned long long>(net.numLinks()),
                image.numClusters(),
                static_cast<unsigned long long>(check.fingerprint));
    return 0;
}
