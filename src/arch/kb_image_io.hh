/**
 * @file
 * Binary knowledge-base snapshots (.kbimg).
 *
 * A .kbimg file is the versioned, checksummed, bulk-loadable form of
 * a compiled KbImage plus the logical SemanticNetwork it was compiled
 * from: magic + fixed header, a section table, and one checksummed
 * section per payload (symbols, node names, node colors, the link
 * CSR, the partition placement table, and the per-cluster compiled
 * relation tables).  Loading deserializes straight into the existing
 * ClusterKb tables, so a serving process stamps replicas from the
 * image without re-partitioning or re-compiling the network — the
 * bring-up path that matters once knowledge bases stop fitting in a
 * text file that is cheap to re-parse.
 *
 * Layout (all fields little-endian):
 *
 *     header   "SNAPKBIM" | u32 version | u32 endian-tag 0x01020304
 *              | u32 section count | u32 reserved
 *     table    per section: u32 id | u32 reserved | u64 offset
 *              | u64 size | u64 fnv1a64 checksum
 *     payload  section bytes at the recorded offsets
 *
 * Encoded and decoded with the shard protocol's byte codec
 * (common/wire_format.hh): every element count is bounded by the
 * section bytes left before anything is reserved for it.
 *
 * Rejection is *typed* (KbImgStatus), never fatal: a truncated file,
 * a corrupted section, a foreign-endian or future-version header all
 * come back as a status + detail string so tools can map them onto
 * the exit-code convention (see docs/sharding.md).
 */

#ifndef SNAP_ARCH_KB_IMAGE_IO_HH
#define SNAP_ARCH_KB_IMAGE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "arch/kb_image.hh"
#include "kb/semantic_network.hh"

namespace snap
{

/** Current .kbimg format version. */
constexpr std::uint32_t kbImgVersion = 1;

/** Typed outcome of loading a .kbimg file. */
enum class KbImgStatus
{
    Ok,
    /** File missing or unreadable. */
    IoError,
    /** Not a .kbimg file (bad magic). */
    BadMagic,
    /** Format version this build does not understand. */
    BadVersion,
    /** Written on a machine with different byte order. */
    BadEndian,
    /** File shorter than its header/section table promises. */
    Truncated,
    /** A section's bytes do not match its recorded checksum. */
    ChecksumMismatch,
    /** A section's contents are internally inconsistent. */
    BadSection,
};

const char *kbImgStatusName(KbImgStatus s);

/** A loaded .kbimg: the logical network plus the compiled image. */
struct KbImageFile
{
    SemanticNetwork net;
    std::unique_ptr<KbImage> image;
    /** Strategy the partition was built with (provenance). */
    PartitionStrategy strategy = PartitionStrategy::Semantic;
    /** FNV-1a over the section checksums: a cheap identity for "are
     *  two processes serving the same knowledge?" (router handshake,
     *  epoch bookkeeping). */
    std::uint64_t fingerprint = 0;
};

/**
 * Serialize @p net + its compiled @p image to @p os.  @p strategy is
 * recorded as provenance.  Deterministic: the same inputs produce
 * byte-identical files (the round-trip test relies on this).
 * @return false on a stream write error.
 */
bool saveKbImage(const SemanticNetwork &net, const KbImage &image,
                 PartitionStrategy strategy, std::ostream &os);

/** Serialize to a file; fatal on IO failure (write side is always a
 *  local tool, not an untrusted input). */
void saveKbImageFile(const SemanticNetwork &net, const KbImage &image,
                     PartitionStrategy strategy,
                     const std::string &path);

/**
 * Bulk-load a .kbimg file.  On success fills @p out and returns
 * KbImgStatus::Ok; any failure returns the typed status with a
 * human-readable @p detail and leaves @p out untouched.
 */
KbImgStatus loadKbImageFile(const std::string &path, KbImageFile &out,
                            std::string &detail);

/** True when @p path starts with the .kbimg magic (format sniffing
 *  for tools that accept both .snapkb text and .kbimg binaries). */
bool isKbImageFile(const std::string &path);

} // namespace snap

#endif // SNAP_ARCH_KB_IMAGE_IO_HH
