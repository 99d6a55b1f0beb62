/**
 * @file
 * Marker-state snapshots: the one byte form of a session's marker
 * state.
 *
 * Applications issue many programs against persistent marker state
 * (the parser's per-sentence programs, host-driven resolution
 * loops).  Snapshots let a long-running application checkpoint the
 * dynamic state between programs and restore it later — on the same
 * machine, on a differently-partitioned machine, or on the golden
 * model.  The shard wire's SessionState and SessionPush frames carry
 * the same codec bytes as a checkpoint file.
 *
 * Codec (little-endian, common/wire_format.hh):
 *
 *     u8 number of non-empty planes
 *     per such plane, ascending marker id:
 *         u8 marker | u32 node count | per node, ascending:
 *         u32 node [f32 value | u32 origin]   # complex markers only
 *
 * Checkpoint file:
 *
 *     "SNAPMARK" | u32 node count | codec bytes
 *
 * Loading is a typed rejection, never fatal: checkpoints cross a
 * trust boundary (files handed to snapsh, frames from a peer), so a
 * malformed one yields false and a message.
 */

#ifndef SNAP_RUNTIME_SNAPSHOT_HH
#define SNAP_RUNTIME_SNAPSHOT_HH

#include <string>

#include "common/wire_format.hh"
#include "runtime/marker_store.hh"

namespace snap
{

/** Append the codec bytes of @p m to @p w. */
void encodeMarkers(WireWriter &w, const MarkerStore &m);

/** Decode codec bytes into @p out, which must be pre-sized to the
 *  expected node count; rejects out-of-range nodes and non-ascending
 *  plane/node order. */
bool decodeMarkers(WireReader &r, MarkerStore &out);

/** Write @p store as a checkpoint file.  @return false with @p err
 *  when the file cannot be written. */
bool saveMarkersFile(const MarkerStore &store, const std::string &path,
                     std::string &err);

/**
 * Read a checkpoint file into @p out.  A missing, foreign, truncated,
 * over-long or malformed file, or one claiming more than
 * capacity::maxNodes nodes, returns false with @p err and leaves
 * @p out untouched.
 */
bool loadMarkersFile(const std::string &path, MarkerStore &out,
                     std::string &err);

} // namespace snap

#endif // SNAP_RUNTIME_SNAPSHOT_HH
