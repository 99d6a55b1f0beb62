/**
 * @file
 * Per-layer timings measured by calling each layer's public functions
 * directly on the workload's own inputs: the shard-protocol codecs on
 * real request and response frames, SnapMachine::run solo and guarded
 * (fault plan + integrity shadow), and the shadow's two parts,
 * KbImage::flatten and a ReferenceInterpreter replay.
 */

#ifndef FLEETBENCH_LAYERS_HH
#define FLEETBENCH_LAYERS_HH

#include <vector>

#include "shard/protocol.hh"

#include "workloads.hh"

namespace fleetbench
{

struct LayerTimes
{
    double requestEncodeUs = 0.0;
    double requestDecodeUs = 0.0;
    double responseEncodeUs = 0.0;
    double responseDecodeUs = 0.0;
    double requestBytes = 0.0;
    double responseBytes = 0.0;
    /** Encoded SessionState of a parsed sentence (session workload
     *  only; 0 otherwise). */
    double sessionStateBytes = 0.0;
    double soloRunUs = 0.0;
    double guardedRunUs = 0.0;
    double flattenUs = 0.0;
    double replayUs = 0.0;
};

/** @p responses are real frames the fleet answered this run. */
LayerTimes measureLayers(
    const Workload &wl,
    const std::vector<snap::shard::ResponseFrame> &responses);

} // namespace fleetbench

#endif // FLEETBENCH_LAYERS_HH
