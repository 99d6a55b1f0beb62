#include "layers.hh"

#include "arch/machine.hh"
#include "common/logging.hh"
#include "runtime/reference.hh"

#include "common.hh"

using namespace snap;
using namespace snap::shard;

namespace fleetbench
{

namespace
{

constexpr std::size_t kFrameSample = 200;
constexpr std::size_t kRunSample = 24;
constexpr int kCodecPasses = 15;

/** Median over kCodecPasses of one pass's time per item (us). */
template <typename Pass>
double
perItemUs(std::size_t items, Pass pass)
{
    std::vector<double> passes;
    for (int r = 0; r < kCodecPasses; ++r) {
        auto t0 = Clock::now();
        pass();
        passes.push_back(usBetween(t0, Clock::now()) /
                         static_cast<double>(items));
    }
    return median(passes);
}

/** Up to @p k distinct programs of the open-loop schedule. */
std::vector<std::uint32_t>
samplePrograms(const Workload &wl, std::size_t k)
{
    std::vector<std::uint32_t> out;
    std::vector<bool> taken(wl.programs.size());
    for (std::size_t i = wl.openBegin();
         i < wl.closedBegin() && out.size() < k; ++i) {
        std::uint32_t p = wl.program(i);
        if (!taken[p]) {
            taken[p] = true;
            out.push_back(p);
        }
    }
    return out;
}

template <typename Frame, typename Encode, typename Decode>
void
timeCodec(const std::vector<Frame> &frames, Encode encode, Decode decode,
          double &encode_us, double &decode_us, double &bytes)
{
    if (frames.empty())
        return;
    std::vector<std::vector<std::uint8_t>> wire(frames.size());
    encode_us = perItemUs(frames.size(), [&] {
        for (std::size_t i = 0; i < frames.size(); ++i) {
            WireWriter w;
            encode(w, frames[i]);
            wire[i] = w.take();
        }
    });
    decode_us = perItemUs(frames.size(), [&] {
        for (const auto &b : wire) {
            WireReader r(b);
            Frame f;
            if (!decode(r, f))
                snap_fatal("codec round trip failed");
        }
    });
    double total = 0.0;
    for (const auto &b : wire)
        total += static_cast<double>(b.size());
    bytes = total / static_cast<double>(wire.size());
}

} // namespace

LayerTimes
measureLayers(const Workload &wl,
              const std::vector<ResponseFrame> &responses)
{
    LayerTimes lt;
    const bool session = wl.spec->kind == Kind::Session;

    std::vector<RequestFrame> requests;
    for (std::uint32_t p : samplePrograms(wl, kFrameSample)) {
        RequestFrame f;
        f.id = requests.size() + 1;
        if (session)
            f.sessionId = "fb-0";
        f.prog = wl.programs[p];
        requests.push_back(std::move(f));
    }
    timeCodec(requests, encodeRequest, decodeRequest, lt.requestEncodeUs,
              lt.requestDecodeUs, lt.requestBytes);
    timeCodec(responses, encodeResponse, decodeResponse,
              lt.responseEncodeUs, lt.responseDecodeUs, lt.responseBytes);

    // Solo and guarded runs of the same programs from cleared markers;
    // the guarded machine carries the workload's fault plan (the
    // guarded workload's plan on the stateless workloads too) and the
    // integrity shadow, as a fault-armed replica does.
    const std::vector<std::uint32_t> sample =
        samplePrograms(wl, kRunSample);
    SnapMachine solo(servingMachineConfig());
    solo.loadKb(*wl.image);
    SnapMachine guarded(servingMachineConfig());
    guarded.loadKb(*wl.image);
    guarded.installFaults(session ? wl.faults : guardedFaultSpec(wl.seed));
    guarded.setIntegrityShadow(&wl.net());
    auto &shadow_net = const_cast<SemanticNetwork &>(wl.net());

    std::vector<double> solo_us, guarded_us, flatten_us, replay_us;
    double state_bytes = 0.0;
    for (std::uint32_t p : sample) {
        const Program &prog = wl.programs[p];

        solo.image().resetMarkers();
        auto t0 = Clock::now();
        solo.run(prog);
        solo_us.push_back(usBetween(t0, Clock::now()));
        if (session) {
            SessionStateFrame f;
            f.sessionId = "fb-0";
            f.found = true;
            f.numNodes = wl.net().numNodes();
            f.markers = solo.image().flatten();
            WireWriter w;
            encodeSessionState(w, f);
            state_bytes += static_cast<double>(w.size());
        }

        guarded.image().resetMarkers();
        t0 = Clock::now();
        guarded.run(prog);
        guarded_us.push_back(usBetween(t0, Clock::now()));
        if (guarded.poisoned())
            guarded.repair();

        t0 = Clock::now();
        MarkerStore flat = guarded.image().flatten();
        flatten_us.push_back(usBetween(t0, Clock::now()));

        // What SnapMachine::checkIntegrity does: a fresh reference
        // interpreter replaying the program from the entry state.
        MarkerStore entry(wl.net().numNodes());
        t0 = Clock::now();
        ReferenceInterpreter ref(shadow_net);
        ref.store() = entry;
        ref.run(prog);
        replay_us.push_back(usBetween(t0, Clock::now()));
    }
    lt.soloRunUs = median(solo_us);
    lt.guardedRunUs = median(guarded_us);
    lt.flattenUs = median(flatten_us);
    lt.replayUs = median(replay_us);
    if (session && !sample.empty())
        lt.sessionStateBytes =
            state_bytes / static_cast<double>(sample.size());
    return lt;
}

} // namespace fleetbench
