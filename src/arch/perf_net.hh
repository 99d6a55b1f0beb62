/**
 * @file
 * Performance collection network (paper §III-B).
 *
 * "Each PE sends performance data to the central collection board via
 * 2-Mb/s serial links.  When triggered by a monitoring event, the PE
 * under observation writes an 8-b event code and 24-b status word to
 * its serial-port register.  It then resumes execution without delay
 * while the serial-port controller shifts out the data to the
 * network.  When the data is received at the central collection
 * board, it is stored in a FIFO queue along with an event timestamp."
 *
 * Each per-PE link shifts one 32-bit record in recordBits / rate
 * seconds (16 µs at 2 Mb/s); a record arriving while the serial-port
 * register is still shifting is dropped (and counted) — the price of
 * perturbation-free instrumentation.
 *
 * A run's records collect in one buffer; at run end endRun() appends
 * them to the central FIFO ordered by (timestamp, pe), which is a
 * total order (per-PE shift serialization forbids two records from
 * one PE at the same arrival tick).
 */

#ifndef SNAP_ARCH_PERF_NET_HH
#define SNAP_ARCH_PERF_NET_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "common/types.hh"

namespace snap
{

/** Monitoring event codes emitted by the machine model. */
enum class PerfEvent : std::uint8_t
{
    InstrDecoded = 1,
    TaskStart = 2,
    TaskEnd = 3,
    MsgSent = 4,
    MsgReceived = 5,
    BarrierReached = 6,
    BarrierComplete = 7,
    CollectDone = 8
};

/** One timestamped record in the central FIFO. */
struct PerfRecord
{
    Tick timestamp;        ///< arrival time at the collection board
    std::uint32_t pe;      ///< source PE (flattened index)
    PerfEvent event;
    std::uint32_t status;  ///< 24-b status word
};

class PerfNet
{
  public:
    PerfNet(std::uint32_t num_pes, const TimingParams &t,
            bool enabled);

    bool enabled() const { return enabled_; }

    /**
     * PE @p pe emits a record at time @p now.  Non-blocking for the
     * PE; dropped if that PE's serial port is still shifting.
     */
    void emit(std::uint32_t pe, Tick now, PerfEvent event,
              std::uint32_t status);

    /** Append the run's buffered records to the central FIFO in
     *  (timestamp, pe) order.  Call once per run, at its end. */
    void endRun();

    const std::vector<PerfRecord> &records() const { return records_; }

    /** Clear the central FIFO (between experiments). */
    void clearRecords() { records_.clear(); }

    std::uint64_t dropped() const { return droppedRecords; }

    /** Serial shift time of one record. */
    Tick shiftTime() const { return shiftTicks_; }

    std::uint64_t emitted = 0;
    std::uint64_t droppedRecords = 0;

  private:
    bool enabled_;
    Tick shiftTicks_;
    std::vector<Tick> portBusyUntil_;
    std::vector<PerfRecord> records_;
    /** This run's records, in emission order. */
    std::vector<PerfRecord> runRecords_;
};

} // namespace snap

#endif // SNAP_ARCH_PERF_NET_HH
