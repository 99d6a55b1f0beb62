#include "arch/perf_net.hh"

#include <algorithm>

#include "common/logging.hh"

namespace snap
{

PerfNet::PerfNet(std::uint32_t num_pes, const TimingParams &t,
                 bool enabled)
    : enabled_(enabled),
      shiftTicks_(static_cast<Tick>(t.perfRecordBits) * ticksPerSec /
                  t.perfNetBps),
      portBusyUntil_(num_pes, 0)
{
}

void
PerfNet::emit(std::uint32_t pe, Tick now, PerfEvent event,
              std::uint32_t status)
{
    if (!enabled_)
        return;
    ++emitted;
    snap_assert(pe < portBusyUntil_.size(), "perf pe %u out of %zu", pe,
                portBusyUntil_.size());
    Tick &busy = portBusyUntil_[pe];
    if (busy > now) {
        // Serial-port register still shifting the previous record.
        ++droppedRecords;
        return;
    }
    busy = now + shiftTicks_;
    runRecords_.push_back(
        PerfRecord{busy, pe, event, status & 0xffffffu});
}

void
PerfNet::endRun()
{
    // (timestamp, pe) is unique: the serial port serializes each
    // PE's records in time.
    std::sort(runRecords_.begin(), runRecords_.end(),
              [](const PerfRecord &a, const PerfRecord &b) {
                  if (a.timestamp != b.timestamp)
                      return a.timestamp < b.timestamp;
                  return a.pe < b.pe;
              });
    records_.insert(records_.end(), runRecords_.begin(),
                    runRecords_.end());
    runRecords_.clear();
}

} // namespace snap
