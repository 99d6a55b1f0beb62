/**
 * @file
 * Base classes for simulated hardware components.
 *
 * SimObject gives every component access to the shared event queue.
 * ClockedObject adds a clock domain so components express delays in
 * their own cycles (the SNAP-1 array runs at 25 MHz while the
 * controller runs at 32 MHz).
 */

#ifndef SNAP_SIM_SIM_OBJECT_HH
#define SNAP_SIM_SIM_OBJECT_HH

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace snap
{

/** Base class for every simulated component. */
class SimObject
{
  public:
    explicit SimObject(EventQueue *eq) : eq_(eq)
    {
        snap_assert(eq != nullptr, "SimObject without queue");
    }

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    Tick curTick() const { return eq_->curTick(); }

    /** Schedule @p ev at an absolute tick. */
    void schedule(Event *ev, Tick when) { eq_->schedule(ev, when); }

    /** Schedule @p ev @p delta ticks from now. */
    void
    scheduleRel(Event *ev, Tick delta)
    {
        eq_->schedule(ev, curTick() + delta);
    }

  private:
    EventQueue *eq_;
};

/** A SimObject with an associated clock. */
class ClockedObject : public SimObject
{
  public:
    /**
     * @param period_ps clock period in ticks (ps); e.g. 40000 for
     *        the 25 MHz array DSPs, 31250 for the 32 MHz controller.
     */
    ClockedObject(EventQueue *eq, Tick period_ps)
        : SimObject(eq), period_(period_ps)
    {
        snap_assert(period_ps > 0, "zero clock period");
    }

    /** Convert a cycle count to ticks. */
    Tick cyclesToTicks(std::uint64_t cycles) const
    {
        return cycles * period_;
    }

  private:
    Tick period_;
};

} // namespace snap

#endif // SNAP_SIM_SIM_OBJECT_HH
