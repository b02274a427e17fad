/**
 * @file
 * Resource timelines for greedy SSD scheduling.
 *
 * Channels, dies and the per-plane register files are modelled as
 * serially reusable resources: a Timeline tracks when the resource next
 * becomes free, and reserve() books an interval no earlier than both the
 * caller's ready time and the resource's availability.  Composing
 * timelines reproduces the classic SSD pipeline behaviour (die sensing
 * overlapping channel transfers, multi-chip interleaving on a shared
 * channel) without callback plumbing, and stays deterministic.
 */

#ifndef PARABIT_SSD_TIMELINE_HPP_
#define PARABIT_SSD_TIMELINE_HPP_

#include <algorithm>

#include "common/units.hpp"

namespace parabit::ssd {

/** One serially reusable resource. */
class Timeline
{
  public:
    /**
     * Book the resource for @p duration, starting no earlier than
     * @p earliest.  @return the start of the booked interval.
     */
    Tick
    reserve(Tick earliest, Tick duration)
    {
        const Tick start = std::max(earliest, nextFree_);
        nextFree_ = start + duration;
        bookedTicks_ += duration;
        return start;
    }

    /** When the resource next becomes free. */
    Tick nextFree() const { return nextFree_; }

    /** Total booked (busy) time over the resource's lifetime. */
    Tick bookedTicks() const { return bookedTicks_; }

  private:
    Tick nextFree_ = 0;
    Tick bookedTicks_ = 0;
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_TIMELINE_HPP_
