/**
 * @file
 * Flash timing parameters (paper Section 5.1 values for MLC NAND).
 */

#ifndef PARABIT_FLASH_TIMING_HPP_
#define PARABIT_FLASH_TIMING_HPP_

#include "common/units.hpp"

namespace parabit::flash {

/**
 * Latency model for flash array operations and channel transfers.
 *
 * The paper sets one Single Read Operation (SRO) to 25 us and a page
 * program to 640 us (typical MLC values, matching the 970 PRO class
 * device and [32]).  An LSB read costs one SRO, an MSB read two; a
 * ParaBit operation costs MicroProgram::senseCount() SROs.
 */
struct FlashTiming
{
    /** One sensing (SRO). */
    Tick tSense = ticks::fromUs(25);
    /** One page program (either logical page of a wordline). */
    Tick tProgram = ticks::fromUs(640);
    /** Block erase. */
    Tick tErase = ticks::fromMs(3.5);
    /** ONFI channel bandwidth for page transfers, bytes per second. */
    double channelBytesPerSec = 800.0e6;
    /** Command/address cycle overhead per flash command. */
    Tick tCmdOverhead = ticks::fromNs(200);
    /**
     * Program/erase suspend latency: time from the suspend command
     * until the die can service another array operation (the array
     * finishes the current pulse and parks its charge pumps).  Typical
     * modern-NAND datasheet values are in the few-tens-of-microseconds
     * range; the read-priority scheduler policy charges this before a
     * preempting read's sensing starts.
     */
    Tick tSuspend = ticks::fromUs(20);
    /**
     * Program/erase resume latency: pump restart before the suspended
     * operation continues.  Charged ahead of the resumed remainder.
     */
    Tick tResume = ticks::fromUs(20);

    Tick
    transferTime(Bytes n) const
    {
        return ticks::fromSec(static_cast<double>(n) / channelBytesPerSec);
    }

    Tick lsbReadTime() const { return tSense; }
    Tick msbReadTime() const { return 2 * tSense; }
    Tick senseTime(int sro_count) const
    {
        return static_cast<Tick>(sro_count) * tSense;
    }
};

/**
 * Backoff unit of the detect-and-escalate ladder's retries
 * (core::ReliabilityPolicy; the k-th retry waits k units): four SRO
 * slots, enough for a transient read-disturb condition to decay before
 * re-sensing.
 */
inline constexpr Tick kRetryBackoff = ticks::fromUs(100);

/**
 * Default cap on how long one suspended program/erase may sit parked
 * while reads overtake it (read-priority scheduling): one typical page
 * program.  Together with the per-op suspend-count budget this hard
 * bounds the extra latency suspend-resume can add to background work.
 */
inline constexpr Tick kDefaultMaxSuspended = ticks::fromUs(640);

/**
 * Default spacing between patrol-scrub passes (media management): long
 * against host operations (tens of thousands of page reads fit between
 * passes) yet short enough that simulated soaks cross many passes.
 */
inline constexpr Tick kDefaultScrubInterval = ticks::fromMs(10);

/**
 * Default anti-starvation bound for background scrub transactions under
 * priority scheduling: once a scrub scan has been deferred this long by
 * host traffic it is promoted to normal arbitration (about two page
 * programs' worth of deferral).
 */
inline constexpr Tick kDefaultScrubMaxDeferred = ticks::fromMs(1);

/**
 * Default half-life of the device-health pressure budget
 * (ssd::HealthConfig): error signals charged during a fault burst decay
 * to half their weight after this much simulated time, so the state
 * machine reacts to sustained distress rather than isolated events.
 * Long against single operations (thousands of page reads fit in one
 * half-life), short against a soak run.
 */
inline constexpr Tick kDefaultHealthHalfLife = ticks::fromMs(5);

/**
 * Default minimum dwell in a degraded health state before the machine
 * may step back toward healthy: together with the hysteresis margin it
 * prevents oscillation when pressure sits near a threshold.
 */
inline constexpr Tick kDefaultHealthMinDwell = ticks::fromMs(1);

/**
 * Default base delay before a timed-out host command is re-submitted
 * when the retry policy enables backoff (core::RetryPolicy): the delay
 * doubles per attempt from here, with deterministic seeded jitter on
 * top so synchronized retry storms spread out.
 */
inline constexpr Tick kDefaultRequeueBackoff = ticks::fromUs(200);

} // namespace parabit::flash

#endif // PARABIT_FLASH_TIMING_HPP_
