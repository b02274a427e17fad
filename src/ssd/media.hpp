/**
 * @file
 * Background media management: the patrol scrubber.
 *
 * NAND pages degrade while they sit: neighbor sensings charge read
 * disturb into a wordline and retention leakage grows with time since
 * program (flash::ErrorModel compounds both with P/E wear).  The
 * scrubber bounds that growth the way real SSD firmware does — a
 * low-priority patrol walk over the device:
 *
 *  - pump() runs at most one scrub pass per MediaConfig::scrubInterval
 *    of simulated time, scanning up to scrubWordlinesPerPass wordlines
 *    from a persistent linear cursor (plane, block, wordline);
 *  - each valid page gets one patrol scan sense, booked as a
 *    PhysOp::Kind::kScrubRead — the scheduler runs those in the
 *    TxClass::kScrub background class (suspendable, starvation-bounded)
 *    so patrol traffic hides behind host idle time;
 *  - when a wordline's predicted RBER (or raw disturb count) crosses
 *    the configured refresh threshold, the FTL refresh-relocates it
 *    (Ftl::refreshWordline) and the wordline's counters restart at its
 *    new location;
 *  - wordlines on a dead plane are repaired instead: the RAIN parity
 *    stripe rebuilds each mapped page's content and the FTL re-places
 *    it on an operational plane (uncorrectable when a second stripe
 *    member is also lost).
 *
 * Open (write-cursor) and reserved (SPOR log) blocks are skipped, as is
 * anything after power loss; the scrubber resumes after powerCycle().
 */

#ifndef PARABIT_SSD_MEDIA_HPP_
#define PARABIT_SSD_MEDIA_HPP_

#include <cstdint>
#include <vector>

#include "common/invariant.hpp"
#include "obs/metrics.hpp"
#include "ssd/ftl.hpp"
#include "ssd/rain.hpp"

namespace parabit::ssd {

class DeviceHealth;

/** What one pump() call did (feeds the device's scrub trace span). */
struct ScrubPassStats
{
    bool ran = false; ///< false: not due yet, or power is lost
    std::uint64_t wordlinesScanned = 0;
    std::uint64_t scrubReads = 0;      ///< patrol scan senses booked
    std::uint64_t refreshes = 0;       ///< wordlines refresh-relocated
    std::uint64_t refreshFailures = 0; ///< refresh wanted, re-place failed
    std::uint64_t repairs = 0;         ///< dead-plane pages rebuilt+moved
    std::uint64_t uncorrectable = 0;   ///< dead-plane pages lost for good
};

/** Patrol scrubber; see file comment. */
class MediaScrubber
{
  public:
    /** @p rain may be null (scrubbing without parity protection). */
    MediaScrubber(const SsdConfig &cfg, Ftl &ftl,
                  std::vector<flash::Chip> &chips, RainController *rain);

    /**
     * Run one scrub pass if @p now has reached the next deadline;
     * appends the pass's patrol reads and any refresh/repair traffic to
     * @p ops for the timing layer.  Returns what happened (ran == false
     * when no pass was due).
     */
    ScrubPassStats pump(Tick now, std::vector<PhysOp> &ops);

    /** Earliest simulated time the next pass may run. */
    Tick nextPassAt() const { return nextPassAt_; }

    /**
     * Attach the device health machine (ssd/health.hpp): refreshes,
     * repairs and uncorrectable pages charge its error budget, and in
     * degraded states the patrol batch shrinks to scrubWordlinesPerPass
     * / DeviceHealth::kDegradedScrubDivisor so background traffic yields
     * to distressed foreground I/O.
     */
    void setHealth(DeviceHealth *health) { health_ = health; }

    /**
     * Audit media.cursor.range: the persistent patrol cursor points at
     * a real (plane, block, wordline) of the configured geometry, so a
     * resumed patrol can never scan out of bounds.  Violations are
     * appended to @p r (common/invariant.hpp).
     */
    void
    auditInvariants(InvariantReport &r) const
    {
        const flash::FlashGeometry &g = cfg_.geometry;
        if (!r.check(plane_ < g.planesTotal() && block_ < g.blocksPerPlane &&
                     wl_ < g.wordlinesPerBlock))
            r.fail("media.cursor.range",
                   "cursor (" + std::to_string(plane_) + ", " +
                       std::to_string(block_) + ", " + std::to_string(wl_) +
                       ")",
                   "patrol cursor escaped the device geometry");
    }

    /** @name Lifetime metric accessors (registry names media.*). */
    /// @{
    std::uint64_t passes() const { return passes_.value(); }
    std::uint64_t wordlinesScanned() const { return scanned_.value(); }
    std::uint64_t scrubReads() const { return reads_.value(); }
    std::uint64_t refreshes() const { return refreshes_.value(); }
    std::uint64_t refreshFailures() const { return refreshFails_.value(); }
    std::uint64_t repairs() const { return repairs_.value(); }
    std::uint64_t uncorrectable() const { return uncorrectable_.value(); }
    /// @}

  private:
    /** Scan the wordline under the cursor (skips reserved/open/
     *  untouched blocks); dead planes divert to repairWordline(). */
    void scanOne(ScrubPassStats &s, std::vector<PhysOp> &ops);

    /** RAIN-rebuild and re-place every mapped page of the dead-plane
     *  wordline at @p a. */
    void repairWordline(flash::PhysPageAddr a, ScrubPassStats &s,
                        std::vector<PhysOp> &ops);

    void advanceCursor();

    SsdConfig cfg_;
    Ftl *ftl_;
    std::vector<flash::Chip> *chips_;
    RainController *rain_;
    DeviceHealth *health_ = nullptr;

    /** Persistent patrol cursor (flat plane, block, wordline). */
    PlaneIndex plane_ = 0;
    std::uint32_t block_ = 0;
    std::uint32_t wl_ = 0;
    Tick nextPassAt_ = 0;

    obs::Counter passes_{"media.scrub.passes"};
    obs::Counter scanned_{"media.scrub.wordlines_scanned"};
    obs::Counter reads_{"media.scrub.reads"};
    obs::Counter refreshes_{"media.refresh.wordlines"};
    obs::Counter refreshFails_{"media.refresh.failures"};
    obs::Counter repairs_{"media.rain.repairs"};
    obs::Counter uncorrectable_{"media.rain.uncorrectable"};
};

} // namespace parabit::ssd

#endif // PARABIT_SSD_MEDIA_HPP_
