/**
 * @file
 * Top-level SSD configuration.
 */

#ifndef PARABIT_SSD_CONFIG_HPP_
#define PARABIT_SSD_CONFIG_HPP_

#include <cstdint>

#include "flash/error_model.hpp"
#include "flash/geometry.hpp"
#include "flash/timing.hpp"
#include "ssd/sched/sched_config.hpp"

namespace parabit::ssd {

/**
 * Sudden-power-off recovery (SPOR) configuration.  When enabled the FTL
 * reserves the top blocks of every plane as an SLC-mode checkpoint +
 * write-ahead-journal region, attaches OOB metadata arbitration to
 * every mapping change, and can rebuild its tables after a power cut
 * (see DESIGN.md "Crash consistency").
 *
 * Interaction with media management: a scrub-triggered refresh
 * relocation is an ordinary sequence of OOB-stamped programs and
 * invalidations, so it inherits the same journaling/arbitration
 * guarantees — a power cut mid-refresh leaves either the old or the new
 * copy as the sequence-arbitration winner, never neither.  Paired
 * LSB/MSB operand refreshes go through the writePair copy-then-remap
 * path, so operands stay readable mid-refresh.  Disturb counters and
 * program timestamps are physical charge state: they survive a power
 * cut with the cells, and patrol scanning simply resumes after
 * powerCycle().
 */
struct RecoveryConfig
{
    bool enabled = false;

    /**
     * Data-page programs between automatic checkpoints (taken at the
     * next safe point).  0 = only explicit checkpoints (NVMe Flush,
     * shutdown notification, journal-region rotation).
     */
    std::uint32_t checkpointIntervalPrograms = 0;
};

/**
 * Background media management: patrol scrub + refresh relocation.
 *
 * The patrol scrubber walks the physical pages of the device in
 * low-priority scan batches (TxClass::kScrub through the transaction
 * scheduler), predicts each mapped wordline's raw per-sensing RBER from
 * its P/E count, accumulated read disturb and retention age
 * (Chip::predictedRber), and refresh-relocates wordlines whose
 * prediction crosses refreshRberThreshold.  Relocation re-places pages
 * with their OOB tags preserved; paired ParaBit operands move through
 * the atomic writePair copy-then-remap.  Disabled (the default) the
 * subsystem adds no transactions and no state: the device is
 * tick-identical to a build without it.
 */
struct MediaConfig
{
    bool enabled = false;

    /**
     * Simulated time between patrol passes; a pass is started by the
     * first host I/O whose submission tick crosses the deadline (or by
     * an explicit SsdDevice::pumpMedia()).  0 = never scan.
     */
    Tick scrubInterval = flash::kDefaultScrubInterval;

    /** Wordlines scanned per patrol pass (bounds the burst a pass can
     *  impose on the device; anti-starvation at the batch level). */
    std::uint32_t scrubWordlinesPerPass = 256;

    /** Predicted raw per-sensing RBER beyond which a scanned wordline
     *  is refresh-relocated. */
    double refreshRberThreshold = 1e-4;

    /** Optional pure-count trigger: refresh once a wordline's disturb
     *  counter alone reaches this many senses (0 = disabled). */
    std::uint64_t refreshDisturbThreshold = 0;
};

/**
 * Die-level RAIN (Redundant Array of Independent NAND) parity.
 *
 * When enabled, every data-page program XORs its payload into a parity
 * page per stripe; a stripe is the set of pages at the same (plane,
 * block, wordline, page-kind) position across every die of one channel,
 * so any single die (or plane/chip) failure leaves at most one member
 * unreadable per stripe and RainController::rebuildPage() recovers it
 * as parity XOR surviving members.  Parity lives in the controller's
 * battery-backed stripe buffer (recomputed from flash on power cycle)
 * and one destage program per data program is booked on the timing
 * model (deferred while the device is degraded).  Requires a
 * running patrol scrubber (scrubInterval > 0) so dead-die pages are
 * found and rebuilt in the background — validateMediaConfig() rejects
 * parity with scrubbing off.
 */
struct RainConfig
{
    bool enabled = false;
};

/**
 * Device health state machine: overload and degradation control plane.
 *
 * When enabled the device runs a DeviceHealth instance (ssd/health.hpp)
 * that folds existing distress signals — uncorrectable pages, RAIN
 * rebuilds, retired blocks, scrub refreshes, sustained queue depth —
 * into one exponentially-decaying pressure budget and walks a
 * healthy -> degraded -> read-only -> failed state machine over it.
 * Escalation happens the moment pressure crosses the next state's
 * threshold; de-escalation additionally requires a minimum dwell in the
 * state and pressure below threshold * (1 - DeviceHealth::kHysteresis),
 * so the machine cannot oscillate at a boundary.  kFailed is terminal.
 * Per-state policy: degraded throttles background scrub batches and
 * RAIN parity destage and sheds ParaBit formula admission; read-only
 * additionally rejects host writes with nvme::kWriteProtected; failed
 * rejects everything with nvme::kInternalError.  Disabled (the
 * default) the subsystem does not exist and the device is
 * byte-identical to a build without it.
 */
struct HealthConfig
{
    bool enabled = false;

    /** Pressure at which healthy escalates to degraded. */
    double degradedThreshold = 8.0;

    /** Pressure at which degraded escalates to read-only. */
    double readOnlyThreshold = 24.0;

    /** Pressure at which read-only escalates to failed (terminal). */
    double failedThreshold = 96.0;

    /** Exponential half-life of the pressure budget. */
    Tick pressureHalfLife = flash::kDefaultHealthHalfLife;

    /** Minimum simulated time in a state before de-escalation. */
    Tick minDwell = flash::kDefaultHealthMinDwell;

    /** Pressure charged per bad-block retirement (the other signal
     *  weights are DeviceHealth constants). */
    double weightRetiredBlock = 2.0;
};

/**
 * Whole-device invariant audits (common/invariant.hpp).
 *
 * Every subsystem registers a named audit suite with the device's
 * InvariantRegistry at construction (FTL mapping bijection and OOB
 * agreement, scheduler booking exclusivity and work conservation, RAIN
 * stripe parity, media wear monotonicity).  The device runs all suites
 * every auditInterval transaction drains; a violation is dumped
 * through the obs/logging layer and treated as a panic (an audit
 * firing means the simulator state is corrupt — continuing would turn
 * a detected bug into silent wrong numbers).
 *
 * Audits are pure observation: they never book traffic or schedule
 * events, so enabling them changes no simulated timing — only wall
 * clock.  The default cadence is 0 (never) unless the build was
 * configured with -DPARABIT_INVARIANTS=ON, which flips it to every
 * drain; SsdDevice::auditInvariants() is available in every build for
 * tests and the parabit-model checker.
 */
struct InvariantConfig
{
    /** Run all registered audit suites every N drains (0 = never). */
    std::uint32_t auditInterval =
#ifdef PARABIT_INVARIANTS_ENABLED
        1;
#else
        0;
#endif

    /** Panic on a cadence-audit violation (tests running audits
     *  explicitly inspect the report instead). */
    bool fatalOnViolation = true;
};

/** Configuration of a simulated SSD. */
struct SsdConfig
{
    flash::FlashGeometry geometry;
    flash::FlashTiming timing;
    flash::ErrorModelConfig errors = flash::ErrorModelConfig::ideal();

    /** Whether flash pages carry payloads (functional mode) or only
     *  state (timing mode for device-scale experiments). */
    bool storeData = true;

    /**
     * Static wear leveling: when the erase-count spread within a plane
     * exceeds this threshold, the coldest data block is migrated onto a
     * well-worn free block so static data stops pinning young blocks.
     * 0 disables static wear leveling.
     */
    std::uint32_t wearLevelThreshold = 16;

    /**
     * Scramble host data before programming (paper Section 4.3.2).
     * ParaBit operand placement always bypasses the scrambler, as the
     * paper requires; this flag covers the normal host write path.
     */
    bool scrambleHostData = false;

    /** RNG seed (error injection, scrambler key, tie-breaking). */
    std::uint64_t seed = 0xC0FFEE;

    /** Sudden-power-off recovery (off by default). */
    RecoveryConfig recovery;

    /** Transaction-scheduler knobs (defaults reproduce the legacy
     *  greedy timing exactly; see ssd/sched/sched_config.hpp). */
    sched::SchedConfig sched;

    /** Background media management (off by default). */
    MediaConfig media;

    /** Die-level RAIN parity (off by default). */
    RainConfig rain;

    /** Device health state machine (off by default). */
    HealthConfig health;

    /** Whole-device invariant audit cadence (defaults follow the
     *  PARABIT_INVARIANTS build option). */
    InvariantConfig invariants;

    /** The paper's evaluated device (Section 5.1) in timing mode. */
    static SsdConfig
    paperSsd()
    {
        SsdConfig c;
        c.geometry = flash::FlashGeometry::paperSsd();
        c.storeData = false;
        return c;
    }

    /** Small functional device for tests and examples. */
    static SsdConfig
    tiny()
    {
        SsdConfig c;
        c.geometry = flash::FlashGeometry::tiny();
        c.storeData = true;
        return c;
    }
};

/**
 * Validate the media-management/RAIN corner of @p cfg.  Returns nullptr
 * when consistent, else a static description of the violation.
 * SsdDevice's constructor treats a violation as fatal; parabit-verify
 * and the config tests call this directly.
 */
inline const char *
validateMediaConfig(const SsdConfig &cfg)
{
    if (cfg.rain.enabled &&
        (!cfg.media.enabled || cfg.media.scrubInterval == 0))
        return "rain.enabled requires a running patrol scrubber "
               "(media.enabled with media.scrubInterval > 0): parity "
               "rebuild of failed-die pages happens from scrub passes";
    if (cfg.media.enabled && cfg.media.scrubInterval > 0 &&
        cfg.media.scrubWordlinesPerPass == 0)
        return "media.scrubWordlinesPerPass must be nonzero when patrol "
               "scrubbing is enabled";
    return nullptr;
}

/**
 * Validate the device-health corner of @p cfg.  Returns nullptr when
 * consistent, else a static description of the violation.  SsdDevice's
 * constructor treats a violation as fatal; the config tests call this
 * directly.
 */
inline const char *
validateHealthConfig(const SsdConfig &cfg)
{
    const HealthConfig &h = cfg.health;
    if (!h.enabled)
        return nullptr; // knobs of a disabled subsystem are inert
    if (!(h.degradedThreshold > 0.0 &&
          h.degradedThreshold < h.readOnlyThreshold &&
          h.readOnlyThreshold < h.failedThreshold))
        return "health thresholds must be strictly ordered: 0 < "
               "degradedThreshold < readOnlyThreshold < failedThreshold "
               "(each state escalates at its own pressure level)";
    if (h.pressureHalfLife == 0)
        return "health.pressureHalfLife must be nonzero: an instant-decay "
               "budget can never accumulate sustained distress";
    if (h.minDwell == 0)
        return "health.minDwell must be nonzero: zero dwell defeats the "
               "hysteresis guard on de-escalation";
    return nullptr;
}

} // namespace parabit::ssd

#endif // PARABIT_SSD_CONFIG_HPP_
