/**
 * @file
 * Configuration of the transaction-scheduler subsystem.
 *
 * The scheduler replaces the monolithic greedy Timeline booking with
 * per-die / per-channel queues arbitrated by a pluggable policy.  The
 * default configuration (FCFS, no channel command modelling) is
 * tick-identical to the historical greedy path, so
 * existing latency results are the regression anchor; every other knob
 * is opt-in.
 */

#ifndef PARABIT_SSD_SCHED_SCHED_CONFIG_HPP_
#define PARABIT_SSD_SCHED_SCHED_CONFIG_HPP_

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"
#include "flash/timing.hpp"

namespace parabit::ssd::sched {

/** Arbitration policy; see policy.hpp for semantics. */
enum class SchedPolicyKind : std::uint8_t
{
    /** Strict submission order per resource — reproduces the legacy
     *  greedy Timeline path tick-for-tick (the regression anchor). */
    kFcfs = 0,
    /** Work-conserving: an independent die/channel proceeds past a
     *  blocked head-of-line transaction. */
    kOutOfOrderDieFirst,
    /** Out-of-order plus read preference and program/erase
     *  suspend-resume: host reads jump queues and may suspend an
     *  in-flight array operation (bounded; see SchedConfig). */
    kReadPriority,
};

inline constexpr int kNumSchedPolicies = 3;

const char *policyName(SchedPolicyKind k);

/** Scheduler knobs; defaults reproduce the legacy timing exactly. */
struct SchedConfig
{
    SchedPolicyKind policy = SchedPolicyKind::kFcfs;

    /**
     * Model the command/address cycles of every flash command as
     * channel time (tCmdOverhead booked on the channel before the
     * first data/array phase).  The legacy model charged the command
     * overhead as a die-side delay only, so kPageRead/kBlockErase
     * command issue consumed no channel bandwidth while kPageProgram
     * implicitly delayed its channel transfer; this flag makes command
     * issue consistent across all op kinds and policies.  Off by
     * default for seed compatibility.
     */
    bool cmdOnChannel = false;

    /**
     * Read-priority policy: how many times one program/erase may be
     * suspended by arriving reads.  After the budget is spent the
     * remainder outranks further reads, which hard-bounds the extra
     * latency of the suspended operation.
     */
    int maxSuspendsPerOp = 4;

    /**
     * Read-priority policy: once a suspended remainder has waited this
     * long it outranks arriving reads even with suspend budget left —
     * the second half of the bounded-extra-latency guarantee.
     */
    Tick maxSuspendedTicks = flash::kDefaultMaxSuspended;

    /**
     * Read-priority policy: a background scrub scan (TxClass::kScrub)
     * normally yields to every other ready entry, but once it has been
     * deferred this long past its earliest start it rejoins normal
     * oldest-first arbitration — the scrubber's anti-starvation bound.
     */
    Tick scrubMaxDeferredTicks = flash::kDefaultScrubMaxDeferred;

    /**
     * Record per-transaction completion latencies (per class) in a
     * fixed-memory quantile sketch for p50/p99 reporting.  Off by
     * default: each class's sketch is ~22 KB, allocated only when this
     * is on, and most devices (perfbench keeps dozens alive at once)
     * never read it.
     */
    bool latencySampling = false;

    /**
     * Keep a full booking trace (every phase interval on every
     * resource).  Enables the parabit-verify scheduler invariants and
     * the golden regression assertions; off by default for the same
     * growth reason as latencySampling.
     */
    bool traceEnabled = false;
};

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_SCHED_CONFIG_HPP_
