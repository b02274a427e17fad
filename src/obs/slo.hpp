/**
 * @file
 * SLO tracking: a deterministic, mergeable, fixed-memory quantile
 * sketch plus a per-op-class tracker of windowed tail latencies,
 * violation counts and error-budget burn rate.
 *
 * QuantileSketch is the simulator's one quantile mechanism: the
 * scheduler's per-class latency (SchedConfig::latencySampling) and the
 * SLO windows below both use it.  It is a DDSketch-style log-bucketed
 * histogram: bucket i covers
 * (gamma^(i-1), gamma^i], so every quantile is answered with bounded
 * relative error (gamma - 1), the bucket array is fixed at
 * construction, sketches with equal shape merge bucket-wise, and the
 * same sample stream always produces the same sketch — seedless and
 * byte-reproducible.
 *
 * SloTracker rolls the sketch over tumbling windows of *simulated*
 * time: each completed window exports p99/p999 (microseconds), the
 * window's violation count (samples over the target latency) and the
 * error-budget burn rate — the window's violation fraction divided by
 * the budget the objective leaves (1 - objective).  A burn rate of 1
 * means the budget is being consumed exactly as provisioned; above 1
 * the class is eating future budget.  Exported through the metrics
 * registry under obs.slo.<class>.*, so snapshots pick the series up
 * for free.  Everything is driven by the logical clock — wall time
 * never enters, so enabling SLO tracking cannot perturb determinism.
 */

#ifndef PARABIT_OBS_SLO_HPP_
#define PARABIT_OBS_SLO_HPP_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace parabit::obs {

/** Deterministic log-bucketed quantile sketch; see file comment. */
class QuantileSketch
{
  public:
    /**
     * @param relative_error quantile accuracy bound (gamma - 1); the
     *        default 1% resolves microsecond-scale latencies with a
     *        few hundred buckets.
     * @param max_value largest representable sample; larger samples
     *        clamp into the top bucket (counted, never dropped).
     */
    explicit QuantileSketch(double relative_error = 0.01,
                            double max_value = 1e12);

    /** Record @p v (negative values clamp to zero). */
    void sample(double v);

    std::uint64_t count() const { return count_; }

    /**
     * Value at quantile @p q in [0, 1] (nearest-rank over buckets,
     * reported as the bucket's upper bound — within the relative-error
     * bound of the true sample).  0 when empty.
     */
    double quantile(double q) const;

    /** Samples strictly greater than @p threshold. */
    std::uint64_t countAbove(double threshold) const;

    /** Bucket-wise merge; @p o must have the same shape (it was built
     *  with the same parameters) or the merge is refused (false). */
    bool merge(const QuantileSketch &o);

    void reset();

    double relativeError() const { return gamma_ - 1.0; }
    std::size_t bucketCount() const { return buckets_.size(); }

  private:
    std::size_t indexOf(double v) const;

    double gamma_ = 1.0;
    double invLogGamma_ = 0.0;
    std::uint64_t zeros_ = 0;           ///< samples <= 1 (sub-resolution)
    std::vector<std::uint64_t> buckets_; ///< bucket i: (gamma^i, gamma^(i+1)]
    std::uint64_t count_ = 0;
};

/** One op class's objective: latency target over a tumbling window. */
struct SloConfig
{
    /** Latency target; a completion above it is a violation. */
    Tick target = 0;
    /** Fraction of completions that must meet the target (e.g. 0.99).
     *  1 - objective is the error budget the burn rate is scored
     *  against. */
    double objective = 0.99;
    /** Tumbling-window length in simulated ticks; 0 = one run-length
     *  window closed only by finalize(). */
    Tick window = 0;
};

/** Windowed SLO state for one op class; see file comment. */
class SloTracker
{
  public:
    /**
     * @param prefix metric-name prefix, e.g. "obs.slo.read"; gauges
     *        <prefix>.p99_us / .p999_us / .burn_rate and counters
     *        <prefix>.violations / .windows are registered (local-only
     *        while the registry is disabled, like every handle).
     */
    SloTracker(const std::string &prefix, const SloConfig &cfg);

    const SloConfig &config() const { return cfg_; }

    /** Record one completion of latency @p latency at logical time
     *  @p at.  Closes and exports every window boundary crossed. */
    void record(Tick latency, Tick at);

    /** Close the current window (end of run / end of bench phase). */
    void finalize(Tick at);

    /** @name Last-closed-window readouts (also exported as metrics). */
    /// @{
    double windowP99Us() const { return p99_.value(); }
    double windowP999Us() const { return p999_.value(); }
    double burnRate() const { return burn_.value(); }
    std::uint64_t violations() const { return violations_.value(); }
    std::uint64_t windowsClosed() const { return windows_.value(); }
    /// @}

  private:
    void closeWindow();

    SloConfig cfg_;
    QuantileSketch sketch_;
    Tick windowStart_ = 0;
    std::uint64_t windowSamples_ = 0;
    std::uint64_t windowViolations_ = 0;

    Gauge p99_;
    Gauge p999_;
    Gauge burn_;
    Counter violations_;
    Counter windows_;
};

} // namespace parabit::obs

#endif // PARABIT_OBS_SLO_HPP_
