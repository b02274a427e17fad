/**
 * @file
 * The benchmark's workloads and the per-pass plumbing they share.
 *
 * A run repeats one *pass* until its time is up: build a fresh device
 * and prefill it (timed as set-up), run a fixed, seed-derived script of
 * closed-loop rounds (the measured region), then read host pages back.
 * Every pass of one seed does identical work, so every count and
 * simulated-time figure must repeat exactly from pass to pass; main.cpp
 * checks that.  Host-visible results are checked against reference
 * models built from the seed, always outside the measured region.
 */

#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/profiler.hpp"
#include "parabit/device.hpp"
#include "spans.hpp"

namespace perfbench {

/** Timing state of one pass. */
struct PassContext
{
    explicit PassContext(bool traced) : spans(traced) {}

    SpanLog spans;
    /** The global profiler in traced passes, else null. */
    parabit::obs::Profiler *profiler = nullptr;
    /** Wall seconds spent inside rounds. */
    double measuredS = 0.0;
    /** Profiler self time accrued inside rounds only. */
    parabit::obs::Profiler::Totals profile;
};

/** One closed-loop round: the measured region plus its span.  Whatever
 *  runs while a Round is alive is on the clock; verification must run
 *  after it ends. */
class Round
{
  public:
    explicit Round(PassContext &ctx);
    ~Round();
    Round(const Round &) = delete;
    Round &operator=(const Round &) = delete;

  private:
    PassContext &ctx_;
    SpanLog::Scope span_;
    parabit::obs::Profiler::Totals prof0_;
    Clock::time_point t0_;
};

/** What one pass did, as seen by the host. */
struct PassResult
{
    /** Host-visible ops: NVMe reads, writes and flushes, formulas, or
     *  ParaBitDevice bitwise calls. */
    std::uint64_t attempted = 0;
    /** Ops with a non-OK status or a result that differs from the
     *  reference. */
    std::uint64_t failed = 0;
    /** Host pages whose read-back after the rounds differs from the
     *  host's last acknowledged write. */
    std::uint64_t corruptPages = 0;
    std::uint64_t hostCmds = 0;       ///< commands HostInterface retired
    std::uint64_t hostCmdsFailed = 0; ///< completions with non-OK status
    std::uint64_t resultBytes = 0;    ///< result bytes handed to the host
    /** Simulated submit-to-completion latency of every op. */
    std::vector<parabit::Tick> latencies;
    /** Latest simulated completion time of any op. */
    parabit::Tick simEnd = 0;
    /** Harness faults (full ring, unmatched completion); never a device
     *  failure. */
    std::uint64_t harnessErrors = 0;
};

/** A workload: a seed-derived script replayed once per pass. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the device and prefill it (the timed set-up). */
    virtual void setup() = 0;
    /** The devices built by setup(); valid until finish(). */
    virtual std::vector<parabit::core::ParaBitDevice *> devices() = 0;
    /** Run the measured rounds, verifying each round off the clock. */
    virtual void run(PassContext &ctx, PassResult &res) = 0;
    /** Read host pages back (off the clock) and release the device. */
    virtual void finish(PassContext &ctx, PassResult &res) = 0;
};

/** Workload names, for the usage message. */
const std::vector<std::string> &workloadNames();

/**
 * Where a workload puts its data.  kMeasured keeps the data clear of the
 * simulator's known defects (README.md, "Known failures"), so no op of
 * the measured workload fails.  kDefects is the layout that shows them:
 * the whole logical range, its top included.
 */
enum class Layout : std::uint8_t { kMeasured, kDefects };

/** The workload called @p name with inputs from @p seed, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, Layout layout);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP_
