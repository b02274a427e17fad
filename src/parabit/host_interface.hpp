/**
 * @file
 * Queued host interface: multiple NVMe queue pairs in front of the
 * ParaBit device, with round-robin arbitration and per-command
 * completion latencies.
 *
 * This models the full command lifecycle of paper Fig 9/10: the host
 * encodes formulas into read commands (reserved-field semantics),
 * submits them to a queue pair, the device fetches with round-robin
 * arbitration across queues, CMD Parse reconstructs the batch list, the
 * controller executes it, and a completion with the end-to-end latency
 * posts to the completion queue.  Plain reads and writes share the same
 * queues, so mixed I/O + computation workloads exhibit realistic
 * queueing interference.
 */

#ifndef PARABIT_PARABIT_HOST_INTERFACE_HPP_
#define PARABIT_PARABIT_HOST_INTERFACE_HPP_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "nvme/parser.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "parabit/device.hpp"

namespace parabit::ssd::sched {
struct StageTicks;
}

namespace parabit::core {

/** Host-visible command class, the unit of latency attribution and SLO
 *  tracking (obs.latency.* / obs.slo.* metric families). */
enum class OpClass : std::uint8_t
{
    kRead = 0,
    kWrite,
    kFlush,
    kFormula,
};

inline constexpr int kNumOpClasses = 4;

const char *opClassName(OpClass c);

/** Host-visible result of a finished command/formula. */
struct QueuedCompletion
{
    std::uint16_t qid = 0;
    std::uint16_t cid = 0; ///< cid of the formula's final command
    Tick latency = 0;      ///< submit -> completion
    /** NVMe completion status (nvme::Status); 0 = success.  Non-zero
     *  means @p pages must not be trusted. */
    std::uint16_t status = 0;
    /** Result pages for ParaBit formulas (empty for plain I/O). */
    std::vector<BitVector> pages;

    bool ok() const { return status == 0; }
};

/**
 * Host command-retry policy: what the host's watchdog does with a
 * command whose device-side completion would land past its deadline.
 *
 * A timed-out command is completed as nvme::kCommandAborted at the
 * deadline and re-submitted (fresh cid, fresh submission time) after an
 * exponential backoff — attempt n waits backoffBase * 2^(n-1) plus a
 * deterministic seeded jitter in [0, backoffBase), so retries from a
 * storm do not re-converge on the same instant.  After maxRequeues
 * aborted attempts the next submission runs to completion whatever its
 * latency, so a degraded device still makes forward progress and no
 * command ever vanishes without a terminal completion.
 *
 * Defaults (timeout 0 = watchdog off, one requeue, no backoff) are
 * byte-identical to the historical one-shot-requeue behaviour;
 * flash::kDefaultRequeueBackoff is the suggested backoffBase for
 * experiments that enable backoff.
 */
struct RetryPolicy
{
    /** Abort-and-requeue threshold; 0 disables the watchdog. */
    Tick commandTimeout = 0;
    /** Aborted re-submissions allowed per command; the attempt after
     *  the last requeue runs to completion.  0 = never requeue (the
     *  first attempt always runs to completion). */
    std::uint32_t maxRequeues = 1;
    /** First-retry backoff; doubles per attempt.  0 = immediate. */
    Tick backoffBase = 0;
    /** Seed of the jitter stream (common/rng.hpp); deterministic. */
    std::uint64_t jitterSeed = 0x9E3779B97F4A7C15ull;
};

/** Queue-fronted ParaBit device; see file comment. */
class HostInterface
{
  public:
    /**
     * @param dev the device to front
     * @param num_queues queue-pair count
     * @param depth entries per ring
     * @param mode execution scheme for ParaBit formulas
     */
    HostInterface(ParaBitDevice &dev, std::uint16_t num_queues,
                  std::uint16_t depth, Mode mode = Mode::kReAllocate);

    /** @name Host side. */
    /// @{

    /** Queue a plain page read. @return the cid, or nullopt if full. */
    std::optional<std::uint16_t> submitRead(std::uint16_t qid, nvme::Lpn lpn);

    /** Queue a plain page write (metadata-only payload). */
    std::optional<std::uint16_t> submitWrite(std::uint16_t qid,
                                             nvme::Lpn lpn);

    /** Queue an NVMe Flush: completes after the FTL checkpoint that
     *  makes every earlier acknowledged write recoverable committed. */
    std::optional<std::uint16_t> submitFlush(std::uint16_t qid);

    /**
     * Encode and queue a ParaBit formula.  All of its commands must fit
     * in the ring; otherwise nothing is queued and nullopt returns.
     * @return the cid of the final command (the one that completes).
     */
    std::optional<std::uint16_t> submitFormula(std::uint16_t qid,
                                               const nvme::Formula &formula);

    /** Reap one completion from @p qid, if any. */
    std::optional<QueuedCompletion> reap(std::uint16_t qid);
    /// @}

    /**
     * Device side: fetch every pending command (round-robin one command
     * per queue per turn), execute, and post completions.  Commands the
     * timeout policy re-queued are pumped again in the same call, so
     * every submitted command has a completion when this returns.
     * @return number of commands retired (aborted ones included).
     */
    std::size_t pump();

    /** Host-initiated shutdown notification (NVMe CC.SHN): drain every
     *  queue, then checkpoint the device for a clean power-down.
     *  @return false if the final checkpoint did not commit. */
    bool shutdownNotify();

    std::uint16_t queues() const
    {
        return static_cast<std::uint16_t>(qps_.size());
    }

    /** @name Command retry policy and admission control. */
    /// @{

    /** Install @p p (see RetryPolicy) and re-seed the jitter stream. */
    void setRetryPolicy(const RetryPolicy &p)
    {
        retry_ = p;
        jitterRng_ = Rng(p.jitterSeed);
    }
    const RetryPolicy &retryPolicy() const { return retry_; }

    /**
     * Admission controller: cap the per-queue submission backlog at
     * @p limit entries (0, the default, disables).  A submission that
     * would push the SQ past the cap is shed — the caller still gets a
     * cid and reaps an immediate nvme::kAdmissionShed completion, so
     * overload fails fast and loudly instead of growing an unbounded
     * wait.  A shed formula consumes one completion for the whole
     * group.
     */
    void setAdmissionLimit(std::uint16_t limit) { admissionLimit_ = limit; }
    std::uint16_t admissionLimit() const { return admissionLimit_; }

    /** @name Latency SLOs (obs/slo.hpp). */
    /// @{

    /**
     * Track @p cfg for @p cls completions under the "obs.slo.<class>"
     * metric prefix.  Windows advance on the *simulated* clock; served
     * completions (successes, media errors, watchdog aborts) are
     * recorded, admission-refused ones (kAdmissionShed and a degraded
     * device's formula gate) are not — refusing work must not improve
     * or poison the latency objective.
     */
    void setSlo(OpClass cls, const obs::SloConfig &cfg);

    /** Close any open SLO window at the current device time so the
     *  exported gauges cover the tail of the run. */
    void finalizeSlo();

    /** The tracker for @p cls, or nullptr when setSlo was never called. */
    const obs::SloTracker *slo(OpClass cls) const
    {
        return slo_[static_cast<std::size_t>(cls)].get();
    }
    /// @}

    std::uint64_t timeouts() const { return timeouts_.value(); }
    std::uint64_t requeues() const { return requeues_.value(); }
    /** Commands refused by the admission controller or a degraded
     *  device's formula gate (nvme::kAdmissionShed completions). */
    std::uint64_t sheds() const { return sheds_.value(); }
    /** Writes refused by a read-only device (nvme::kWriteProtected). */
    std::uint64_t writeRejects() const { return writeRejects_.value(); }
    /// @}

  private:
    /** Emit an async host-command span (submit -> completion) on this
     *  queue's trace track when the global sink is enabled.  Async
     *  events because in-flight commands of one queue overlap. */
    void noteCmdSpan(std::uint16_t qid, const char *name, Tick start,
                     Tick end, std::uint16_t status);

    /** @name Command-lifecycle attribution (see DESIGN "Observability").
     * When metrics or tracing are on, each executed command gets a
     * token bracketing its scheduler submissions; the per-stage ticks
     * the scheduler aggregates under that token feed the obs.latency.*
     * histograms, and flow events stitch the command's async span to
     * the device spans that served it.  With both off, no token is
     * allocated and the hot path costs one branch.
     */
    /// @{
    bool attributionOn() const;
    /** Open an attribution bracket; nullopt when attribution is off. */
    std::optional<std::uint64_t> beginAttribution();
    void endAttribution(const std::optional<std::uint64_t> &token);
    void noteFlowStart(std::uint16_t qid, std::uint64_t token, Tick at);
    void noteFlowEnd(std::uint16_t qid, std::uint64_t token, Tick at);
    /** Sample the obs.latency.<class>.* histograms for one command:
     *  total (submit -> completion), sq_wait (submit -> fetch), and —
     *  when @p st is non-null — the scheduler-side stage breakdown. */
    void recordStages(OpClass cls, Tick submitted_at, Tick started,
                      Tick done, const ssd::sched::StageTicks *st);
    /** Record a served completion into @p cls's SLO tracker, if any. */
    void noteSlo(OpClass cls, Tick latency, Tick at);
    /// @}

    /** Backoff before re-submission number @p attempt (1-based):
     *  backoffBase * 2^(attempt-1) plus seeded jitter; 0 when the
     *  policy has no backoff. */
    Tick requeueDelay(std::uint32_t attempt);

    /**
     * One fetched command — a formula: its whole command group — from
     * the moment pump() decides its fate to its completion.  Plain I/O
     * waits in a scheduler batch for @c done; everything else knows it
     * when the record is made.
     */
    struct InFlight
    {
        std::uint16_t qid = 0;
        /** The command (a formula: its final one, whose cid completes
         *  the group) with its submission time. */
        nvme::QueuePair::Fetched f{};
        OpClass cls = OpClass::kRead;
        std::uint16_t status = nvme::kSuccess;
        Tick started = 0; ///< device-side start: the end of the SQ wait
        Tick done = 0;    ///< device-side completion
        /** The plain command's queued scheduler transactions. */
        ssd::sched::TxGroup group{};
        /** Attribution token (set only while metrics/tracing are on). */
        std::optional<std::uint64_t> token = std::nullopt;
        /** The watchdog may abort it and its SLO tracker samples it;
         *  false for a formula refused before execution. */
        bool watched = true;
        /** A read of a mapped page on a dead plane that RAIN could not
         *  rebuild: a media error that charges health (an unwritten LPN
         *  is the host's business). */
        bool mediaError = false;
        /** A formula's command group, re-submitted on a requeue. */
        std::vector<nvme::NvmeCommand> cmds;
        /** A formula's result pages, held for reap(). */
        std::vector<BitVector> pages;
    };

    /**
     * The one completion tail of pump(): latency stages and flow
     * events, the watchdog (abort at the deadline and re-submit after
     * the backoff), the CQ post, the async span, the SLO sample and the
     * health charge.  @return true when @p c was aborted and requeued.
     */
    bool retire(InFlight &c);

    /**
     * Admission-control gate shared by the submit paths: feeds queue
     * pressure into the health machine and, over the configured limit,
     * sheds the submission (@p cmds ring entries) with an immediate
     * nvme::kAdmissionShed completion.  @return true when the caller
     * must not submit; @p cid then holds the shed completion's cid to
     * be reaped (nullopt only if the CQ itself was full — the caller
     * reports ring-full, never losing a command silently).
     */
    bool shedIfOverloaded(std::uint16_t qid, std::size_t cmds,
                          std::optional<std::uint16_t> &cid);

    struct FormulaTicket
    {
        std::uint16_t finalCid;
        std::size_t cmdCount;
    };

    ParaBitDevice *dev_;
    nvme::CmdParser parser_;
    Mode mode_;
    std::vector<nvme::QueuePair> qps_;
    /** Registration of in-flight formulas, per queue, FIFO. */
    std::vector<std::deque<FormulaTicket>> tickets_;
    /** Result pages held until the host reaps, keyed per queue FIFO. */
    std::vector<std::deque<QueuedCompletion>> results_;
    RetryPolicy retry_;
    Rng jitterRng_{RetryPolicy{}.jitterSeed};
    std::uint16_t admissionLimit_ = 0;
    obs::Counter timeouts_{"host.timeouts"};
    obs::Counter requeues_{"host.requeues"};
    obs::Counter sheds_{"host.sheds"};
    obs::Counter writeRejects_{"host.write_rejects"};
    /** Re-submitted commands (per queue; a formula under its final
     *  cid): cid -> aborted attempts consumed; a cid absent from the
     *  map is on its first attempt. */
    std::vector<std::unordered_map<std::uint16_t, std::uint32_t>> attempts_;
    /** pump()'s plain commands whose transactions await one drain. */
    std::vector<InFlight> batch_;
    std::uint64_t nextCmdSpanId_ = 0; ///< async trace span ids
    std::uint64_t nextCmdToken_ = 0;  ///< attribution tokens / flow ids
    /** obs.latency.<class>.<stage>, kNumCmdStages per class. */
    std::vector<obs::Hist> stageHist_;
    std::array<std::unique_ptr<obs::SloTracker>, kNumOpClasses> slo_;
};

} // namespace parabit::core

#endif // PARABIT_PARABIT_HOST_INTERFACE_HPP_
