/**
 * @file
 * TransactionScheduler: per-die/per-channel arbitration of
 * DeviceTransactions, driven by the deterministic EventEngine.
 *
 * Usage is submit-then-drain: callers submit any number of transactions
 * (each gets a monotonically increasing id) and then drain(), which
 * replays the whole batch through a fresh event engine.  Resource
 * Timelines persist across drains, so consecutive batches see the
 * device exactly as the legacy greedy path did; the engine only orders
 * events — every booking is computed from logical times
 * (max(phase-chain earliest, resource nextFree)), never from the
 * engine clock.
 *
 * Array resources are plane-granular (the device exploits plane-level
 * parallelism), matching the legacy per-plane Timelines; the stats
 * call them "die" resources for continuity with the paper's die/channel
 * vocabulary.
 *
 * Preemption (read-priority policy): a booking is finalized on the
 * Timeline only when its completion — or suspension — actually happens,
 * so a program/erase array phase can be cut short.  Completion events
 * carry a generation tag and are ignored once stale.
 *
 * Hot path: a resource queue holds only (transaction, phase) indices;
 * readiness, earliest start and resume state live on the phase record,
 * so marking a phase ready is O(1).  The policy reads the queue in
 * place (see policy.hpp).  Once the batch vectors (transactions and
 * their phases) have grown, neither an event nor a transaction
 * allocates.
 */

#ifndef PARABIT_SSD_SCHED_SCHEDULER_HPP_
#define PARABIT_SSD_SCHED_SCHEDULER_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/invariant.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "flash/geometry.hpp"
#include "flash/timing.hpp"
#include "ssd/event_engine.hpp"
#include "ssd/sched/policy.hpp"
#include "ssd/sched/sched_config.hpp"
#include "ssd/sched/transaction.hpp"
#include "ssd/timeline.hpp"

namespace parabit::ssd::sched {

/** One booked interval on one resource (traceEnabled only). */
struct TraceEntry
{
    std::uint64_t txId = 0;
    bool onChannel = false;
    std::uint32_t resource = 0;
    PhaseKind kind = PhaseKind::kArray;
    Tick start = 0;
    Tick end = 0;
};

/**
 * Where a transaction's (or a whole host command's) ticks went: booked
 * time per phase kind plus the time its phases sat in a resource queue
 * beyond their dependency-readiness (the "scheduler queue" stage of
 * the command lifecycle).  Aggregated per host command via the
 * attribution scope (beginCommandAttribution / takeCommandStages).
 */
struct StageTicks
{
    /** Sum over phases of (booking start - phase earliest): time lost
     *  to arbitration and resource contention. */
    Tick queueWait = 0;
    /** Booked ticks per PhaseKind (cmd, xfer_in, array, xfer_out,
     *  suspend, resume), indexed by the enum. */
    std::array<Tick, 6> phase{};
    /** Device transactions aggregated in. */
    std::uint64_t txCount = 0;

    void
    add(const StageTicks &o)
    {
        queueWait += o.queueWait;
        for (std::size_t i = 0; i < phase.size(); ++i)
            phase[i] += o.phase[i];
        txCount += o.txCount;
    }
};

/** Per-transaction outcome of the last drained batch. */
struct TxRecord
{
    std::uint64_t id = 0;
    TxClass cls = TxClass::kRead;
    Tick readyAt = 0;
    Tick complete = 0;
    Tick arrayTicks = 0;
    /** Array time actually spent sensing/programming (must equal
     *  arrayTicks — suspend-resume conserves array work). */
    Tick arrayExecuted = 0;
    int suspends = 0;
};

/** Counters and busy-time snapshot. */
struct SchedStats
{
    std::vector<Tick> channelBusy; ///< booked ticks per channel
    std::vector<Tick> dieBusy;     ///< booked ticks per array resource
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t suspends = 0;
    std::size_t maxQueueDepth = 0;
};

/** One class's completion latencies in ticks (latencySampling). */
struct ClassLatency
{
    obs::QuantileSketch quantiles; ///< p50/p99 within relativeError()
    ScalarStat scalar;             ///< exact count, mean and max
};

/** See file comment. */
class TransactionScheduler
{
  public:
    TransactionScheduler(const flash::FlashGeometry &geometry,
                         const flash::FlashTiming &timing,
                         const SchedConfig &cfg);

    const SchedConfig &config() const { return cfg_; }
    const char *policyName() const { return policy_->name(); }

    /**
     * Queue @p tx for the next drain().  @return its id.  The first
     * submit after a drain starts a new batch and discards the previous
     * batch's completions and records.
     */
    std::uint64_t submit(const DeviceTransaction &tx);

    /**
     * Run the event engine until every submitted transaction completes.
     * @return the latest completion tick of the batch (0 if empty).
     * Panics if arbitration stalls (a policy bug).
     */
    Tick drain();

    /** Completion tick of @p id from the last drained batch. */
    Tick completionOf(std::uint64_t id) const;

    /** Latest completion over @p g, or @p fallback when @p g is empty. */
    Tick groupCompletion(const TxGroup &g, Tick fallback) const;

    SchedStats stats() const;

    /**
     * Emit every booked phase as a span on @p sink (one track per
     * channel, one per plane-granular die), in addition to — and with
     * the same intervals as — the TraceEntry record.  Pass nullptr to
     * detach.  SsdDevice wires the global sink in automatically when
     * tracing is enabled at construction time.
     */
    void setTraceSink(obs::TraceSink *sink);

    /** Completion latencies of class @p c, in ticks.  Panics unless
     *  cfg.latencySampling is on. */
    const ClassLatency &latency(TxClass c) const;

    /** Booking trace of the last batch (traceEnabled only). */
    const std::vector<TraceEntry> &trace() const { return trace_; }

    /** Per-transaction records of the last drained batch. */
    std::vector<TxRecord> records() const;

    /** @name Host-command attribution
     * The host interface brackets the submissions serving one NVMe
     * command with begin/end; every transaction submitted inside the
     * bracket is tagged with @p token, and its stage breakdown folds
     * into the command's StageTicks at completion.  Accumulation
     * survives batch restarts (a formula command spans several drains);
     * takeCommandStages reads and erases, so memory stays bounded by
     * in-flight commands.  Tokens are host-allocated and must be unique
     * per command lifetime.
     */
    /// @{
    void beginCommandAttribution(std::uint64_t token) { curCmd_ = token; }
    void endCommandAttribution() { curCmd_.reset(); }
    /** Aggregated stages for @p token (default-initialized if unknown);
     *  erases the entry. */
    StageTicks takeCommandStages(std::uint64_t token);
    /// @}

    /** @name Invariant audit (common/invariant.hpp). */
    /// @{

    /**
     * Audit the scheduler's invariants at a drain boundary, appending
     * violations to @p r:
     *
     *  - sched.queue.drained: no residual queue entries or running
     *    bookings survive a drain;
     *  - sched.queue.accounting: lifetime submitted == completed and
     *    every transaction of the last batch has completed;
     *  - sched.work.conservation: every transaction's executed array
     *    time equals its planned array time (suspend-resume conserves
     *    work) and it completed no earlier than it became ready;
     *  - sched.booking.exclusivity: no two booked intervals overlap on
     *    one channel or one plane-granular die resource (evaluated
     *    from the booking trace, so it needs cfg.traceEnabled).
     */
    void auditInvariants(InvariantReport &r) const;

    /**
     * Deliberately double-book the first traced interval so negative
     * tests can prove the exclusivity audit fires.  No-op (returns
     * false) when the booking trace is empty.  Test-only.
     */
    bool debugCorruptTraceForAudit();
    /// @}

  private:
    /**
     * One phase booking request against a specific resource, plus its
     * queue state.  A phase waits in its resource's queue from submit
     * until it starts; it becomes ready once every earlier phase of
     * its transaction has finished.  A suspended array phase re-queues
     * as a ready resume entry for its remaining work.
     */
    struct Phase
    {
        PhaseKind kind = PhaseKind::kArray;
        std::size_t resource = 0; ///< index into resources_
        Tick duration = 0;
        bool ready = false;
        bool resume = false; ///< parked remainder of a suspension
        Tick earliest = 0;   ///< earliest start, once ready
        Tick remaining = 0;  ///< resume only: array work left
    };

    struct TxState
    {
        DeviceTransaction tx;
        std::uint64_t id = 0;
        /** Its phases, in order: phases_[phaseBegin, phaseEnd). */
        std::size_t phaseBegin = 0;
        std::size_t phaseEnd = 0;
        Tick complete = 0;
        Tick arrayExecuted = 0;
        int suspends = 0;
        Tick forceAt = 0; ///< set at first suspension
        bool done = false;
        StageTicks stages; ///< where this transaction's ticks went
        /** Attribution token of the host command it serves, if any. */
        std::optional<std::uint64_t> cmd;
    };

    /** A queued phase: everything else is on its Phase record. */
    struct QEntry
    {
        std::size_t txIdx = 0;
        std::size_t phaseIdx = 0; ///< index into phases_
    };

    class QueueView;

    struct Running
    {
        std::size_t txIdx = 0;
        std::size_t phaseIdx = 0; ///< index into phases_
        /** Booking generation; 32 bits keep the completion event's
         *  capture small enough not to allocate (see startEntry). */
        std::uint32_t gen = 0;
        Tick start = 0;        ///< booking start (incl. resume overhead)
        Tick payloadStart = 0; ///< where actual array/transfer work begins
        Tick plannedEnd = 0;
        bool isResume = false;
    };

    struct Resource
    {
        Timeline tl;
        std::deque<QEntry> q;
        bool busy = false;
        Running running;
        std::uint32_t gen = 0;
        bool onChannel = false;
        std::uint32_t index = 0; ///< channel or array-resource ordinal
        /** batchSeq_ of the last batch that queued work here; dedups
         *  touched_. */
        std::uint64_t touchedBatch = 0;
    };

    std::size_t channelResource(std::uint32_t channel) const;
    std::size_t arrayResource(const flash::PhysPageAddr &a) const;
    std::string dieTrackName(std::uint32_t plane_ordinal) const;

    /** Record one booked interval in the TraceEntry log (traceEnabled)
     *  and on the attached TraceSink track (if any), accumulate it into
     *  @p st's stage breakdown, and — when @p st belongs to an
     *  attributed host command — emit a flow step binding the span to
     *  the command's NVMe flow. */
    void noteSpan(std::size_t res, TxState &st, PhaseKind kind,
                  Tick start, Tick end);

    void buildPhases(TxState &st);
    Tick firstEarliest(const TxState &st) const;

    void markReady(std::size_t txIdx, std::size_t phaseIdx, Tick earliest);
    void dispatch(std::size_t res);
    void startEntry(std::size_t res, std::size_t qIdx);
    void onComplete(std::uint32_t res, std::uint32_t gen);
    void maybeSuspend(std::size_t res);
    void finishTx(TxState &st, Tick end);

    flash::FlashGeometry geo_;
    flash::FlashTiming timing_;
    SchedConfig cfg_;
    std::unique_ptr<SchedulerPolicy> policy_;

    std::vector<Resource> resources_; ///< channels first, then planes
    std::vector<TxState> txs_;        ///< current batch
    std::vector<Phase> phases_;       ///< current batch, by transaction
    std::uint64_t batchFirstId_ = 0;  ///< id of txs_[0]
    std::uint64_t batchSeq_ = 0;      ///< current batch, counted from 1
    /** Resources the current batch queued work on, each once: the only
     *  ones a drain can leave residual state on. */
    std::vector<std::size_t> touched_;
    std::vector<ClassLatency> latency_; ///< per TxClass, if sampling
    std::vector<obs::Hist> latencyHist_; ///< one per TxClass (us)
    std::vector<TraceEntry> trace_;

    obs::TraceSink *sink_ = nullptr;
    std::vector<obs::TrackId> resourceTracks_; ///< parallel to resources_

    EventEngine *eng_ = nullptr; ///< valid only inside drain()
    std::uint64_t nextId_ = 0;
    bool batchOpen_ = false;

    std::optional<std::uint64_t> curCmd_; ///< open attribution bracket
    /** command token -> aggregated stages (until takeCommandStages). */
    std::unordered_map<std::uint64_t, StageTicks> cmdStages_;

    obs::Counter submitted_;
    obs::Counter completedCount_;
    obs::Counter suspendCount_;
    obs::Gauge maxQueueDepth_;
};

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_SCHEDULER_HPP_
