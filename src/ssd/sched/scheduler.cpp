#include "ssd/sched/scheduler.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace parabit::ssd::sched {

/** One resource's queue as its policy reads it: each view is built
 *  from the queued phase's record on demand. */
class TransactionScheduler::QueueView final : public PendingQueue
{
  public:
    QueueView(const TransactionScheduler &s, const Resource &r)
        : s_(s), r_(r)
    {
    }

    std::size_t size() const override { return r_.q.size(); }

    PendingView
    operator[](std::size_t i) const override
    {
        const QEntry &e = r_.q[i];
        const TxState &st = s_.txs_[e.txIdx];
        const Phase &ph = s_.phases_[e.phaseIdx];
        return {st.id,       st.tx.cls,  ph.kind,   ph.ready,
                ph.earliest, ph.resume, st.forceAt};
    }

  private:
    const TransactionScheduler &s_;
    const Resource &r_;
};

TransactionScheduler::TransactionScheduler(
    const flash::FlashGeometry &geometry, const flash::FlashTiming &timing,
    const SchedConfig &cfg)
    : geo_(geometry), timing_(timing), cfg_(cfg), policy_(makePolicy(cfg)),
      latency_(cfg.latencySampling ? kNumTxClasses : 0),
      submitted_("sched.tx.submitted"),
      completedCount_("sched.tx.completed"),
      suspendCount_("sched.suspends"),
      maxQueueDepth_("sched.queue.max_depth")
{
    latencyHist_.reserve(kNumTxClasses);
    for (int c = 0; c < kNumTxClasses; ++c) {
        latencyHist_.emplace_back(
            std::string("sched.latency_us.") +
                txClassName(static_cast<TxClass>(c)),
            0.0, 10000.0, 100);
    }
    resources_.resize(static_cast<std::size_t>(geo_.channels) +
                      geo_.planesTotal());
    for (std::uint32_t c = 0; c < geo_.channels; ++c)
    {
        resources_[c].onChannel = true;
        resources_[c].index = c;
    }
    for (std::uint32_t p = 0; p < geo_.planesTotal(); ++p)
    {
        Resource &r = resources_[geo_.channels + p];
        r.onChannel = false;
        r.index = p;
    }
}

std::size_t
TransactionScheduler::channelResource(std::uint32_t channel) const
{
    return channel;
}

std::string
TransactionScheduler::dieTrackName(std::uint32_t plane_ordinal) const
{
    // Inverse of the arrayResource() linearisation, so the track name
    // carries the full physical coordinate of the plane.
    const std::uint32_t plane = plane_ordinal % geo_.planesPerDie;
    std::uint32_t rest = plane_ordinal / geo_.planesPerDie;
    const std::uint32_t die = rest % geo_.diesPerChip;
    rest /= geo_.diesPerChip;
    const std::uint32_t chip = rest % geo_.chipsPerChannel;
    const std::uint32_t channel = rest / geo_.chipsPerChannel;
    return "ch" + std::to_string(channel) + " chip" +
           std::to_string(chip) + " die" + std::to_string(die) + " plane" +
           std::to_string(plane);
}

void
TransactionScheduler::setTraceSink(obs::TraceSink *sink)
{
    sink_ = sink;
    resourceTracks_.clear();
    if (!sink_)
    {
        return;
    }
    resourceTracks_.reserve(resources_.size());
    for (const Resource &r : resources_)
    {
        if (r.onChannel)
        {
            resourceTracks_.push_back(sink_->track(
                "channels", "channel " + std::to_string(r.index)));
        }
        else
        {
            resourceTracks_.push_back(
                sink_->track("dies", dieTrackName(r.index)));
        }
    }
}

void
TransactionScheduler::noteSpan(std::size_t res, TxState &st,
                               PhaseKind kind, Tick start, Tick end)
{
    const Resource &r = resources_[res];
    st.stages.phase[static_cast<std::size_t>(kind)] += end - start;
    if (cfg_.traceEnabled)
    {
        trace_.push_back({st.id, r.onChannel, r.index, kind, start, end});
    }
    if (sink_ != nullptr)
    {
        PROFILE_SCOPE(obs::Subsystem::kObs);
        sink_->span(resourceTracks_[res], phaseKindName(kind), start, end,
                    {{"tx", std::to_string(st.id), false},
                     {"class", txClassName(st.tx.cls), true}});
        if (st.cmd)
        {
            // The step lands exactly on the span's start ts, which is
            // what binds the command's flow to this span in Perfetto
            // (and what the flow-linkage check verifies).
            sink_->flowStep(resourceTracks_[res], obs::kNvmeFlowCat,
                            obs::kNvmeFlowName, *st.cmd, start);
        }
    }
}

std::size_t
TransactionScheduler::arrayResource(const flash::PhysPageAddr &a) const
{
    // Same linearisation as the legacy per-plane Timelines.
    const std::size_t idx =
        ((static_cast<std::size_t>(a.channel) * geo_.chipsPerChannel +
          a.chip) *
             geo_.diesPerChip +
         a.die) *
            geo_.planesPerDie +
        a.plane;
    return static_cast<std::size_t>(geo_.channels) + idx;
}

void
TransactionScheduler::buildPhases(TxState &st)
{
    const DeviceTransaction &tx = st.tx;
    const std::size_t ch = channelResource(tx.addr.channel);
    const std::size_t die = arrayResource(tx.addr);
    // Canonical phase order across every class: cmd, xfer-in, array,
    // xfer-out (zero-duration phases are elided).  Reads have no
    // xfer-in, programs/erases no xfer-out, so this reproduces the
    // class-specific legacy reserve() sequences exactly.
    st.phaseBegin = phases_.size();
    if (cfg_.cmdOnChannel && tx.cmdTicks > 0)
    {
        phases_.push_back({PhaseKind::kCmd, ch, tx.cmdTicks});
    }
    if (tx.xferInTicks > 0)
    {
        phases_.push_back({PhaseKind::kXferIn, ch, tx.xferInTicks});
    }
    if (tx.arrayTicks > 0)
    {
        phases_.push_back({PhaseKind::kArray, die, tx.arrayTicks});
    }
    if (tx.xferOutTicks > 0)
    {
        phases_.push_back({PhaseKind::kXferOut, ch, tx.xferOutTicks});
    }
    st.phaseEnd = phases_.size();
}

Tick
TransactionScheduler::firstEarliest(const TxState &st) const
{
    // The command overhead is a die-side delay unless modelled as a
    // channel phase.
    return cfg_.cmdOnChannel ? st.tx.readyAt : st.tx.readyAt + st.tx.cmdTicks;
}

std::uint64_t
TransactionScheduler::submit(const DeviceTransaction &tx)
{
    if (!batchOpen_)
    {
        // First submit after a drain: discard the previous batch's
        // records and completions (callers must have flushed any group
        // queries by now) so memory stays bounded; the vectors keep
        // their capacity for the next batch.  Stage aggregates in
        // cmdStages_ survive (a formula command spans several drains).
        txs_.clear();
        phases_.clear();
        trace_.clear();
        touched_.clear();
        batchFirstId_ = nextId_;
        ++batchSeq_;
        batchOpen_ = true;
    }
    const std::size_t txIdx = txs_.size();
    TxState &added = txs_.emplace_back();
    added.tx = tx;
    added.id = nextId_++;
    added.cmd = curCmd_;
    buildPhases(added);
    ++submitted_;

    if (added.phaseBegin == added.phaseEnd)
    {
        // Pure delay (all phase durations zero): completes without
        // touching any resource.
        finishTx(added, firstEarliest(added));
        return added.id;
    }
    for (std::size_t p = added.phaseBegin; p < added.phaseEnd; ++p)
    {
        const std::size_t res = phases_[p].resource;
        Resource &r = resources_[res];
        if (r.touchedBatch != batchSeq_)
        {
            r.touchedBatch = batchSeq_;
            touched_.push_back(res);
        }
        r.q.push_back({txIdx, p});
        maxQueueDepth_.noteMax(static_cast<double>(r.q.size()));
    }
    return added.id;
}

Tick
TransactionScheduler::drain()
{
    PROFILE_SCOPE(obs::Subsystem::kSched);
    batchOpen_ = false;
    bool anyPending = false;
    for (const TxState &st : txs_)
    {
        if (!st.done)
        {
            anyPending = true;
            break;
        }
    }
    Tick batchMax = 0;
    for (const TxState &st : txs_)
    {
        if (st.done)
        {
            batchMax = std::max(batchMax, st.complete);
        }
    }
    if (!anyPending)
    {
        return batchMax;
    }

    EventEngine eng;
    eng_ = &eng;
    for (std::size_t i = 0; i < txs_.size(); ++i)
    {
        const TxState &st = txs_[i];
        if (st.done)
        {
            continue;
        }
        // Captures stay within std::function's small-object buffer
        // (two pointers in libstdc++), so scheduling never allocates.
        const auto ready = [this, i] {
            markReady(i, txs_[i].phaseBegin, firstEarliest(txs_[i]));
        };
        static_assert(sizeof(ready) <= 2 * sizeof(void *));
        eng.schedule(firstEarliest(st), ready);
    }
    eng.run();
    eng_ = nullptr;

    for (const TxState &st : txs_)
    {
        if (!st.done)
        {
            panic("TransactionScheduler::drain: arbitration stalled "
                  "(policy left a transaction unserved)");
        }
        batchMax = std::max(batchMax, st.complete);
    }
    // Only resources this batch queued work on can hold residual state;
    // the sched.queue.drained audit still scans every resource.
    for (const std::size_t res : touched_)
    {
        const Resource &r = resources_[res];
        if (!r.q.empty() || r.busy)
        {
            panic("TransactionScheduler::drain: residual queue state");
        }
    }
    return batchMax;
}

void
TransactionScheduler::markReady(std::size_t txIdx, std::size_t phaseIdx,
                                Tick earliest)
{
    // A phase waits in its queue, not yet ready, from submit until its
    // predecessor finishes; a ready phase has been marked already.
    if (phaseIdx >= txs_[txIdx].phaseEnd || phases_[phaseIdx].ready)
    {
        panic("TransactionScheduler::markReady: phase entry not queued");
    }
    Phase &ph = phases_[phaseIdx];
    ph.ready = true;
    ph.earliest = earliest;
    dispatch(ph.resource);
}

void
TransactionScheduler::dispatch(std::size_t res)
{
    Resource &r = resources_[res];
    if (r.busy)
    {
        maybeSuspend(res);
        return;
    }
    if (r.q.empty())
    {
        return;
    }
    const std::size_t pick = policy_->pick(QueueView(*this, r), eng_->now());
    if (pick == kNoPick)
    {
        return;
    }
    if (pick >= r.q.size() || !phases_[r.q[pick].phaseIdx].ready)
    {
        panic("TransactionScheduler::dispatch: policy picked an entry "
              "that cannot start");
    }
    startEntry(res, pick);
}

void
TransactionScheduler::startEntry(std::size_t res, std::size_t qIdx)
{
    Resource &r = resources_[res];
    const QEntry e = r.q[qIdx];
    // A head pick (every FCFS pick) is an O(1) pop of the deque; only
    // out-of-order picks shift entries.
    r.q.erase(r.q.begin() + static_cast<std::ptrdiff_t>(qIdx));

    TxState &st = txs_[e.txIdx];
    const Phase &ph = phases_[e.phaseIdx];
    const Tick payload = ph.resume ? ph.remaining : ph.duration;
    const Tick overhead = ph.resume ? timing_.tResume : 0;

    Running run;
    run.txIdx = e.txIdx;
    run.phaseIdx = e.phaseIdx;
    run.gen = ++r.gen;
    // Logical booking start: never the engine clock — resource free
    // times persist across drains while the engine restarts at zero.
    run.start = std::max(ph.earliest, r.tl.nextFree());
    run.payloadStart = run.start + overhead;
    run.plannedEnd = run.payloadStart + payload;
    run.isResume = ph.resume;
    // Queue wait: how long the phase sat ready but unserved (resource
    // contention / arbitration), as opposed to booked work time.
    st.stages.queueWait += run.start - ph.earliest;
    r.busy = true;
    r.running = run;

    // Both captures fit std::function's small-object buffer (see
    // drain); a 32-bit generation only wraps after 2^32 bookings on one
    // resource while a stale event is pending.
    const auto complete = [this, res = static_cast<std::uint32_t>(res),
                           gen = run.gen] { onComplete(res, gen); };
    static_assert(sizeof(complete) <= 2 * sizeof(void *));
    eng_->schedule(run.plannedEnd, complete);
}

void
TransactionScheduler::onComplete(std::uint32_t res, std::uint32_t gen)
{
    Resource &r = resources_[res];
    if (!r.busy || r.running.gen != gen)
    {
        return; // stale: the booking was suspended
    }
    const Running run = r.running;
    r.busy = false;

    TxState &st = txs_[run.txIdx];
    const Phase &ph = phases_[run.phaseIdx];
    r.tl.reserve(run.start, run.plannedEnd - run.start);

    if (run.isResume)
    {
        noteSpan(res, st, PhaseKind::kResume, run.start, run.payloadStart);
    }
    noteSpan(res, st, ph.kind, run.payloadStart, run.plannedEnd);
    if (ph.kind == PhaseKind::kArray)
    {
        st.arrayExecuted += run.plannedEnd - run.payloadStart;
    }

    const std::size_t next = run.phaseIdx + 1;
    if (next < st.phaseEnd)
    {
        markReady(run.txIdx, next, run.plannedEnd);
    }
    else
    {
        finishTx(st, run.plannedEnd);
    }
    dispatch(res);
}

void
TransactionScheduler::maybeSuspend(std::size_t res)
{
    Resource &r = resources_[res];
    const Running run = r.running;
    TxState &st = txs_[run.txIdx];
    const Phase &ph = phases_[run.phaseIdx];
    const Tick now = eng_->now();

    if (ph.kind != PhaseKind::kArray || !st.tx.suspendable())
    {
        return;
    }
    if (st.suspends >= cfg_.maxSuspendsPerOp)
    {
        return;
    }
    // The transition windows (tResume restore, or a booking whose start
    // is still in the future) cannot be interrupted, and a phase at its
    // planned end has nothing left to suspend.
    if (now < run.payloadStart || now >= run.plannedEnd)
    {
        return;
    }
    bool wanted = false;
    for (const QEntry &e : r.q)
    {
        if (phases_[e.phaseIdx].ready &&
            policy_->preempts(txs_[e.txIdx].tx.cls, st.tx.cls))
        {
            wanted = true;
            break;
        }
    }
    if (!wanted)
    {
        return;
    }

    // Suspend: book the executed segment plus the suspend transition,
    // park the remainder as a resume entry.
    const Tick executed = now - run.payloadStart;
    const Tick remaining = run.plannedEnd - now;
    r.tl.reserve(run.start, (now - run.start) + timing_.tSuspend);
    st.arrayExecuted += executed;
    if (st.suspends == 0)
    {
        st.forceAt = now + cfg_.maxSuspendedTicks;
    }
    ++st.suspends;
    ++suspendCount_;

    if (run.isResume)
    {
        noteSpan(res, st, PhaseKind::kResume, run.start, run.payloadStart);
    }
    if (executed > 0)
    {
        noteSpan(res, st, PhaseKind::kArray, run.payloadStart, now);
    }
    noteSpan(res, st, PhaseKind::kSuspend, now, now + timing_.tSuspend);

    Phase &parked = phases_[run.phaseIdx];
    parked.earliest = now + timing_.tSuspend;
    parked.resume = true;
    parked.remaining = remaining;
    r.busy = false;
    r.q.push_back({run.txIdx, run.phaseIdx});

    dispatch(res);
}

void
TransactionScheduler::finishTx(TxState &st, Tick end)
{
    st.done = true;
    st.complete = end;
    ++completedCount_;
    if (st.cmd)
    {
        StageTicks &agg = cmdStages_[*st.cmd];
        agg.add(st.stages);
        ++agg.txCount;
    }
    const auto cls = static_cast<std::size_t>(st.tx.cls);
    // Tick is picoseconds; the registry histogram is bucketed in us.
    latencyHist_[cls].sample(static_cast<double>(end - st.tx.readyAt) /
                             1e6);
    if (cfg_.latencySampling)
    {
        const auto lat = static_cast<double>(end - st.tx.readyAt);
        latency_[cls].quantiles.sample(lat);
        latency_[cls].scalar.sample(lat);
    }
}

StageTicks
TransactionScheduler::takeCommandStages(std::uint64_t token)
{
    const auto it = cmdStages_.find(token);
    if (it == cmdStages_.end())
    {
        return StageTicks{};
    }
    StageTicks out = it->second;
    cmdStages_.erase(it);
    return out;
}

Tick
TransactionScheduler::completionOf(std::uint64_t id) const
{
    // Batch ids are contiguous from batchFirstId_.
    if (id < batchFirstId_ || id - batchFirstId_ >= txs_.size() ||
        !txs_[id - batchFirstId_].done)
    {
        panic("TransactionScheduler::completionOf: unknown transaction "
              "(batch already discarded? drain before querying)");
    }
    return txs_[id - batchFirstId_].complete;
}

Tick
TransactionScheduler::groupCompletion(const TxGroup &g, Tick fallback) const
{
    if (g.empty())
    {
        return fallback;
    }
    Tick done = 0;
    for (std::uint64_t id = g.lo; id < g.hi; ++id)
    {
        done = std::max(done, completionOf(id));
    }
    return done;
}

SchedStats
TransactionScheduler::stats() const
{
    SchedStats s;
    s.channelBusy.reserve(geo_.channels);
    for (std::uint32_t c = 0; c < geo_.channels; ++c)
    {
        s.channelBusy.push_back(resources_[c].tl.bookedTicks());
    }
    s.dieBusy.reserve(geo_.planesTotal());
    for (std::uint32_t p = 0; p < geo_.planesTotal(); ++p)
    {
        s.dieBusy.push_back(resources_[geo_.channels + p].tl.bookedTicks());
    }
    s.submitted = submitted_.value();
    s.completed = completedCount_.value();
    s.suspends = suspendCount_.value();
    s.maxQueueDepth = static_cast<std::size_t>(maxQueueDepth_.value());
    return s;
}

const ClassLatency &
TransactionScheduler::latency(TxClass c) const
{
    PARABIT_CHECK(cfg_.latencySampling,
                  "TransactionScheduler::latency needs latencySampling");
    return latency_[static_cast<std::size_t>(c)];
}

std::vector<TxRecord>
TransactionScheduler::records() const
{
    std::vector<TxRecord> out;
    out.reserve(txs_.size());
    for (const TxState &st : txs_)
    {
        TxRecord rec;
        rec.id = st.id;
        rec.cls = st.tx.cls;
        rec.readyAt = st.tx.readyAt;
        rec.complete = st.complete;
        rec.arrayTicks = st.tx.arrayTicks;
        rec.arrayExecuted = st.arrayExecuted;
        rec.suspends = st.suspends;
        out.push_back(rec);
    }
    return out;
}

void
TransactionScheduler::auditInvariants(InvariantReport &r) const
{
    // sched.queue.drained: a drain boundary leaves no residual work.
    for (std::size_t i = 0; i < resources_.size(); ++i) {
        const Resource &res = resources_[i];
        const std::string subj =
            std::string(res.onChannel ? "channel " : "die ") +
            std::to_string(res.index);
        if (!r.check(res.q.empty()))
            r.fail("sched.queue.drained", subj,
                   std::to_string(res.q.size()) +
                       " queue entries survived the drain");
        if (!r.check(!res.busy))
            r.fail("sched.queue.drained", subj,
                   "a booking is still marked running after the drain");
    }

    // sched.queue.accounting: lifetime submit/complete balance plus
    // full completion coverage of the last batch.
    if (!r.check(submitted_.value() == completedCount_.value()))
        r.fail("sched.queue.accounting", "lifetime counters",
               "submitted " + std::to_string(submitted_.value()) +
                   " != completed " +
                   std::to_string(completedCount_.value()));
    const auto completed = static_cast<std::size_t>(
        std::count_if(txs_.begin(), txs_.end(),
                      [](const TxState &st) { return st.done; }));
    if (!r.check(completed == txs_.size()))
        r.fail("sched.queue.accounting", "last batch",
               std::to_string(txs_.size()) + " transactions but " +
                   std::to_string(completed) + " completed");

    // sched.work.conservation: suspend-resume never loses or invents
    // array work, and nothing completes before it was ready.
    for (const TxState &st : txs_) {
        const std::string subj = "tx " + std::to_string(st.id);
        if (!r.check(st.done))
            r.fail("sched.work.conservation", subj,
                   "transaction never finished");
        if (!r.check(st.arrayExecuted == st.tx.arrayTicks))
            r.fail("sched.work.conservation", subj,
                   "planned " + std::to_string(st.tx.arrayTicks) +
                       " array ticks, executed " +
                       std::to_string(st.arrayExecuted) +
                       " across " + std::to_string(st.suspends) +
                       " suspends");
        if (!r.check(st.complete >= st.tx.readyAt))
            r.fail("sched.work.conservation", subj,
                   "completed at " + std::to_string(st.complete) +
                       " before ready time " +
                       std::to_string(st.tx.readyAt));
    }

    // sched.booking.exclusivity: per-resource bookings never overlap.
    // The interval log only exists with cfg.traceEnabled; without it
    // this leg simply contributes no checks.
    std::vector<std::vector<TraceEntry>> byResource(resources_.size());
    for (const TraceEntry &e : trace_) {
        const std::size_t idx =
            e.onChannel ? channelResource(e.resource)
                        : geo_.channels + e.resource;
        if (idx < byResource.size())
            byResource[idx].push_back(e);
    }
    for (std::size_t i = 0; i < byResource.size(); ++i) {
        auto &v = byResource[i];
        std::sort(v.begin(), v.end(),
                  [](const TraceEntry &a, const TraceEntry &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.end < b.end;
                  });
        for (std::size_t j = 1; j < v.size(); ++j) {
            if (!r.check(v[j].start >= v[j - 1].end))
                r.fail("sched.booking.exclusivity",
                       std::string(v[j].onChannel ? "channel "
                                                  : "die ") +
                           std::to_string(v[j].resource),
                       "tx " + std::to_string(v[j].txId) + " booked [" +
                           std::to_string(v[j].start) + ", " +
                           std::to_string(v[j].end) +
                           ") overlapping tx " +
                           std::to_string(v[j - 1].txId) + " [" +
                           std::to_string(v[j - 1].start) + ", " +
                           std::to_string(v[j - 1].end) + ")");
        }
    }
}

bool
TransactionScheduler::debugCorruptTraceForAudit()
{
    if (trace_.empty())
        return false;
    TraceEntry dup = trace_.front();
    dup.end = std::max(dup.end, dup.start + 1);
    trace_.push_back(dup);
    return true;
}

} // namespace parabit::ssd::sched
