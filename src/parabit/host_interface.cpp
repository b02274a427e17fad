#include "parabit/host_interface.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "ssd/health.hpp"
#include "ssd/sched/scheduler.hpp"

namespace parabit::core {

namespace {

/** Stage axis of the obs.latency.<class>.<stage> histogram family. */
enum CmdStage : std::size_t
{
    kStageTotal = 0, ///< submission -> terminal completion
    kStageSqWait,    ///< submission -> device fetch
    kStageQueue,     ///< scheduler-queue wait (contention)
    kStageCmd,
    kStageXferIn,
    kStageArray,
    kStageXferOut,
    kStageSuspend, ///< suspend + resume transition overhead
    kNumCmdStages,
};

const char *const kStageNames[kNumCmdStages] = {
    "total",   "sq_wait", "queue",    "cmd",
    "xfer_in", "array",   "xfer_out", "suspend",
};

} // namespace

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::kRead: return "read";
      case OpClass::kWrite: return "write";
      case OpClass::kFlush: return "flush";
      case OpClass::kFormula: return "formula";
    }
    return "?";
}

HostInterface::HostInterface(ParaBitDevice &dev, std::uint16_t num_queues,
                             std::uint16_t depth, Mode mode)
    : dev_(&dev), parser_(dev.ssd().geometry().pageBytes), mode_(mode)
{
    if (num_queues == 0)
        fatal("HostInterface: need at least one queue pair");
    qps_.reserve(num_queues);
    for (std::uint16_t q = 0; q < num_queues; ++q)
        qps_.emplace_back(q, depth);
    tickets_.resize(num_queues);
    results_.resize(num_queues);
    attempts_.resize(num_queues);
    stageHist_.reserve(static_cast<std::size_t>(kNumOpClasses) *
                       kNumCmdStages);
    for (int c = 0; c < kNumOpClasses; ++c) {
        for (std::size_t s = 0; s < kNumCmdStages; ++s) {
            stageHist_.emplace_back(
                std::string("obs.latency.") +
                    opClassName(static_cast<OpClass>(c)) + "." +
                    kStageNames[s],
                0.0, 10000.0, 100);
        }
    }
}

namespace {

/** Map a controller execution status onto the NVMe completion field. */
std::uint16_t
toNvmeStatus(ExecStatus s)
{
    switch (s) {
      case ExecStatus::kOk: return nvme::kSuccess;
      case ExecStatus::kUncorrectable: return nvme::kInternalError;
      case ExecStatus::kDataLoss: return nvme::kUnrecoveredReadError;
      case ExecStatus::kLbaOutOfRange: return nvme::kLbaOutOfRange;
    }
    return nvme::kInternalError;
}

/** True when every logical operand page of @p batches lies below
 *  @p capacity; the LPNs above it are the controller's scratch copies. */
bool
inHostRange(const std::vector<nvme::Batch> &batches, nvme::Lpn capacity)
{
    for (const nvme::Batch &b : batches) {
        const bool x_logical =
            b.firstOperand.kind == nvme::OperandRef::Kind::kLogicalPages;
        for (const nvme::SubOperation &sub : b.subOps)
            if ((x_logical && sub.first.lpn >= capacity) ||
                sub.second.lpn >= capacity)
                return false;
    }
    return true;
}

/** Host-visible command name for trace spans. */
const char *
cmdName(nvme::Opcode op)
{
    switch (op) {
      case nvme::Opcode::kFlush: return "flush";
      case nvme::Opcode::kWrite: return "write";
      case nvme::Opcode::kRead: return "read";
    }
    return "?";
}

OpClass
opClassOf(nvme::Opcode op)
{
    switch (op) {
      case nvme::Opcode::kFlush: return OpClass::kFlush;
      case nvme::Opcode::kWrite: return OpClass::kWrite;
      case nvme::Opcode::kRead: return OpClass::kRead;
    }
    return OpClass::kRead;
}

} // namespace

bool
HostInterface::attributionOn() const
{
    return obs::MetricsRegistry::global().enabled() ||
           obs::TraceSink::global() != nullptr;
}

std::optional<std::uint64_t>
HostInterface::beginAttribution()
{
    if (!attributionOn())
        return std::nullopt;
    const std::uint64_t token = nextCmdToken_++;
    dev_->ssd().scheduler().beginCommandAttribution(token);
    return token;
}

void
HostInterface::endAttribution(const std::optional<std::uint64_t> &token)
{
    if (token)
        dev_->ssd().scheduler().endCommandAttribution();
}

void
HostInterface::noteFlowStart(std::uint16_t qid, std::uint64_t token, Tick at)
{
    obs::TraceSink *sink = obs::TraceSink::global();
    if (sink == nullptr)
        return;
    PROFILE_SCOPE(obs::Subsystem::kObs);
    const obs::TrackId t =
        sink->track("host", "queue " + std::to_string(qid));
    sink->flowStart(t, obs::kNvmeFlowCat, obs::kNvmeFlowName, token, at);
}

void
HostInterface::noteFlowEnd(std::uint16_t qid, std::uint64_t token, Tick at)
{
    obs::TraceSink *sink = obs::TraceSink::global();
    if (sink == nullptr)
        return;
    PROFILE_SCOPE(obs::Subsystem::kObs);
    const obs::TrackId t =
        sink->track("host", "queue " + std::to_string(qid));
    sink->flowEnd(t, obs::kNvmeFlowCat, obs::kNvmeFlowName, token, at);
}

void
HostInterface::recordStages(OpClass cls, Tick submitted_at, Tick started,
                            Tick done, const ssd::sched::StageTicks *st)
{
    const std::size_t base =
        static_cast<std::size_t>(cls) * kNumCmdStages;
    stageHist_[base + kStageTotal].sample(ticks::toUs(done - submitted_at));
    stageHist_[base + kStageSqWait].sample(
        ticks::toUs(started - submitted_at));
    if (st == nullptr)
        return;
    using PK = ssd::sched::PhaseKind;
    const auto booked = [&](PK k) {
        return st->phase[static_cast<std::size_t>(k)];
    };
    stageHist_[base + kStageQueue].sample(ticks::toUs(st->queueWait));
    stageHist_[base + kStageCmd].sample(ticks::toUs(booked(PK::kCmd)));
    stageHist_[base + kStageXferIn].sample(ticks::toUs(booked(PK::kXferIn)));
    stageHist_[base + kStageArray].sample(ticks::toUs(booked(PK::kArray)));
    stageHist_[base + kStageXferOut].sample(
        ticks::toUs(booked(PK::kXferOut)));
    stageHist_[base + kStageSuspend].sample(
        ticks::toUs(booked(PK::kSuspend) + booked(PK::kResume)));
}

void
HostInterface::noteSlo(OpClass cls, Tick latency, Tick at)
{
    const auto &t = slo_[static_cast<std::size_t>(cls)];
    if (t)
        t->record(latency, at);
}

void
HostInterface::setSlo(OpClass cls, const obs::SloConfig &cfg)
{
    slo_[static_cast<std::size_t>(cls)] = std::make_unique<obs::SloTracker>(
        std::string("obs.slo.") + opClassName(cls), cfg);
}

void
HostInterface::finalizeSlo()
{
    for (const auto &t : slo_) {
        if (t)
            t->finalize(dev_->now());
    }
}

void
HostInterface::noteCmdSpan(std::uint16_t qid, const char *name, Tick start,
                           Tick end, std::uint16_t status)
{
    obs::TraceSink *sink = obs::TraceSink::global();
    if (sink == nullptr)
        return;
    PROFILE_SCOPE(obs::Subsystem::kObs);
    const obs::TrackId t =
        sink->track("host", "queue " + std::to_string(qid));
    const std::uint64_t id = nextCmdSpanId_++;
    sink->asyncBegin(t, "nvme", name, id, start,
                     {{"status", std::to_string(status), false}});
    sink->asyncEnd(t, "nvme", name, id, std::max(end, start));
}

Tick
HostInterface::requeueDelay(std::uint32_t attempt)
{
    if (retry_.backoffBase == 0)
        return 0;
    // Exponential backoff with the shift clamped well below the Tick
    // width; the jitter draw keeps a storm's retries from re-converging
    // on one instant while staying a pure function of the seed.
    const std::uint32_t shift = std::min(attempt - 1, 20u);
    return (retry_.backoffBase << shift) +
           jitterRng_.below(retry_.backoffBase);
}

bool
HostInterface::shedIfOverloaded(std::uint16_t qid, std::size_t cmds,
                                std::optional<std::uint16_t> &cid)
{
    nvme::QueuePair &qp = qps_.at(qid);
    if (ssd::DeviceHealth *health = dev_->ssd().health()) {
        if (static_cast<double>(qp.sqOccupancy() + cmds) >=
            ssd::DeviceHealth::kQueuePressureFraction *
                static_cast<double>(qp.depth()))
            health->noteQueuePressure();
    }
    if (admissionLimit_ == 0 || qp.sqOccupancy() + cmds <= admissionLimit_)
        return false;
    cid = qp.reject(dev_->now(), nvme::kAdmissionShed);
    if (cid) {
        ++sheds_;
        noteCmdSpan(qid, "shed", dev_->now(), dev_->now(),
                    nvme::kAdmissionShed);
    }
    return true;
}

std::optional<std::uint16_t>
HostInterface::submitRead(std::uint16_t qid, nvme::Lpn lpn)
{
    std::optional<std::uint16_t> shed;
    if (shedIfOverloaded(qid, 1, shed))
        return shed;
    nvme::NvmeCommand c;
    c.setOpcode(nvme::Opcode::kRead);
    c.setSlba(lpn * parser_.sectorsPerPage());
    c.setNlb(static_cast<std::uint16_t>(parser_.sectorsPerPage() - 1));
    return qps_.at(qid).submit(c, dev_->now());
}

std::optional<std::uint16_t>
HostInterface::submitWrite(std::uint16_t qid, nvme::Lpn lpn)
{
    std::optional<std::uint16_t> shed;
    if (shedIfOverloaded(qid, 1, shed))
        return shed;
    nvme::NvmeCommand c;
    c.setOpcode(nvme::Opcode::kWrite);
    c.setSlba(lpn * parser_.sectorsPerPage());
    c.setNlb(static_cast<std::uint16_t>(parser_.sectorsPerPage() - 1));
    return qps_.at(qid).submit(c, dev_->now());
}

std::optional<std::uint16_t>
HostInterface::submitFlush(std::uint16_t qid)
{
    std::optional<std::uint16_t> shed;
    if (shedIfOverloaded(qid, 1, shed))
        return shed;
    nvme::NvmeCommand c;
    c.setOpcode(nvme::Opcode::kFlush);
    return qps_.at(qid).submit(c, dev_->now());
}

std::optional<std::uint16_t>
HostInterface::submitFormula(std::uint16_t qid, const nvme::Formula &formula)
{
    const auto cmds = parser_.encode(formula);
    if (cmds.empty())
        return std::nullopt;
    std::optional<std::uint16_t> shed;
    if (shedIfOverloaded(qid, cmds.size(), shed))
        return shed;
    nvme::QueuePair &qp = qps_.at(qid);
    if (qp.sqOccupancy() + cmds.size() >= qp.depth())
        return std::nullopt; // all-or-nothing submission
    std::uint16_t last_cid = 0;
    const Tick now = dev_->now();
    for (const auto &c : cmds) {
        const auto cid = qp.submit(c, now);
        if (!cid)
            panic("HostInterface: ring filled mid-formula");
        last_cid = *cid;
    }
    tickets_.at(qid).push_back(
        FormulaTicket{qid, last_cid, cmds.size()});
    return last_cid;
}

std::optional<QueuedCompletion>
HostInterface::reap(std::uint16_t qid)
{
    auto c = qps_.at(qid).reap();
    if (!c)
        return std::nullopt;
    QueuedCompletion out;
    out.qid = qid;
    out.cid = c->cid;
    out.latency = c->latency();
    out.status = c->status;
    // Attach result pages if this cid finished a formula.  Pages of a
    // failed formula are dropped here: an errored completion must never
    // hand data to the host.
    auto &pending = results_.at(qid);
    if (!pending.empty() && pending.front().cid == c->cid) {
        if (out.ok())
            out.pages = std::move(pending.front().pages);
        pending.pop_front();
    }
    return out;
}

std::size_t
HostInterface::pump()
{
    struct Pending
    {
        std::uint16_t qid;
        nvme::QueuePair::Fetched f;
    };

    // Plain reads/writes are not executed inline: their FTL ops are
    // submitted to the device's transaction scheduler as they are
    // fetched (in arbitration order) and the batch is drained at the
    // next boundary — a formula execution, a Flush, or the end of the
    // round.  Under FCFS this is tick-identical to inline execution
    // (the device clock does not advance while commands accumulate and
    // per-resource booking order equals submission order); under the
    // reordering policies it is what gives the arbiter a window of
    // co-pending host transactions to work with.
    struct DeferredPlain
    {
        std::uint16_t qid;
        nvme::QueuePair::Fetched f;
        ssd::sched::TxGroup group;
        std::uint16_t status;
        Tick submittedNow; ///< device clock at submission (fallback)
        /** Attribution token bracketing this command's scheduler
         *  submissions (set only while metrics/tracing are on). */
        std::optional<std::uint64_t> token = std::nullopt;
        /** A read of a mapped page on a dead plane that RAIN could not
         *  rebuild: a media error that charges health (an unwritten LPN
         *  is the host's business). */
        bool mediaError = false;
    };
    std::vector<DeferredPlain> deferred;

    std::size_t retired = 0;
    bool more = true;
    ssd::DeviceHealth *health = dev_->ssd().health();

    // Drain the scheduler and complete every deferred command.  Must
    // run before anything that opens a new scheduler batch (formula
    // execution, Flush) — the batch's completion map is discarded at
    // the next submit.
    const auto flushDeferred = [&] {
        if (deferred.empty())
            return;
        dev_->ssd().drainTransactions();
        for (DeferredPlain &d : deferred) {
            const Tick done =
                dev_->ssd().groupCompletion(d.group, d.submittedNow);
            const OpClass cls = opClassOf(d.f.cmd.opcode());
            if (d.token) {
                const ssd::sched::StageTicks stages =
                    dev_->ssd().scheduler().takeCommandStages(*d.token);
                // Flush never touches the scheduler: only total and
                // SQ-wait are meaningful for it.  The flow start is
                // emitted here rather than at submission — buffered
                // events carry explicit timestamps, so ordering in the
                // buffer is irrelevant.
                recordStages(cls, d.f.submittedAt, d.submittedNow, done,
                             d.group.empty() ? nullptr : &stages);
                if (!d.group.empty()) {
                    noteFlowStart(d.qid, *d.token, d.f.submittedAt);
                    noteFlowEnd(d.qid, *d.token, done);
                }
            }
            auto &attempts = attempts_.at(d.qid);
            std::uint32_t attempt = 0;
            if (const auto it = attempts.find(d.f.cid);
                it != attempts.end()) {
                attempt = it->second;
                attempts.erase(it);
            }
            const Tick deadline = d.f.submittedAt + retry_.commandTimeout;
            if (retry_.commandTimeout > 0 && attempt < retry_.maxRequeues &&
                done > deadline) {
                ++timeouts_;
                qps_[d.qid].complete(d.f.cid, d.f.submittedAt, deadline,
                                     nvme::kCommandAborted);
                noteCmdSpan(d.qid, cmdName(d.f.cmd.opcode()),
                            d.f.submittedAt, deadline,
                            nvme::kCommandAborted);
                noteSlo(cls, deadline - d.f.submittedAt, deadline);
                const auto cid = qps_[d.qid].submit(
                    d.f.cmd, done + requeueDelay(attempt + 1));
                if (!cid)
                    panic("HostInterface: ring full on requeue");
                attempts.emplace(*cid, attempt + 1);
                ++requeues_;
                more = true;
                ++retired;
                continue;
            }
            qps_[d.qid].complete(d.f.cid, d.f.submittedAt, done, d.status);
            noteCmdSpan(d.qid, cmdName(d.f.cmd.opcode()), d.f.submittedAt,
                        done, d.status);
            noteSlo(cls, done - d.f.submittedAt, done);
            if (health && d.mediaError)
                health->noteUncorrectable();
            ++retired;
        }
        deferred.clear();
    };

    while (more) {
        more = false;

        // Round-robin fetch: one command per queue per turn until all
        // SQs drain, preserving NVMe's per-queue FIFO order.
        std::vector<Pending> order;
        bool any = true;
        while (any) {
            any = false;
            for (std::uint16_t q = 0; q < queues(); ++q) {
                if (auto f = qps_[q].fetch()) {
                    order.push_back(Pending{q, std::move(*f)});
                    any = true;
                }
            }
        }

        // Execute in arbitration order.  ParaBit command groups are
        // re-assembled per queue using the formula tickets.
        std::vector<std::vector<nvme::NvmeCommand>> groups(queues());
        for (auto &p : order) {
            const auto op = p.f.cmd.opcode();
            auto &ticketq = tickets_.at(p.qid);
            const bool in_formula =
                !ticketq.empty() &&
                (p.f.cmd.hasPartner() || p.f.cmd.operandTag() ||
                 !groups[p.qid].empty());
            if (in_formula) {
                groups[p.qid].push_back(p.f.cmd);
                if (groups[p.qid].size() == ticketq.front().cmdCount) {
                    // Formula complete: parse and execute.
                    const FormulaTicket t = ticketq.front();
                    ticketq.pop_front();
                    std::vector<nvme::NvmeCommand> group =
                        std::move(groups[p.qid]);
                    groups[p.qid].clear();
                    const auto batches = parser_.parse(group);
                    flushDeferred();
                    if (!inHostRange(batches,
                                     dev_->ssd().ftl().logicalPages())) {
                        // An operand past host capacity: the command is
                        // malformed, whatever the device's health.
                        const Tick at =
                            std::max(dev_->now(), p.f.submittedAt);
                        qps_[p.qid].complete(t.finalCid, p.f.submittedAt,
                                             at, nvme::kLbaOutOfRange);
                        noteCmdSpan(p.qid, "formula", p.f.submittedAt, at,
                                    nvme::kLbaOutOfRange);
                        ++retired;
                        continue;
                    }
                    if (health && !health->admitFormula()) {
                        // A degraded device sheds computation before it
                        // executes — formulas are deferrable work the
                        // host can route elsewhere; plain I/O keeps
                        // flowing.  A failed device cannot vouch for
                        // anything and reports an internal error.
                        const std::uint16_t status =
                            health->admitRead() ? nvme::kAdmissionShed
                                                : nvme::kInternalError;
                        if (status == nvme::kAdmissionShed)
                            ++sheds_;
                        const Tick at =
                            std::max(dev_->now(), p.f.submittedAt);
                        qps_[p.qid].complete(t.finalCid, p.f.submittedAt,
                                             at, status);
                        noteCmdSpan(p.qid, "formula", p.f.submittedAt, at,
                                    status);
                        ++retired;
                        continue;
                    }
                    const Tick started =
                        std::max(dev_->now(), p.f.submittedAt);
                    const auto token = beginAttribution();
                    ExecResult r = dev_->controller().executeBatches(
                        batches, mode_, started);
                    endAttribution(token);
                    if (token) {
                        const ssd::sched::StageTicks stages =
                            dev_->ssd().scheduler().takeCommandStages(
                                *token);
                        recordStages(OpClass::kFormula, p.f.submittedAt,
                                     started, r.stats.end, &stages);
                        noteFlowStart(p.qid, *token, p.f.submittedAt);
                        noteFlowEnd(p.qid, *token, r.stats.end);
                    }
                    const Tick deadline =
                        p.f.submittedAt + retry_.commandTimeout;
                    if (retry_.commandTimeout > 0 &&
                        t.attempts < retry_.maxRequeues &&
                        r.stats.end > deadline) {
                        // The host's watchdog fires before the device
                        // would finish: abort at the deadline and
                        // re-issue the whole formula after the backoff,
                        // until the retry budget runs out.
                        ++timeouts_;
                        qps_[p.qid].complete(t.finalCid, p.f.submittedAt,
                                             deadline,
                                             nvme::kCommandAborted);
                        noteCmdSpan(p.qid, "formula", p.f.submittedAt,
                                    deadline, nvme::kCommandAborted);
                        noteSlo(OpClass::kFormula,
                                deadline - p.f.submittedAt, deadline);
                        const Tick at =
                            r.stats.end + requeueDelay(t.attempts + 1);
                        std::uint16_t last = 0;
                        for (const auto &c : group) {
                            const auto cid = qps_[p.qid].submit(c, at);
                            if (!cid)
                                panic("HostInterface: ring full on requeue");
                            last = *cid;
                        }
                        tickets_.at(p.qid).push_back(FormulaTicket{
                            p.qid, last, group.size(), t.attempts + 1});
                        ++requeues_;
                        more = true;
                        ++retired;
                        continue;
                    }
                    const std::uint16_t status = toNvmeStatus(r.status);
                    QueuedCompletion qc;
                    qc.qid = p.qid;
                    qc.cid = t.finalCid;
                    qc.status = status;
                    qc.pages = std::move(r.pages);
                    results_.at(p.qid).push_back(std::move(qc));
                    qps_[p.qid].complete(t.finalCid, p.f.submittedAt,
                                         r.stats.end, status);
                    noteCmdSpan(p.qid, "formula", p.f.submittedAt,
                                r.stats.end, status);
                    noteSlo(OpClass::kFormula,
                            r.stats.end - p.f.submittedAt, r.stats.end);
                    ++retired;
                }
                continue;
            }

            // Plain I/O path.  An LPN past host capacity is refused
            // before anything else looks at it.  Reads gate on page
            // accessibility — a dead plane surfaces as a media error
            // unless RAIN can rebuild the page, not as silent data.
            // A backed-off requeue carries a submission time past the
            // device clock; never execute (or complete) it earlier than
            // it was submitted.
            ssd::Ftl &ftl = dev_->ssd().ftl();
            const nvme::Lpn lpn = p.f.cmd.slba() / parser_.sectorsPerPage();
            const Tick ready = std::max(dev_->now(), p.f.submittedAt);
            if (op == nvme::Opcode::kFlush) {
                // Flush = force a checkpoint: every write completed
                // before this command survives a subsequent power cut
                // without journal/OOB replay.  Complete the pending
                // batch first — the checkpoint orders after it.
                flushDeferred();
                std::uint16_t status = nvme::kSuccess;
                if (!dev_->flush())
                    status = nvme::kInternalError;
                DeferredPlain d{p.qid, std::move(p.f), {}, status,
                                std::max(dev_->now(), ready)};
                if (attributionOn())
                    d.token = nextCmdToken_++;
                deferred.push_back(std::move(d));
                flushDeferred(); // empty group: completes at dev_->now()
                continue;
            }
            DeferredPlain d{p.qid, std::move(p.f), {}, nvme::kSuccess,
                            ready};
            if (lpn >= ftl.logicalPages()) {
                d.status = nvme::kLbaOutOfRange;
            } else if (op == nvme::Opcode::kRead) {
                if (health && !health->admitRead()) {
                    // Failed device: nothing it returns can be vouched
                    // for.  The completion still posts — reject loudly.
                    d.status = nvme::kInternalError;
                } else {
                    bool readable = ftl.pageAccessible(lpn);
                    if (!readable && ftl.lookup(lpn)) {
                        // A mapped page on a dead plane is a media error
                        // unless RAIN parity rebuilds it, as it does a
                        // formula operand.  The repair books its own
                        // batch, so the pending one completes first.
                        if (dev_->ssd().rain())
                            flushDeferred();
                        readable = dev_->ssd().repairPage(lpn, ready);
                        d.mediaError = !readable;
                    }
                    if (!readable) {
                        d.status = nvme::kUnrecoveredReadError;
                    } else {
                        std::vector<ssd::PhysOp> ops;
                        ftl.readPage(lpn, ops);
                        d.token = beginAttribution();
                        d.group = dev_->ssd().submitOps(ops, ready);
                        endAttribution(d.token);
                    }
                }
            } else if (health && !health->admitWrite()) {
                // Read-only device: refuse new data it might not be
                // able to keep, with a status the host can tell apart
                // from an execution failure.
                d.status = health->state() == ssd::HealthState::kFailed
                               ? nvme::kInternalError
                               : nvme::kWriteProtected;
                if (d.status == nvme::kWriteProtected)
                    ++writeRejects_;
            } else {
                if (health)
                    health->noteAdmittedWrite();
                std::vector<ssd::PhysOp> ops;
                const bool wrote = ftl.writePage(lpn, nullptr, ops);
                d.token = beginAttribution();
                d.group = dev_->ssd().submitOps(ops, ready);
                endAttribution(d.token);
                if (!wrote)
                    d.status = nvme::kInternalError;
            }
            deferred.push_back(std::move(d));
        }
        flushDeferred();
    }
    return retired;
}

bool
HostInterface::shutdownNotify()
{
    pump();
    return dev_->shutdownNotify();
}

} // namespace parabit::core
