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
    tickets_.at(qid).push_back(FormulaTicket{last_cid, cmds.size()});
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

bool
HostInterface::retire(InFlight &c)
{
    if (c.token) {
        // Flush books nothing on the scheduler: only total and SQ wait
        // are meaningful for it.  The flow start is emitted here rather
        // than at submission — buffered events carry explicit
        // timestamps, so ordering in the buffer is irrelevant.
        const bool booked = c.cls == OpClass::kFormula || !c.group.empty();
        const ssd::sched::StageTicks stages =
            dev_->ssd().scheduler().takeCommandStages(*c.token);
        recordStages(c.cls, c.f.submittedAt, c.started, c.done,
                     booked ? &stages : nullptr);
        if (booked) {
            noteFlowStart(c.qid, *c.token, c.f.submittedAt);
            noteFlowEnd(c.qid, *c.token, c.done);
        }
    }

    auto &attempts = attempts_[c.qid];
    std::uint32_t attempt = 0;
    if (const auto it = attempts.find(c.f.cid); it != attempts.end()) {
        attempt = it->second;
        attempts.erase(it);
    }
    // The host's watchdog fires before the device would finish: abort
    // at the deadline and re-issue the command after the backoff, until
    // the retry budget runs out.
    const Tick deadline = c.f.submittedAt + retry_.commandTimeout;
    const bool abort = c.watched && retry_.commandTimeout > 0 &&
                       attempt < retry_.maxRequeues && c.done > deadline;
    Tick end = c.done;
    std::uint16_t status = c.status;
    if (abort) {
        ++timeouts_;
        end = deadline;
        status = nvme::kCommandAborted;
    } else if (!c.pages.empty()) {
        QueuedCompletion qc;
        qc.qid = c.qid;
        qc.cid = c.f.cid;
        qc.status = status;
        qc.pages = std::move(c.pages);
        results_[c.qid].push_back(std::move(qc));
    }
    qps_[c.qid].complete(c.f.cid, c.f.submittedAt, end, status);
    noteCmdSpan(c.qid, opClassName(c.cls), c.f.submittedAt, end, status);
    if (c.watched)
        noteSlo(c.cls, end - c.f.submittedAt, end);
    if (!abort) {
        if (ssd::DeviceHealth *health = dev_->ssd().health();
            health && c.mediaError)
            health->noteUncorrectable();
        return false;
    }

    // A formula re-submits its whole group under a fresh ticket.
    const Tick at = c.done + requeueDelay(attempt + 1);
    const bool formula = !c.cmds.empty();
    const nvme::NvmeCommand *cmds = formula ? c.cmds.data() : &c.f.cmd;
    const std::size_t n = formula ? c.cmds.size() : 1;
    std::uint16_t last = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto cid = qps_[c.qid].submit(cmds[i], at);
        if (!cid)
            panic("HostInterface: ring full on requeue");
        last = *cid;
    }
    if (formula)
        tickets_[c.qid].push_back(FormulaTicket{last, n});
    attempts.emplace(last, attempt + 1);
    ++requeues_;
    return true;
}

std::size_t
HostInterface::pump()
{
    struct Pending
    {
        std::uint16_t qid;
        nvme::QueuePair::Fetched f;
    };

    std::size_t retired = 0;
    bool more = true;
    ssd::DeviceHealth *health = dev_->ssd().health();

    // Plain reads/writes are not executed inline: their FTL ops are
    // submitted to the device's transaction scheduler as they are
    // fetched (in arbitration order) and the batch is drained at the
    // next boundary — a formula execution, a Flush, a RAIN repair, or
    // the end of the round.  Under FCFS this is tick-identical to
    // inline execution (the device clock does not advance while
    // commands accumulate and per-resource booking order equals
    // submission order); under the reordering policies it is what gives
    // the arbiter a window of co-pending host transactions to work
    // with.  Must run before anything that opens a new scheduler batch
    // — the batch's completion map is discarded at the next submit.
    const auto retireBatch = [&] {
        if (batch_.empty())
            return;
        dev_->ssd().drainTransactions();
        for (InFlight &c : batch_) {
            c.done = dev_->ssd().groupCompletion(c.group, c.started);
            more |= retire(c);
            ++retired;
        }
        batch_.clear();
    };
    std::vector<ssd::PhysOp> ops;

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

        // Decide every command in arbitration order.  ParaBit command
        // groups are re-assembled per queue using the formula tickets.
        std::vector<std::vector<nvme::NvmeCommand>> groups(queues());
        for (auto &p : order) {
            auto &ticketq = tickets_.at(p.qid);
            const bool in_formula =
                !ticketq.empty() &&
                (p.f.cmd.hasPartner() || p.f.cmd.operandTag() ||
                 !groups[p.qid].empty());
            InFlight c;
            c.qid = p.qid;
            c.f = std::move(p.f);
            // A backed-off requeue carries a submission time past the
            // device clock; never execute (or complete) it earlier.
            c.started = std::max(dev_->now(), c.f.submittedAt);

            if (in_formula) {
                groups[c.qid].push_back(c.f.cmd);
                if (groups[c.qid].size() < ticketq.front().cmdCount)
                    continue;
                // Formula complete: parse, then execute or refuse it.
                c.f.cid = ticketq.front().finalCid;
                ticketq.pop_front();
                c.cls = OpClass::kFormula;
                c.cmds = std::move(groups[c.qid]);
                groups[c.qid].clear();
                const auto batches = parser_.parse(c.cmds);
                retireBatch();
                c.started = std::max(dev_->now(), c.f.submittedAt);
                c.done = c.started;
                if (!inHostRange(batches, dev_->ssd().ftl().logicalPages())) {
                    // An operand past host capacity: the command is
                    // malformed, whatever the device's health.
                    c.status = nvme::kLbaOutOfRange;
                    c.watched = false;
                } else if (health && !health->admitFormula()) {
                    // A degraded device sheds computation before it
                    // executes — formulas are deferrable work the host
                    // can route elsewhere; plain I/O keeps flowing.  A
                    // failed device cannot vouch for anything and
                    // reports an internal error.
                    c.status = health->admitRead() ? nvme::kAdmissionShed
                                                   : nvme::kInternalError;
                    if (c.status == nvme::kAdmissionShed)
                        ++sheds_;
                    c.watched = false;
                } else {
                    c.token = beginAttribution();
                    ExecResult r = dev_->controller().executeBatches(
                        batches, mode_, c.started);
                    endAttribution(c.token);
                    c.status = toNvmeStatus(r.status);
                    c.done = r.stats.end;
                    c.pages = std::move(r.pages);
                }
                more |= retire(c);
                ++retired;
                continue;
            }

            // Plain I/O.  An LPN past host capacity is refused before
            // anything else looks at it.  Reads gate on page
            // accessibility — a dead plane surfaces as a media error
            // unless RAIN can rebuild the page, not as silent data.
            c.cls = opClassOf(c.f.cmd.opcode());
            ssd::Ftl &ftl = dev_->ssd().ftl();
            const nvme::Lpn lpn = c.f.cmd.slba() / parser_.sectorsPerPage();
            if (c.cls == OpClass::kFlush) {
                // Flush = force a checkpoint: every write completed
                // before this command survives a subsequent power cut
                // without journal/OOB replay.  Complete the pending
                // batch first — the checkpoint orders after it.
                retireBatch();
                if (!dev_->flush())
                    c.status = nvme::kInternalError;
                c.started = std::max(dev_->now(), c.started);
                c.done = c.started;
                if (attributionOn())
                    c.token = nextCmdToken_++;
                // The Flush completes as a batch of its own: its drain
                // steps the health clock and the audit cadence.
                dev_->ssd().drainTransactions();
                more |= retire(c);
                ++retired;
                continue;
            }
            ops.clear();
            bool to_flash = false; ///< the FTL took the command
            if (lpn >= ftl.logicalPages()) {
                c.status = nvme::kLbaOutOfRange;
            } else if (c.cls == OpClass::kRead) {
                if (health && !health->admitRead()) {
                    // Failed device: nothing it returns can be vouched
                    // for.  The completion still posts — reject loudly.
                    c.status = nvme::kInternalError;
                } else {
                    bool readable = ftl.pageAccessible(lpn);
                    if (!readable && ftl.lookup(lpn)) {
                        // A mapped page on a dead plane is a media error
                        // unless RAIN parity rebuilds it, as it does a
                        // formula operand.  The repair books its own
                        // batch, so the pending one completes first.
                        if (dev_->ssd().rain())
                            retireBatch();
                        readable = dev_->ssd().repairPage(lpn, c.started);
                        c.mediaError = !readable;
                    }
                    to_flash = readable;
                    if (readable)
                        ftl.readPage(lpn, ops);
                    else
                        c.status = nvme::kUnrecoveredReadError;
                }
            } else if (health && !health->admitWrite()) {
                // Read-only device: refuse new data it might not be
                // able to keep, with a status the host can tell apart
                // from an execution failure.
                c.status = health->state() == ssd::HealthState::kFailed
                               ? nvme::kInternalError
                               : nvme::kWriteProtected;
                if (c.status == nvme::kWriteProtected)
                    ++writeRejects_;
            } else {
                if (health)
                    health->noteAdmittedWrite();
                to_flash = true;
                if (!ftl.writePage(lpn, nullptr, ops))
                    c.status = nvme::kInternalError;
            }
            if (to_flash) {
                c.token = beginAttribution();
                c.group = dev_->ssd().submitOps(ops, c.started);
                endAttribution(c.token);
            }
            batch_.push_back(std::move(c));
        }
        retireBatch();
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
