/**
 * @file
 * Transaction-scheduler behaviour: policy semantics (FCFS head-of-line
 * vs out-of-order independence vs read priority), suspend-resume
 * arithmetic and its bounds, multi-plane batching, channel command
 * modelling, and batch bookkeeping edges.
 *
 * Durations are hand-picked round numbers set directly on the
 * DeviceTransaction, so every expected tick below is derivable by eye.
 * The deep-queue differential at the end instead drives a seeded mix
 * through both the scheduler and a test-local replica of its original
 * build-every-view-then-pick dispatch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "ssd/event_engine.hpp"
#include "ssd/sched/scheduler.hpp"
#include "ssd/ssd.hpp"
#include "ssd/timeline.hpp"

namespace parabit::ssd::sched {
namespace {

flash::PhysPageAddr
planeAddr(std::uint32_t channel, std::uint32_t chip, std::uint32_t plane)
{
    flash::PhysPageAddr a;
    a.channel = channel;
    a.chip = chip;
    a.plane = plane;
    return a;
}

DeviceTransaction
readTx(const flash::PhysPageAddr &a, Tick ready, Tick array, Tick xferOut)
{
    DeviceTransaction tx;
    tx.cls = TxClass::kRead;
    tx.addr = a;
    tx.readyAt = ready;
    tx.arrayTicks = array;
    tx.xferOutTicks = xferOut;
    return tx;
}

DeviceTransaction
programTx(const flash::PhysPageAddr &a, Tick ready, Tick array)
{
    DeviceTransaction tx;
    tx.cls = TxClass::kProgram;
    tx.addr = a;
    tx.readyAt = ready;
    tx.arrayTicks = array;
    return tx;
}

/** Timing with easy suspend/resume arithmetic. */
flash::FlashTiming
testTiming()
{
    flash::FlashTiming t;
    t.tSuspend = 7;
    t.tResume = 9;
    return t;
}

TEST(SchedPolicy, FcfsWaitsForHeadOfLine)
{
    SchedConfig cfg; // FCFS
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // tx0 (submitted first) is not ready until 100; its channel
    // transfer heads the channel queue, so tx1's earlier transfer must
    // wait behind it under FCFS.
    const auto id0 = s.submit(readTx(planeAddr(0, 0, 0), 100, 50, 30));
    const auto id1 = s.submit(readTx(planeAddr(0, 1, 0), 0, 10, 30));
    s.drain();
    EXPECT_EQ(s.completionOf(id0), 180u); // array 100-150, xfer 150-180
    // Array done at 10, but the channel head (tx0) books 150-180 first.
    EXPECT_EQ(s.completionOf(id1), 210u);
}

TEST(SchedPolicy, OutOfOrderProceedsPastBlockedHead)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kOutOfOrderDieFirst;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto id0 = s.submit(readTx(planeAddr(0, 0, 0), 100, 50, 30));
    const auto id1 = s.submit(readTx(planeAddr(0, 1, 0), 0, 10, 30));
    s.drain();
    // tx1's transfer no longer waits for the not-yet-ready head.
    EXPECT_EQ(s.completionOf(id1), 40u); // array 0-10, xfer 10-40
    EXPECT_EQ(s.completionOf(id0), 180u);
}

TEST(SchedPolicy, OutOfOrderNeverSuspends)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kOutOfOrderDieFirst;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    s.drain();
    EXPECT_EQ(s.stats().suspends, 0u);
    EXPECT_EQ(s.completionOf(rd), 110u); // waits out the program
}

TEST(SchedReadPriority, SuspendResumeArithmetic)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto prog = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    s.drain();
    // Program runs 0-40, suspends (7): plane busy until 47.  Read runs
    // 47-57.  Resume overhead (9) 57-66, remainder 66-126.
    EXPECT_EQ(s.completionOf(rd), 57u);
    EXPECT_EQ(s.completionOf(prog), 126u);
    EXPECT_EQ(s.stats().suspends, 1u);

    // Suspend-resume conserves total array time.
    for (const TxRecord &r : s.records())
        EXPECT_EQ(r.arrayExecuted, r.arrayTicks) << "tx " << r.id;
    // Plane busy time: [0,47) + [47,57) + [57,126).
    EXPECT_EQ(s.stats().dieBusy.at(0), 126u);
}

TEST(SchedReadPriority, SuspendBudgetIsHonoured)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.maxSuspendsPerOp = 1;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto prog = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto r1 = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    const auto r2 = s.submit(readTx(planeAddr(0, 0, 0), 60, 10, 0));
    s.drain();
    EXPECT_EQ(s.completionOf(r1), 57u);
    // Budget spent: the second read cannot suspend the resumed
    // remainder (66-126) and waits it out.
    EXPECT_EQ(s.completionOf(prog), 126u);
    EXPECT_EQ(s.completionOf(r2), 136u);
    EXPECT_EQ(s.stats().suspends, 1u);
}

TEST(SchedReadPriority, ParkedDeadlineOutranksFurtherReads)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.maxSuspendedTicks = 20; // forceAt = first suspension + 20
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto prog = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto ra = s.submit(readTx(planeAddr(0, 0, 0), 10, 10, 0));
    const auto rb = s.submit(readTx(planeAddr(0, 0, 0), 12, 10, 0));
    const auto rc = s.submit(readTx(planeAddr(0, 0, 0), 12, 10, 0));
    s.drain();
    // Suspend at 10 (forceAt 30), read A 17-27.  At 27 the parked
    // remainder is not yet forced, so read B runs 27-37.  At 37 the
    // deadline has passed: the remainder resumes (37 + 9 resume + 90)
    // ahead of read C even though suspend budget remains.
    EXPECT_EQ(s.completionOf(ra), 27u);
    EXPECT_EQ(s.completionOf(rb), 37u);
    EXPECT_EQ(s.completionOf(prog), 136u);
    EXPECT_EQ(s.completionOf(rc), 146u);
    EXPECT_EQ(s.stats().suspends, 1u);
}

TEST(SchedReadPriority, ReducesReadLatencyUnderParaBitInterference)
{
    // The acceptance-criteria shape in miniature: a read arriving
    // behind a long co-plane program completes sooner under
    // read-priority than under FCFS.
    const auto runWith = [](SchedPolicyKind p) {
        SchedConfig cfg;
        cfg.policy = p;
        TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(),
                               cfg);
        s.submit(programTx(planeAddr(0, 0, 0), 0, 1000));
        const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 100, 25, 0));
        s.drain();
        return s.completionOf(rd) - 100; // read latency
    };
    const Tick fcfs = runWith(SchedPolicyKind::kFcfs);
    const Tick rp = runWith(SchedPolicyKind::kReadPriority);
    EXPECT_LT(rp, fcfs);
    EXPECT_EQ(rp, 32u);   // suspend at 100, read 107-132
    EXPECT_EQ(fcfs, 925u); // waits for the program to finish
}

TEST(SchedCmdOnChannel, CommandIssueBooksChannelTimeForEveryKind)
{
    // Legacy model: the command byte of kPageRead/kBlockErase consumes
    // no channel time.  With cmdOnChannel every kind books tCmdOverhead
    // on the channel; isolated-op completion times are unchanged.
    SsdConfig base = SsdConfig::tiny();
    base.storeData = false;
    SsdConfig withCmd = base;
    withCmd.sched.cmdOnChannel = true;

    SsdDevice legacy(base);
    SsdDevice modeled(withCmd);
    const flash::FlashTiming &t = base.timing;

    std::vector<PhysOp> ops(3);
    ops[0].kind = PhysOp::Kind::kPageRead;
    ops[0].addr = planeAddr(0, 0, 0);
    ops[1].kind = PhysOp::Kind::kPageProgram;
    ops[1].addr = planeAddr(0, 0, 1);
    ops[2].kind = PhysOp::Kind::kBlockErase;
    ops[2].addr = planeAddr(0, 1, 0);

    // Spread the ops out so they do not contend; completion of each op
    // is then the intrinsic latency in both models.
    Tick tl = 0, tm = 0;
    for (const PhysOp &op : ops) {
        const Tick at = std::max(tl, tm) + t.tErase;
        tl = legacy.scheduleOps({op}, at);
        tm = modeled.scheduleOps({op}, at);
        EXPECT_EQ(tl, tm);
    }

    const SchedStats sl = legacy.scheduler().stats();
    const SchedStats sm = modeled.scheduler().stats();
    Tick chLegacy = 0, chModeled = 0;
    for (std::size_t c = 0; c < sl.channelBusy.size(); ++c) {
        chLegacy += sl.channelBusy[c];
        chModeled += sm.channelBusy[c];
    }
    // Three commands' worth of extra channel occupancy, die time equal.
    EXPECT_EQ(chModeled, chLegacy + 3 * t.tCmdOverhead);
    Tick dieLegacy = 0, dieModeled = 0;
    for (std::size_t p = 0; p < sl.dieBusy.size(); ++p) {
        dieLegacy += sl.dieBusy[p];
        dieModeled += sm.dieBusy[p];
    }
    EXPECT_EQ(dieModeled, dieLegacy);
}

TEST(SchedBookkeeping, GroupAndZeroPhaseEdges)
{
    SchedConfig cfg;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);

    // Empty group falls back.
    EXPECT_EQ(s.groupCompletion(TxGroup{}, 42), 42u);

    // A transaction with no nonzero phases completes at readyAt plus
    // its command delay without touching any resource.
    DeviceTransaction tx;
    tx.cls = TxClass::kParaBit;
    tx.addr = planeAddr(0, 0, 0);
    tx.readyAt = 10;
    tx.cmdTicks = 5;
    const auto id = s.submit(tx);
    s.drain();
    EXPECT_EQ(s.completionOf(id), 15u);
    const SchedStats st = s.stats();
    for (Tick b : st.dieBusy)
        EXPECT_EQ(b, 0u);
    EXPECT_EQ(st.submitted, 1u);
    EXPECT_EQ(st.completed, 1u);
}

TEST(SchedBookkeeping, LatencySamplingPerClass)
{
    SchedConfig cfg;
    cfg.latencySampling = true;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    s.submit(programTx(planeAddr(0, 0, 1), 0, 100));
    s.drain();
    const ClassLatency &rd = s.latency(TxClass::kRead);
    EXPECT_EQ(rd.scalar.count(), 2u);
    EXPECT_EQ(rd.quantiles.count(), 2u);
    // The sketch answers within its relative-error bound.
    const double err = rd.quantiles.relativeError();
    EXPECT_NEAR(rd.quantiles.quantile(0.50), 10.0, 10.0 * err);
    // The second read queues behind the first.
    EXPECT_NEAR(rd.quantiles.quantile(0.99), 20.0, 20.0 * err);
    EXPECT_EQ(rd.scalar.max(), 20.0);
    EXPECT_EQ(s.latency(TxClass::kProgram).scalar.count(), 1u);
    EXPECT_EQ(s.latency(TxClass::kErase).scalar.count(), 0u);
}

TEST(SchedTrace, PhaseOrderAndNonOverlapObservable)
{
    SchedConfig cfg;
    cfg.traceEnabled = true;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    const auto id = s.submit(readTx(planeAddr(0, 0, 0), 0, 50, 30));
    s.drain();
    const auto &tr = s.trace();
    ASSERT_EQ(tr.size(), 2u);
    EXPECT_EQ(tr[0].txId, id);
    EXPECT_EQ(tr[0].kind, PhaseKind::kArray);
    EXPECT_EQ(tr[1].kind, PhaseKind::kXferOut);
    EXPECT_LE(tr[0].end, tr[1].start);
}

DeviceTransaction
scrubTx(const flash::PhysPageAddr &a, Tick ready, Tick array)
{
    DeviceTransaction tx;
    tx.cls = TxClass::kScrub;
    tx.addr = a;
    tx.readyAt = ready;
    tx.arrayTicks = array;
    return tx;
}

TEST(SchedScrub, ClassNameAndSuspendability)
{
    EXPECT_STREQ(txClassName(TxClass::kScrub), "scrub");
}

TEST(SchedScrub, RunsAfterEveryForegroundClass)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // A running read holds the plane 0-50 (reads are never preempted),
    // so the next three arbitrate when it frees.  The scan was queued
    // FIRST (oldest seq) yet both the read and the program beat it.
    s.submit(readTx(planeAddr(0, 0, 0), 0, 50, 0));
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 10));
    const auto pr = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 0, 10, 0));
    s.drain();
    EXPECT_EQ(s.completionOf(rd), 60u);
    EXPECT_EQ(s.completionOf(pr), 160u);
    EXPECT_EQ(s.completionOf(sc), 170u); // background: strictly last
}

TEST(SchedScrub, AntiStarvationBoundPromotesDeferredScan)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.scrubMaxDeferredTicks = 50;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // The blocker read holds the plane 0-100.  By then the scan has
    // been deferred past the 50-tick bound, left the background bucket
    // and — as the oldest entry — beats the program to the plane.
    s.submit(readTx(planeAddr(0, 0, 0), 0, 100, 0));
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 10));
    const auto pr = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    s.drain();
    EXPECT_EQ(s.completionOf(sc), 110u); // promoted ahead of the program
    EXPECT_EQ(s.completionOf(pr), 210u);
}

TEST(SchedScrub, WithoutBoundHostTrafficKeepsWinning)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    cfg.scrubMaxDeferredTicks = ticks::fromMs(1); // far beyond this run
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    s.submit(readTx(planeAddr(0, 0, 0), 0, 100, 0));
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 10));
    const auto pr = s.submit(programTx(planeAddr(0, 0, 0), 0, 100));
    s.drain();
    EXPECT_EQ(s.completionOf(pr), 200u);
    EXPECT_EQ(s.completionOf(sc), 210u); // still dead last
}

TEST(SchedScrub, ArrivingReadSuspendsRunningScan)
{
    SchedConfig cfg;
    cfg.policy = SchedPolicyKind::kReadPriority;
    TransactionScheduler s(flash::FlashGeometry::tiny(), testTiming(), cfg);
    // Same arithmetic as SuspendResumeArithmetic, with the scan in the
    // program's role: scan 0-40, suspend (7) to 47, read 47-57, resume
    // (9) to 66, remainder 66-126.
    const auto sc = s.submit(scrubTx(planeAddr(0, 0, 0), 0, 100));
    const auto rd = s.submit(readTx(planeAddr(0, 0, 0), 40, 10, 0));
    s.drain();
    EXPECT_EQ(s.completionOf(rd), 57u);
    EXPECT_EQ(s.completionOf(sc), 126u);
    EXPECT_EQ(s.stats().suspends, 1u);
}

/**
 * Test-local replica of the scheduler's original dispatch: every
 * arbitration copies the resource's whole queue into a vector of views
 * and a policy picks an index from it; readiness lives on the queue
 * entries, so marking a phase ready scans its queue.  Same event order,
 * booking arithmetic and suspend-resume rules as the scheduler, with no
 * observability.  The deep-queue differential below pins the scheduler
 * to it tick-for-tick.
 */
class VectorDispatchReference
{
  public:
    VectorDispatchReference(const flash::FlashGeometry &g,
                            const flash::FlashTiming &t,
                            const SchedConfig &cfg)
        : geo_(g), timing_(t), cfg_(cfg),
          resources_(static_cast<std::size_t>(g.channels) + g.planesTotal())
    {
        for (std::size_t i = 0; i < resources_.size(); ++i) {
            resources_[i].onChannel = i < g.channels;
            resources_[i].index = static_cast<std::uint32_t>(
                resources_[i].onChannel ? i : i - g.channels);
        }
    }

    void
    submit(const DeviceTransaction &tx)
    {
        if (!batchOpen_) {
            txs_.clear();
            batchOpen_ = true;
        }
        Tx st;
        st.tx = tx;
        st.id = nextId_++;
        const std::size_t ch = tx.addr.channel;
        const std::size_t die = arrayResource(tx.addr);
        if (cfg_.cmdOnChannel && tx.cmdTicks > 0)
            st.phases.push_back({PhaseKind::kCmd, ch, tx.cmdTicks});
        if (tx.xferInTicks > 0)
            st.phases.push_back({PhaseKind::kXferIn, ch, tx.xferInTicks});
        if (tx.arrayTicks > 0)
            st.phases.push_back({PhaseKind::kArray, die, tx.arrayTicks});
        if (tx.xferOutTicks > 0)
            st.phases.push_back({PhaseKind::kXferOut, ch, tx.xferOutTicks});
        const std::size_t txIdx = txs_.size();
        txs_.push_back(st);
        Tx &added = txs_.back();
        if (added.phases.empty()) {
            finish(added, firstEarliest(added));
            return;
        }
        for (std::size_t p = 0; p < added.phases.size(); ++p) {
            Res &r = resources_[added.phases[p].resource];
            QEntry e;
            e.txIdx = txIdx;
            e.phaseIdx = p;
            r.q.push_back(e);
            r.maxDepth = std::max(r.maxDepth, r.q.size());
        }
    }

    void
    drain()
    {
        batchOpen_ = false;
        EventEngine eng;
        eng_ = &eng;
        for (std::size_t i = 0; i < txs_.size(); ++i) {
            const Tx &st = txs_[i];
            if (st.done || st.phases.empty())
                continue;
            const std::size_t res = st.phases[0].resource;
            const Tick earliest = firstEarliest(st);
            eng.schedule(earliest, [this, res, i, earliest] {
                markReady(res, i, 0, earliest);
            });
        }
        eng.run();
        eng_ = nullptr;
    }

    /** Per-transaction completion and suspends, over every batch. */
    std::vector<Tick> complete;
    std::vector<int> suspends;
    /** Every booked interval, in booking order, over every batch. */
    std::vector<TraceEntry> trace;
    /** Picks that took a resume remainder past its parked deadline. */
    std::uint64_t forcedResumes = 0;
    /** Picks that took a scan past its anti-starvation bound. */
    std::uint64_t promotedScans = 0;

    std::size_t maxDepth(std::size_t res) const
    {
        return resources_[res].maxDepth;
    }
    Tick booked(std::size_t res) const
    {
        return resources_[res].tl.bookedTicks();
    }

  private:
    struct Phase
    {
        PhaseKind kind;
        std::size_t resource;
        Tick duration;
    };
    struct Tx
    {
        DeviceTransaction tx;
        std::uint64_t id = 0;
        std::vector<Phase> phases;
        Tick forceAt = 0;
        int suspends = 0;
        bool done = false;
    };
    struct QEntry
    {
        std::size_t txIdx = 0;
        std::size_t phaseIdx = 0;
        bool ready = false;
        Tick earliest = 0;
        bool isResume = false;
        Tick resumeRemaining = 0;
    };
    struct Running
    {
        std::size_t txIdx = 0;
        std::size_t phaseIdx = 0;
        std::uint64_t gen = 0;
        Tick start = 0;
        Tick payloadStart = 0;
        Tick plannedEnd = 0;
        bool isResume = false;
    };
    struct Res
    {
        Timeline tl;
        std::deque<QEntry> q;
        bool busy = false;
        Running running;
        std::uint64_t gen = 0;
        bool onChannel = false;
        std::uint32_t index = 0;
        std::size_t maxDepth = 0;
    };
    struct View
    {
        std::uint64_t seq;
        TxClass cls;
        bool ready;
        Tick earliest;
        bool isResume;
        Tick forceAt;
    };

    std::size_t
    arrayResource(const flash::PhysPageAddr &a) const
    {
        return geo_.channels +
               ((static_cast<std::size_t>(a.channel) * geo_.chipsPerChannel +
                 a.chip) * geo_.diesPerChip + a.die) * geo_.planesPerDie +
               a.plane;
    }

    Tick
    firstEarliest(const Tx &st) const
    {
        return cfg_.cmdOnChannel ? st.tx.readyAt
                                 : st.tx.readyAt + st.tx.cmdTicks;
    }

    static bool
    older(const std::vector<View> &v, std::size_t i, std::size_t best)
    {
        return best == kNoPick || v[i].seq < v[best].seq;
    }

    /** The three policies' original vector picks. */
    std::size_t
    pick(const std::vector<View> &v, Tick now)
    {
        switch (cfg_.policy) {
          case SchedPolicyKind::kFcfs:
            return !v.empty() && v.front().ready ? 0 : kNoPick;
          case SchedPolicyKind::kOutOfOrderDieFirst: {
            std::size_t best = kNoPick;
            for (std::size_t i = 0; i < v.size(); ++i)
                if (v[i].ready && older(v, i, best))
                    best = i;
            return best;
          }
          case SchedPolicyKind::kReadPriority:
            break;
        }
        std::size_t forced = kNoPick, read = kNoPick, any = kNoPick,
                    scrub = kNoPick;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (!v[i].ready)
                continue;
            if (v[i].isResume && now >= v[i].forceAt && older(v, i, forced))
                forced = i;
            if (v[i].cls == TxClass::kRead && older(v, i, read))
                read = i;
            if (v[i].cls == TxClass::kScrub && !v[i].isResume &&
                now < v[i].earliest + cfg_.scrubMaxDeferredTicks) {
                if (older(v, i, scrub))
                    scrub = i;
                continue;
            }
            if (older(v, i, any))
                any = i;
        }
        std::size_t out = forced != kNoPick ? forced
                          : read != kNoPick ? read
                          : any != kNoPick  ? any
                                            : scrub;
        if (out == forced && out != kNoPick)
            ++forcedResumes;
        else if (out == any && out != kNoPick &&
                 v[out].cls == TxClass::kScrub && !v[out].isResume)
            ++promotedScans;
        return out;
    }

    void
    markReady(std::size_t res, std::size_t txIdx, std::size_t phaseIdx,
              Tick earliest)
    {
        for (QEntry &e : resources_[res].q) {
            if (e.txIdx == txIdx && e.phaseIdx == phaseIdx && !e.isResume) {
                e.ready = true;
                e.earliest = earliest;
                dispatch(res);
                return;
            }
        }
        FAIL() << "phase entry not queued";
    }

    void
    dispatch(std::size_t res)
    {
        Res &r = resources_[res];
        if (r.busy) {
            maybeSuspend(res);
            return;
        }
        if (r.q.empty())
            return;
        std::vector<View> views;
        for (const QEntry &e : r.q) {
            const Tx &st = txs_[e.txIdx];
            views.push_back({st.id, st.tx.cls, e.ready, e.earliest,
                             e.isResume, st.forceAt});
        }
        const std::size_t p = pick(views, eng_->now());
        if (p == kNoPick)
            return;
        ASSERT_TRUE(p < r.q.size() && r.q[p].ready);
        start(res, p);
    }

    void
    start(std::size_t res, std::size_t qIdx)
    {
        Res &r = resources_[res];
        const QEntry e = r.q[qIdx];
        r.q.erase(r.q.begin() + static_cast<std::ptrdiff_t>(qIdx));
        const Tx &st = txs_[e.txIdx];
        const Tick payload =
            e.isResume ? e.resumeRemaining : st.phases[e.phaseIdx].duration;
        Running run;
        run.txIdx = e.txIdx;
        run.phaseIdx = e.phaseIdx;
        run.gen = ++r.gen;
        run.start = std::max(e.earliest, r.tl.nextFree());
        run.payloadStart = run.start + (e.isResume ? timing_.tResume : 0);
        run.plannedEnd = run.payloadStart + payload;
        run.isResume = e.isResume;
        r.busy = true;
        r.running = run;
        const std::uint64_t gen = run.gen;
        eng_->schedule(run.plannedEnd,
                       [this, res, gen] { onComplete(res, gen); });
    }

    void
    note(std::size_t res, const Tx &st, PhaseKind kind, Tick s, Tick e)
    {
        const Res &r = resources_[res];
        trace.push_back({st.id, r.onChannel, r.index, kind, s, e});
    }

    void
    onComplete(std::size_t res, std::uint64_t gen)
    {
        Res &r = resources_[res];
        if (!r.busy || r.running.gen != gen)
            return;
        const Running run = r.running;
        r.busy = false;
        Tx &st = txs_[run.txIdx];
        const Phase &ph = st.phases[run.phaseIdx];
        r.tl.reserve(run.start, run.plannedEnd - run.start);
        if (run.isResume)
            note(res, st, PhaseKind::kResume, run.start, run.payloadStart);
        note(res, st, ph.kind, run.payloadStart, run.plannedEnd);
        const std::size_t next = run.phaseIdx + 1;
        if (next < st.phases.size())
            markReady(st.phases[next].resource, run.txIdx, next,
                      run.plannedEnd);
        else
            finish(st, run.plannedEnd);
        dispatch(res);
    }

    void
    maybeSuspend(std::size_t res)
    {
        Res &r = resources_[res];
        const Running run = r.running;
        Tx &st = txs_[run.txIdx];
        const Tick now = eng_->now();
        if (st.phases[run.phaseIdx].kind != PhaseKind::kArray ||
            !st.tx.suspendable() || st.suspends >= cfg_.maxSuspendsPerOp ||
            now < run.payloadStart || now >= run.plannedEnd)
            return;
        const bool wanted = std::any_of(
            r.q.begin(), r.q.end(), [&](const QEntry &e) {
                return cfg_.policy == SchedPolicyKind::kReadPriority &&
                       e.ready && txs_[e.txIdx].tx.cls == TxClass::kRead;
            });
        if (!wanted)
            return;
        r.tl.reserve(run.start, (now - run.start) + timing_.tSuspend);
        if (st.suspends == 0)
            st.forceAt = now + cfg_.maxSuspendedTicks;
        ++st.suspends;
        if (run.isResume)
            note(res, st, PhaseKind::kResume, run.start, run.payloadStart);
        if (now > run.payloadStart)
            note(res, st, PhaseKind::kArray, run.payloadStart, now);
        note(res, st, PhaseKind::kSuspend, now, now + timing_.tSuspend);
        QEntry e;
        e.txIdx = run.txIdx;
        e.phaseIdx = run.phaseIdx;
        e.ready = true;
        e.earliest = now + timing_.tSuspend;
        e.isResume = true;
        e.resumeRemaining = run.plannedEnd - now;
        r.busy = false;
        r.q.push_back(e);
        dispatch(res);
    }

    void
    finish(Tx &st, Tick end)
    {
        st.done = true;
        if (complete.size() <= st.id) {
            complete.resize(st.id + 1);
            suspends.resize(st.id + 1);
        }
        complete[st.id] = end;
        suspends[st.id] = st.suspends;
    }

    flash::FlashGeometry geo_;
    flash::FlashTiming timing_;
    SchedConfig cfg_;
    std::vector<Res> resources_;
    std::vector<Tx> txs_;
    EventEngine *eng_ = nullptr;
    std::uint64_t nextId_ = 0;
    bool batchOpen_ = false;
};

/** One seeded transaction of the deep-queue mix: four in five target
 *  plane 0 of chip 0 (one die resource), the rest two neighbours on
 *  the same channel; every class appears, with and without transfers. */
DeviceTransaction
deepQueueTx(Rng &rng, Tick readyBase)
{
    static const flash::PhysPageAddr kTargets[] = {
        planeAddr(0, 0, 0), planeAddr(0, 1, 0), planeAddr(0, 0, 1)};
    DeviceTransaction tx;
    tx.addr = kTargets[rng.chance(0.8) ? 0 : 1 + rng.below(2)];
    tx.readyAt = readyBase + rng.below(4000);
    tx.cmdTicks = 5;
    const Tick xfer = 20 + rng.below(20);
    switch (rng.below(5)) {
      case 0:
        tx.cls = TxClass::kRead;
        tx.arrayTicks = 50 + rng.below(30);
        tx.xferOutTicks = xfer;
        break;
      case 1:
        tx.cls = TxClass::kProgram;
        tx.xferInTicks = xfer;
        tx.arrayTicks = 300 + rng.below(300);
        break;
      case 2:
        tx.cls = TxClass::kErase;
        tx.arrayTicks = 1000 + rng.below(1000);
        break;
      case 3:
        tx.cls = TxClass::kParaBit;
        tx.arrayTicks = 40 + rng.below(160);
        tx.xferInTicks = rng.chance(0.3) ? xfer : 0;
        tx.xferOutTicks = rng.chance(0.5) ? xfer : 0;
        break;
      default:
        tx.cls = TxClass::kScrub;
        tx.arrayTicks = 50 + rng.below(30);
        break;
    }
    return tx;
}

void
runDeepQueueDifferential(SchedPolicyKind policy, bool cmdOnChannel)
{
    SchedConfig cfg;
    cfg.policy = policy;
    cfg.cmdOnChannel = cmdOnChannel;
    cfg.traceEnabled = true;
    // Both read-priority bounds bite well inside the run.
    cfg.maxSuspendedTicks = 300;
    cfg.scrubMaxDeferredTicks = 3000;
    const flash::FlashGeometry geo = flash::FlashGeometry::tiny();
    TransactionScheduler sched(geo, testTiming(), cfg);
    VectorDispatchReference ref(geo, testTiming(), cfg);

    Rng rng(0xDEE9 + static_cast<std::uint64_t>(policy));
    std::vector<Tick> complete;
    std::vector<int> suspends;
    std::vector<TraceEntry> trace;
    Tick base = 0;
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 512; ++i) {
            const DeviceTransaction tx = deepQueueTx(rng, base);
            sched.submit(tx);
            ref.submit(tx);
        }
        base = sched.drain() / 2; // next batch overlaps this one's tail
        ref.drain();
        for (const TxRecord &r : sched.records()) {
            complete.push_back(r.complete);
            suspends.push_back(r.suspends);
        }
        trace.insert(trace.end(), sched.trace().begin(),
                     sched.trace().end());
    }

    const std::size_t die0 = geo.channels; // plane 0 of chip 0
    EXPECT_GE(ref.maxDepth(0), 256u) << "channel queue not deep";
    EXPECT_GE(ref.maxDepth(die0), 256u) << "die queue not deep";

    ASSERT_EQ(complete.size(), ref.complete.size());
    for (std::size_t i = 0; i < complete.size(); ++i) {
        ASSERT_EQ(complete[i], ref.complete[i]) << "tx " << i;
        ASSERT_EQ(suspends[i], ref.suspends[i]) << "tx " << i;
    }
    ASSERT_EQ(trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEntry &a = trace[i];
        const TraceEntry &b = ref.trace[i];
        ASSERT_TRUE(a.txId == b.txId && a.onChannel == b.onChannel &&
                    a.resource == b.resource && a.kind == b.kind &&
                    a.start == b.start && a.end == b.end)
            << "booking " << i << " diverged (tx " << a.txId << " vs "
            << b.txId << ")";
    }
    const SchedStats st = sched.stats();
    EXPECT_EQ(st.channelBusy.at(0), ref.booked(0));
    EXPECT_EQ(st.dieBusy.at(0), ref.booked(die0));

    if (policy == SchedPolicyKind::kReadPriority) {
        // The mix must exercise what the other policies lack.
        EXPECT_GT(st.suspends, 0u);
        EXPECT_GT(ref.forcedResumes, 0u);
        EXPECT_GT(ref.promotedScans, 0u);
    } else {
        EXPECT_EQ(st.suspends, 0u);
    }
}

TEST(SchedDeepQueue, FcfsMatchesVectorDispatch)
{
    runDeepQueueDifferential(SchedPolicyKind::kFcfs, false);
    runDeepQueueDifferential(SchedPolicyKind::kFcfs, true);
}

TEST(SchedDeepQueue, OutOfOrderMatchesVectorDispatch)
{
    runDeepQueueDifferential(SchedPolicyKind::kOutOfOrderDieFirst, false);
    runDeepQueueDifferential(SchedPolicyKind::kOutOfOrderDieFirst, true);
}

TEST(SchedDeepQueue, ReadPriorityMatchesVectorDispatch)
{
    runDeepQueueDifferential(SchedPolicyKind::kReadPriority, false);
    runDeepQueueDifferential(SchedPolicyKind::kReadPriority, true);
}

} // namespace
} // namespace parabit::ssd::sched
