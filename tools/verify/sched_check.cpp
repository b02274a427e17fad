#include "sched_check.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ssd/config.hpp"
#include "ssd/sched/scheduler.hpp"
#include "ssd/timeline.hpp"

namespace parabit::verify {
namespace {

using ssd::Timeline;
using ssd::sched::DeviceTransaction;
using ssd::sched::PhaseKind;
using ssd::sched::SchedConfig;
using ssd::sched::SchedPolicyKind;
using ssd::sched::SchedStats;
using ssd::sched::TraceEntry;
using ssd::sched::TransactionScheduler;
using ssd::sched::TxClass;
using ssd::sched::TxRecord;

void
addFinding(Report &r, const std::string &subject, const std::string &message,
           const std::string &expected, const std::string &actual)
{
    r.findings.push_back({"scheduler", subject, message, expected, actual});
}

/** Phase kinds collapse to four pipeline stages; suspend/resume
 *  transitions are array-stage time. */
int
stageOf(PhaseKind k)
{
    switch (k) {
      case PhaseKind::kCmd:
        return 0;
      case PhaseKind::kXferIn:
        return 1;
      case PhaseKind::kArray:
      case PhaseKind::kSuspend:
      case PhaseKind::kResume:
        return 2;
      case PhaseKind::kXferOut:
        return 3;
    }
    return 3; // unreachable: -Wswitch covers additions
}

/**
 * The legacy greedy immediate-booking algorithm, generalised over the
 * canonical phase chain (which reproduces the class-specific seed
 * formulas exactly): book each phase the moment the previous one ends,
 * in submission order, on persistent per-channel/per-plane Timelines.
 */
class GreedyRef
{
  public:
    explicit GreedyRef(const flash::FlashGeometry &g)
        : geo_(g), chTls_(g.channels), plTls_(g.planesTotal())
    {
    }

    Tick
    schedule(const DeviceTransaction &tx, bool cmd_on_channel)
    {
        Timeline &ch = chTls_.at(tx.addr.channel);
        Timeline &die = plTls_.at(planeIndex(tx.addr));
        Tick ready = tx.readyAt;
        if (cmd_on_channel) {
            if (tx.cmdTicks > 0)
                ready = ch.reserve(ready, tx.cmdTicks) + tx.cmdTicks;
        } else {
            ready += tx.cmdTicks;
        }
        if (tx.xferInTicks > 0)
            ready = ch.reserve(ready, tx.xferInTicks) + tx.xferInTicks;
        if (tx.arrayTicks > 0)
            ready = die.reserve(ready, tx.arrayTicks) + tx.arrayTicks;
        if (tx.xferOutTicks > 0)
            ready = ch.reserve(ready, tx.xferOutTicks) + tx.xferOutTicks;
        return ready;
    }

    Tick channelBooked(std::size_t c) const { return chTls_.at(c).bookedTicks(); }

    Tick planeBooked(std::size_t p) const { return plTls_.at(p).bookedTicks(); }

  private:
    std::size_t
    planeIndex(const flash::PhysPageAddr &a) const
    {
        return ((static_cast<std::size_t>(a.channel) * geo_.chipsPerChannel +
                 a.chip) *
                    geo_.diesPerChip +
                a.die) *
                   geo_.planesPerDie +
               a.plane;
    }

    flash::FlashGeometry geo_;
    std::vector<Timeline> chTls_;
    std::vector<Timeline> plTls_;
};

DeviceTransaction
randomTx(Rng &rng, const flash::FlashGeometry &g,
         const flash::FlashTiming &t, Tick base)
{
    DeviceTransaction tx;
    tx.addr.channel = static_cast<std::uint32_t>(rng.below(g.channels));
    tx.addr.chip = static_cast<std::uint32_t>(rng.below(g.chipsPerChannel));
    tx.addr.die = static_cast<std::uint32_t>(rng.below(g.diesPerChip));
    tx.addr.plane = static_cast<std::uint32_t>(rng.below(g.planesPerDie));
    tx.addr.msb = rng.chance(0.5);
    // Arrivals staggered across a program window so reads land while
    // program/erase array phases occupy their die.
    tx.readyAt = base + rng.below(t.tProgram);
    tx.cmdTicks = t.tCmdOverhead;
    const std::uint64_t k = rng.below(10);
    if (k < 5) {
        tx.cls = TxClass::kRead;
        tx.arrayTicks = tx.addr.msb ? t.msbReadTime() : t.lsbReadTime();
        tx.xferOutTicks = t.transferTime(g.pageBytes);
    } else if (k < 8) {
        tx.cls = TxClass::kProgram;
        tx.xferInTicks = t.transferTime(g.pageBytes);
        tx.arrayTicks = t.tProgram;
    } else if (k < 9) {
        tx.cls = TxClass::kErase;
        tx.arrayTicks = t.tErase;
    } else {
        tx.cls = TxClass::kParaBit;
        tx.arrayTicks = t.senseTime(1 + static_cast<int>(rng.below(7)));
        if (rng.chance(0.3))
            tx.xferInTicks = t.transferTime(g.pageBytes);
        if (rng.chance(0.5))
            tx.xferOutTicks = t.transferTime(g.pageBytes);
    }
    return tx;
}

/** Per-transaction stage ordering over one batch's trace. */
void
checkPhaseOrder(const std::string &subject,
                const std::vector<TraceEntry> &trace, Report &r)
{
    struct Bounds
    {
        Tick minStart[4] = {};
        Tick maxEnd[4] = {};
        bool present[4] = {};
    };
    std::map<std::uint64_t, Bounds> byTx;
    for (const TraceEntry &e : trace) {
        Bounds &b = byTx[e.txId];
        const int s = stageOf(e.kind);
        if (!b.present[s]) {
            b.present[s] = true;
            b.minStart[s] = e.start;
            b.maxEnd[s] = e.end;
        } else {
            b.minStart[s] = std::min(b.minStart[s], e.start);
            b.maxEnd[s] = std::max(b.maxEnd[s], e.end);
        }
    }
    for (const auto &[id, b] : byTx) {
        ++r.schedChecksRun;
        for (int a = 0; a < 4; ++a) {
            if (!b.present[a])
                continue;
            for (int c = a + 1; c < 4; ++c) {
                if (!b.present[c])
                    continue;
                if (b.minStart[c] < b.maxEnd[a])
                    addFinding(r, subject,
                               "phase order violated for tx " +
                                   std::to_string(id) + ": stage " +
                                   std::to_string(c) +
                                   " starts before stage " +
                                   std::to_string(a) + " ends",
                               "start >= " + std::to_string(b.maxEnd[a]),
                               std::to_string(b.minStart[c]));
            }
        }
    }
}

/** No two bookings overlap on any single resource within a batch. */
void
checkNoOverlap(const std::string &subject,
               const std::vector<TraceEntry> &trace, Report &r)
{
    std::map<std::pair<bool, std::uint32_t>, std::vector<std::pair<Tick, Tick>>>
        byRes;
    for (const TraceEntry &e : trace)
        byRes[{e.onChannel, e.resource}].push_back({e.start, e.end});
    for (auto &[key, iv] : byRes) {
        ++r.schedChecksRun;
        std::sort(iv.begin(), iv.end());
        for (std::size_t i = 1; i < iv.size(); ++i) {
            if (iv[i].first < iv[i - 1].second)
                addFinding(r, subject,
                           std::string("overlapping bookings on ") +
                               (key.first ? "channel " : "die resource ") +
                               std::to_string(key.second),
                           "start >= " + std::to_string(iv[i - 1].second),
                           std::to_string(iv[i].first));
        }
    }
}

/** Suspend-resume conserves array work, batch records are complete. */
void
checkConservation(const std::string &subject,
                  const std::vector<TxRecord> &records, Report &r)
{
    for (const TxRecord &rec : records) {
        ++r.schedChecksRun;
        if (rec.arrayExecuted != rec.arrayTicks)
            addFinding(r, subject,
                       "suspend-resume lost array work on tx " +
                           std::to_string(rec.id) + " (" +
                           std::to_string(rec.suspends) + " suspensions)",
                       std::to_string(rec.arrayTicks) + " array ticks",
                       std::to_string(rec.arrayExecuted) + " executed");
        if (rec.complete < rec.readyAt)
            addFinding(r, subject,
                       "tx " + std::to_string(rec.id) +
                           " completes before it is ready",
                       ">= " + std::to_string(rec.readyAt),
                       std::to_string(rec.complete));
    }
}

/**
 * One policy x command-model x geometry combination: several rounds of
 * a deterministic mixed batch, invariants checked after every drain.
 * @return the scheduler's final stats (for the sweep-level checks).
 */
SchedStats
checkCombo(const std::string &subject, const flash::FlashGeometry &geo,
           SchedConfig cfg, std::uint64_t seed, Report &r)
{
    const flash::FlashTiming timing;
    cfg.traceEnabled = true;
    TransactionScheduler sch(geo, timing, cfg);
    GreedyRef ref(geo);
    const bool fcfs = cfg.policy == SchedPolicyKind::kFcfs;

    Rng rng(seed);
    // Traced busy time per resource, accumulated across all batches:
    // must equal the Timeline busy counters at the end of the sweep.
    std::map<std::pair<bool, std::uint32_t>, Tick> traced;

    Tick base = 0;
    for (int round = 0; round < 4; ++round) {
        std::vector<std::uint64_t> ids;
        std::vector<Tick> want;
        const std::size_t n = 24 + rng.below(16);
        for (std::size_t i = 0; i < n; ++i) {
            const DeviceTransaction tx = randomTx(rng, geo, timing, base);
            ids.push_back(sch.submit(tx));
            if (fcfs)
                want.push_back(ref.schedule(tx, cfg.cmdOnChannel));
        }
        const Tick done = sch.drain();

        checkPhaseOrder(subject, sch.trace(), r);
        checkNoOverlap(subject, sch.trace(), r);
        checkConservation(subject, sch.records(), r);
        for (const TraceEntry &e : sch.trace())
            traced[{e.onChannel, e.resource}] += e.end - e.start;

        if (fcfs) {
            for (std::size_t i = 0; i < ids.size(); ++i) {
                ++r.schedChecksRun;
                if (sch.completionOf(ids[i]) != want[i])
                    addFinding(r, subject,
                               "fcfs diverges from greedy immediate "
                               "booking on tx " +
                                   std::to_string(ids[i]) + " (round " +
                                   std::to_string(round) + ")",
                               std::to_string(want[i]),
                               std::to_string(sch.completionOf(ids[i])));
            }
        }
        base = done / 2; // drift: later batches contend with earlier ones
    }

    const SchedStats stats = sch.stats();
    ++r.schedChecksRun;
    if (stats.submitted != stats.completed)
        addFinding(r, subject, "transactions lost by the scheduler",
                   std::to_string(stats.submitted) + " submitted",
                   std::to_string(stats.completed) + " completed");

    // Busy accounting: every booked tick appears in the trace exactly
    // once, per resource.
    for (std::uint32_t c = 0; c < geo.channels; ++c) {
        ++r.schedChecksRun;
        const Tick t = traced.count({true, c}) ? traced.at({true, c}) : 0;
        if (stats.channelBusy.at(c) != t)
            addFinding(r, subject,
                       "channel " + std::to_string(c) +
                           " busy ticks diverge from the booking trace",
                       std::to_string(t), std::to_string(stats.channelBusy.at(c)));
    }
    for (std::uint32_t p = 0; p < geo.planesTotal(); ++p) {
        ++r.schedChecksRun;
        const Tick t = traced.count({false, p}) ? traced.at({false, p}) : 0;
        if (stats.dieBusy.at(p) != t)
            addFinding(r, subject,
                       "die resource " + std::to_string(p) +
                           " busy ticks diverge from the booking trace",
                       std::to_string(t), std::to_string(stats.dieBusy.at(p)));
    }

    if (fcfs) {
        for (std::uint32_t c = 0; c < geo.channels; ++c) {
            ++r.schedChecksRun;
            if (stats.channelBusy.at(c) != ref.channelBooked(c))
                addFinding(r, subject,
                           "fcfs channel " + std::to_string(c) +
                               " busy time diverges from greedy booking",
                           std::to_string(ref.channelBooked(c)),
                           std::to_string(stats.channelBusy.at(c)));
        }
        for (std::uint32_t p = 0; p < geo.planesTotal(); ++p) {
            ++r.schedChecksRun;
            if (stats.dieBusy.at(p) != ref.planeBooked(p))
                addFinding(r, subject,
                           "fcfs die resource " + std::to_string(p) +
                               " busy time diverges from greedy booking",
                           std::to_string(ref.planeBooked(p)),
                           std::to_string(stats.dieBusy.at(p)));
        }
    }
    return stats;
}

} // namespace

void
checkScheduler(Report &r)
{
    struct Geo
    {
        const char *name;
        flash::FlashGeometry geometry;
    };
    Geo tiny{"tiny", ssd::SsdConfig::tiny().geometry};
    // Lopsided: one channel feeding many planes, so die contention and
    // channel contention diverge sharply.
    Geo skewed{"skewed", ssd::SsdConfig::tiny().geometry};
    skewed.geometry.channels = 1;
    skewed.geometry.chipsPerChannel = 4;
    skewed.geometry.diesPerChip = 2;
    skewed.geometry.planesPerDie = 4;

    std::uint64_t readPrioritySuspends = 0;
    std::uint64_t seed = 0x5CED0001;
    for (const Geo &g : {tiny, skewed}) {
        for (int p = 0; p < ssd::sched::kNumSchedPolicies; ++p) {
            for (const bool cmdOnChannel : {false, true}) {
                SchedConfig cfg;
                cfg.policy = static_cast<SchedPolicyKind>(p);
                cfg.cmdOnChannel = cmdOnChannel;
                const std::string subject =
                    std::string(ssd::sched::policyName(cfg.policy)) +
                    (cmdOnChannel ? "/cmd-on-channel/" : "/cmd-as-delay/") +
                    g.name;
                const SchedStats stats =
                    checkCombo(subject, g.geometry, cfg, seed++, r);
                if (cfg.policy == SchedPolicyKind::kReadPriority)
                    readPrioritySuspends += stats.suspends;
            }
        }
    }

    // The conservation invariant is vacuous if the sweep never actually
    // suspended anything: treat that as a model regression too.
    ++r.schedChecksRun;
    if (readPrioritySuspends == 0)
        addFinding(r, "read_priority sweep",
                   "the deterministic trace exercised no suspend-resume; "
                   "conservation was not actually tested",
                   "> 0 suspensions", "0");
}

} // namespace parabit::verify
