/**
 * @file
 * Host-interface tests: formulas through the full queue path, mixed
 * I/O interference, round-robin arbitration, and back-pressure.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/health.hpp"
#include "ssd/rain.hpp"

namespace parabit::core {
namespace {

std::vector<BitVector>
pages(const ssd::SsdConfig &cfg, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (int p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

TEST(HostInterface, FormulaThroughTheWire)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 1);
    const auto y = pages(dev.ssd().config(), 1, 2);
    dev.writeData(0, x);
    dev.writeData(10, y);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kXor});
    const auto cid = host.submitFormula(0, f);
    ASSERT_TRUE(cid);
    EXPECT_GT(host.pump(), 0u);
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cid, *cid);
    EXPECT_GT(c->latency, 0u);
    ASSERT_EQ(c->pages.size(), 1u);
    EXPECT_EQ(c->pages[0], x[0] ^ y[0]);
}

TEST(HostInterface, ChainedFormulaThroughTheWire)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    std::vector<std::vector<BitVector>> ops;
    std::vector<nvme::Lpn> lpns{0, 20, 40};
    for (int k = 0; k < 3; ++k) {
        ops.push_back(pages(dev.ssd().config(), 1,
                            10 + static_cast<std::uint64_t>(k)));
        dev.writeDataLsbOnly(lpns[static_cast<std::size_t>(k)],
                             ops.back());
    }
    HostInterface host(dev, 1, 32, Mode::kPreAllocated);
    const nvme::Formula f =
        nvme::Formula::chain(flash::BitwiseOp::kAnd, lpns, 1);
    ASSERT_TRUE(host.submitFormula(0, f));
    host.pump();
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->pages[0], ops[0][0] & ops[1][0] & ops[2][0]);
}

TEST(HostInterface, PlainIoCompletesWithDeviceLatency)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 3);
    dev.writeData(5, d);
    HostInterface host(dev, 1, 8);
    ASSERT_TRUE(host.submitRead(0, 5));
    host.pump();
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    // An LSB/MSB read takes at least one 25 us sensing.
    EXPECT_GE(c->latency, ticks::fromUs(25));
    EXPECT_TRUE(c->pages.empty());
}

TEST(HostInterface, CompletionsEmitAsyncTraceSpans)
{
    obs::TraceSink &sink = obs::TraceSink::enableGlobal();
    sink.clear();
    {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        const auto x = pages(dev.ssd().config(), 1, 1);
        const auto y = pages(dev.ssd().config(), 1, 2);
        dev.writeData(0, x);
        dev.writeData(10, y);
        HostInterface host(dev, 1, 8, Mode::kReAllocate);
        ASSERT_TRUE(host.submitRead(0, 0));
        nvme::Formula f;
        f.terms.push_back(
            nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                nvme::OperandRef::logical(10, 1),
                                flash::BitwiseOp::kXor});
        ASSERT_TRUE(host.submitFormula(0, f));
        host.pump();
        while (host.reap(0))
            ;
    }
    const std::string json = sink.toJson();
    obs::TraceSink::disableGlobal();
    // The read and the formula each close one async begin/end pair on
    // the host queue's track.
    EXPECT_NE(json.find("\"cat\":\"nvme\",\"id\":\"0\",\"name\":\"read\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"formula\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"queue 0\"}"),
              std::string::npos);
    const auto count = [&json](const char *needle) {
        std::size_t n = 0;
        for (std::size_t at = json.find(needle); at != std::string::npos;
             at = json.find(needle, at + 1))
            ++n;
        return n;
    };
    // Read + host formula + the controller's own formula span: every
    // begin is closed by a matching end.
    EXPECT_GE(count("\"ph\":\"b\""), 2u);
    EXPECT_EQ(count("\"ph\":\"b\""), count("\"ph\":\"e\""));
}

TEST(HostInterface, RoundRobinServesBothQueues)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 4);
    dev.writeData(0, d);
    dev.writeData(1, d);
    HostInterface host(dev, 2, 8);
    ASSERT_TRUE(host.submitRead(0, 0));
    ASSERT_TRUE(host.submitRead(1, 1));
    EXPECT_EQ(host.pump(), 2u);
    EXPECT_TRUE(host.reap(0).has_value());
    EXPECT_TRUE(host.reap(1).has_value());
}

TEST(HostInterface, FormulaRejectedWhenRingCannotHoldIt)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    dev.writeMeta(0, 4);
    dev.writeMeta(10, 4);
    HostInterface host(dev, 1, 4); // 3 usable slots
    nvme::Formula f;
    // 4 pages -> 8 commands: cannot fit.
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 4),
                                          nvme::OperandRef::logical(10, 4),
                                          flash::BitwiseOp::kAnd});
    EXPECT_FALSE(host.submitFormula(0, f).has_value());
}

TEST(HostInterface, PartialRingFullQueuesNothingAndRingIsUnchanged)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 2, 11);
    const auto y = pages(dev.ssd().config(), 2, 12);
    dev.writeData(0, x);
    dev.writeData(10, y);

    HostInterface host(dev, 1, 8); // 7 usable slots
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(host.submitRead(0, 0));

    // A 2-page formula needs 4 commands; 4 + 4 > 7 -> whole submission
    // refused, nothing partially queued.
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 2),
                                          nvme::OperandRef::logical(10, 2),
                                          flash::BitwiseOp::kAnd});
    EXPECT_FALSE(host.submitFormula(0, f).has_value());

    // The ring holds exactly the four reads: they retire cleanly and
    // no formula completion ever appears.
    EXPECT_EQ(host.pump(), 4u);
    for (int i = 0; i < 4; ++i) {
        const auto c = host.reap(0);
        ASSERT_TRUE(c);
        EXPECT_TRUE(c->ok());
        EXPECT_TRUE(c->pages.empty());
    }
    EXPECT_FALSE(host.reap(0).has_value());

    // A formula that fits still goes through afterwards.
    nvme::Formula g;
    g.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kXor});
    ASSERT_TRUE(host.submitFormula(0, g));
    host.pump();
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    ASSERT_EQ(c->pages.size(), 1u);
    EXPECT_EQ(c->pages[0], x[0] ^ y[0]);
}

TEST(HostInterface, ErrorCompletionsKeepOrderAndCarryStatus)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 4, 21);
    dev.writeData(0, d); // LPNs 0..3 stripe across planes

    // Kill the plane holding LPN 1; find a survivor LPN elsewhere.
    const auto victim = dev.ssd().ftl().lookup(1);
    ASSERT_TRUE(victim.has_value());
    const ssd::PlaneIndex dead_plane = ssd::planeIndex(
        dev.ssd().geometry(),
        {victim->channel, victim->chip, victim->die, victim->plane});
    nvme::Lpn ok_lpn = 0;
    for (nvme::Lpn l = 0; l < 4; ++l) {
        const auto a = dev.ssd().ftl().lookup(l);
        ASSERT_TRUE(a.has_value());
        if (ssd::planeIndex(dev.ssd().geometry(),
                            {a->channel, a->chip, a->die, a->plane}) !=
            dead_plane) {
            ok_lpn = l;
            break;
        }
    }
    ssd::FaultSpec s;
    s.cls = ssd::FaultClass::kDeadPlane;
    s.plane = dead_plane;
    dev.ssd().injectFault(s);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    ASSERT_TRUE(host.submitRead(0, ok_lpn));
    ASSERT_TRUE(host.submitRead(0, 1)); // dead-plane read
    nvme::Formula f;               // formula over the dead operand
    f.terms.push_back(nvme::Formula::Term{
        nvme::OperandRef::logical(ok_lpn, 1), nvme::OperandRef::logical(1, 1),
        flash::BitwiseOp::kXor});
    ASSERT_TRUE(host.submitFormula(0, f));
    ASSERT_TRUE(host.submitRead(0, ok_lpn));
    host.pump();

    // Completions reap strictly in submission order, statuses attached.
    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_TRUE(c1->ok());
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_EQ(c2->status, nvme::kUnrecoveredReadError);
    const auto c3 = host.reap(0);
    ASSERT_TRUE(c3);
    EXPECT_EQ(c3->status, nvme::kUnrecoveredReadError)
        << "data loss must surface as a media error";
    EXPECT_TRUE(c3->pages.empty())
        << "an errored formula must never hand pages to the host";
    const auto c4 = host.reap(0);
    ASSERT_TRUE(c4);
    EXPECT_TRUE(c4->ok()) << "a clean command after an error still works";
}

TEST(HostInterface, FormulaOverUnmappedLpnCompletesLikeARead)
{
    // A formula naming a never-written LPN completes with the media
    // error a read of that LPN gets, and the device keeps serving.
    for (Mode mode :
         {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree}) {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        const auto x = pages(dev.ssd().config(), 2, 31);
        dev.writeData(0, x);

        HostInterface host(dev, 1, 32, mode);
        ASSERT_TRUE(host.submitRead(0, 50)); // never written
        nvme::Formula f;
        f.terms.push_back(nvme::Formula::Term{
            nvme::OperandRef::logical(0, 1), nvme::OperandRef::logical(50, 1),
            flash::BitwiseOp::kAnd});
        ASSERT_TRUE(host.submitFormula(0, f));
        nvme::Formula g; // unmapped first operand
        g.terms.push_back(nvme::Formula::Term{
            nvme::OperandRef::logical(50, 1), nvme::OperandRef::logical(0, 1),
            flash::BitwiseOp::kOr});
        ASSERT_TRUE(host.submitFormula(0, g));
        ASSERT_TRUE(host.submitRead(0, 0));
        host.pump();

        const auto read = host.reap(0);
        ASSERT_TRUE(read);
        EXPECT_EQ(read->status, nvme::kUnrecoveredReadError);
        for (int k = 0; k < 2; ++k) {
            const auto c = host.reap(0);
            ASSERT_TRUE(c);
            EXPECT_EQ(c->status, nvme::kUnrecoveredReadError)
                << modeName(mode) << " formula " << k;
            EXPECT_TRUE(c->pages.empty());
        }
        const auto after = host.reap(0);
        ASSERT_TRUE(after);
        EXPECT_TRUE(after->ok()) << modeName(mode);

        // And a formula over written data still computes.
        nvme::Formula h;
        h.terms.push_back(nvme::Formula::Term{
            nvme::OperandRef::logical(0, 1), nvme::OperandRef::logical(1, 1),
            flash::BitwiseOp::kXor});
        ASSERT_TRUE(host.submitFormula(0, h));
        host.pump();
        const auto ok = host.reap(0);
        ASSERT_TRUE(ok);
        EXPECT_TRUE(ok->ok()) << modeName(mode);
        ASSERT_EQ(ok->pages.size(), 1u);
        EXPECT_EQ(ok->pages[0], x[0] ^ x[1]);
    }
}

TEST(HostInterface, FailedChainStepCompletesAsReadError)
{
    // A three-operand formula whose first step reads a never-written
    // LPN completes 0x281 without computing on the missing result, and
    // the device keeps serving formulas.
    for (const Mode mode :
         {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree}) {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        std::vector<std::vector<BitVector>> ops;
        for (const nvme::Lpn l : {0, 10, 20}) {
            ops.push_back(pages(dev.ssd().config(), 1, 70 + l));
            dev.writeDataLsbOnly(l, ops.back());
        }
        HostInterface host(dev, 1, 32, mode);
        ASSERT_TRUE(host.submitFormula(
            0, nvme::Formula::chain(flash::BitwiseOp::kAnd, {0, 50, 10}, 1)));
        ASSERT_TRUE(host.submitFormula(
            0, nvme::Formula::chain(flash::BitwiseOp::kOr, {0, 10, 20}, 1)));
        host.pump();

        const auto failed = host.reap(0);
        ASSERT_TRUE(failed);
        EXPECT_EQ(failed->status, nvme::kUnrecoveredReadError)
            << modeName(mode);
        EXPECT_TRUE(failed->pages.empty());
        const auto ok = host.reap(0);
        ASSERT_TRUE(ok);
        EXPECT_TRUE(ok->ok()) << modeName(mode);
        ASSERT_EQ(ok->pages.size(), 1u);
        EXPECT_EQ(ok->pages[0], ops[0][0] | ops[1][0] | ops[2][0]);
    }
}

TEST(HostInterface, LbaPastHostCapacityCompletesOutOfRange)
{
    // The LPNs above host capacity belong to the controller's scratch
    // copies: a read, write or formula naming one is refused with an
    // NVMe status, charges no health, and the device keeps serving.
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.health.enabled = true;
    ParaBitDevice dev(cfg);
    const nvme::Lpn cap = dev.ssd().ftl().logicalPages();
    const auto x = pages(cfg, 2, 41);
    dev.writeData(0, x);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    ASSERT_TRUE(host.submitRead(0, cap));
    ASSERT_TRUE(host.submitWrite(0, cap));
    ASSERT_TRUE(host.submitWrite(0, cap - 1)); // the top host LPN is fine
    nvme::Formula second; // second operand range crosses capacity
    second.terms.push_back(nvme::Formula::Term{
        nvme::OperandRef::logical(0, 2), nvme::OperandRef::logical(cap - 1, 2),
        flash::BitwiseOp::kAnd});
    ASSERT_TRUE(host.submitFormula(0, second));
    nvme::Formula first; // first operand starts past capacity
    first.terms.push_back(nvme::Formula::Term{
        nvme::OperandRef::logical(cap, 2), nvme::OperandRef::logical(0, 2),
        flash::BitwiseOp::kOr});
    ASSERT_TRUE(host.submitFormula(0, first));
    host.pump();

    const std::uint16_t want[] = {nvme::kLbaOutOfRange, nvme::kLbaOutOfRange,
                                  nvme::kSuccess, nvme::kLbaOutOfRange,
                                  nvme::kLbaOutOfRange};
    for (const std::uint16_t status : want) {
        const auto c = host.reap(0);
        ASSERT_TRUE(c);
        EXPECT_EQ(c->status, status) << nvme::statusName(c->status);
        EXPECT_TRUE(c->pages.empty());
    }
    EXPECT_FALSE(dev.ssd().ftl().lookup(cap).has_value());
    EXPECT_EQ(dev.ssd().health()->pressure(), 0.0);
    EXPECT_EQ(dev.ssd().health()->state(), ssd::HealthState::kHealthy);

    nvme::Formula ok;
    ok.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                           nvme::OperandRef::logical(1, 1),
                                           flash::BitwiseOp::kXor});
    ASSERT_TRUE(host.submitFormula(0, ok));
    host.pump();
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_TRUE(c->ok());
    ASSERT_EQ(c->pages.size(), 1u);
    EXPECT_EQ(c->pages[0], x[0] ^ x[1]);
}

/** tiny + RAIN + health, with a scrub too slow to repair anything in
 *  the background before the reads below. */
ssd::SsdConfig
rainHealthConfig()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromMs(1000);
    cfg.rain.enabled = true;
    cfg.health.enabled = true;
    return cfg;
}

ssd::PlaneIndex
planeOf(ParaBitDevice &dev, nvme::Lpn lpn)
{
    const auto a = dev.ssd().ftl().lookup(lpn);
    EXPECT_TRUE(a.has_value());
    return ssd::planeIndex(dev.ssd().geometry(),
                           {a->channel, a->chip, a->die, a->plane});
}

TEST(HostInterface, DeadPlaneReadIsRebuiltFromRainParity)
{
    // A plain read of a mapped page on a dead die is repaired from RAIN
    // parity, as a formula operand is: it completes clean, and health
    // takes the rebuild's charge but not an uncorrectable page's.
    ParaBitDevice dev(rainHealthConfig());
    const auto x = pages(dev.ssd().config(), 8, 43);
    dev.writeData(0, x);
    ssd::FaultSpec die;
    die.cls = ssd::FaultClass::kDieFail;
    die.plane = planeOf(dev, 3);
    dev.ssd().injectFault(die);
    ASSERT_FALSE(dev.ssd().ftl().pageAccessible(3));

    HostInterface host(dev, 1, 32);
    const double before = dev.ssd().health()->pressure();
    ASSERT_TRUE(host.submitRead(0, 3));
    EXPECT_EQ(host.pump(), 1u);
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->status, nvme::kSuccess);
    EXPECT_TRUE(dev.ssd().ftl().pageAccessible(3));
    EXPECT_EQ(dev.readData(3, 1).at(0), x[3]);
    EXPECT_LT(dev.ssd().health()->pressure() - before,
              ssd::DeviceHealth::kWeightUncorrectable);
}

TEST(HostInterface, DeadPlaneReadChargesHealthOnlyWhenRebuildFails)
{
    // Both dies of a channel dead: the stripe has no survivor, the read
    // is a media error, and only then is health charged for it.
    ParaBitDevice dev(rainHealthConfig());
    dev.writeData(0, pages(dev.ssd().config(), 64, 44));
    for (const ssd::PlaneIndex p : {0u, 2u}) {
        ssd::FaultSpec die;
        die.cls = ssd::FaultClass::kDieFail;
        die.plane = p;
        dev.ssd().injectFault(die);
    }
    std::optional<nvme::Lpn> lost;
    for (nvme::Lpn l = 0; l < 64 && !lost; ++l) {
        const auto a = dev.ssd().ftl().lookup(l);
        if (!dev.ssd().planeAlive(*a) && !dev.ssd().rain()->rebuildPage(*a))
            lost = l;
    }
    ASSERT_TRUE(lost.has_value());

    HostInterface host(dev, 1, 32);
    const double before = dev.ssd().health()->pressure();
    ASSERT_TRUE(host.submitRead(0, *lost));
    EXPECT_EQ(host.pump(), 1u);
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->status, nvme::kUnrecoveredReadError);
    EXPECT_GE(dev.ssd().health()->pressure() - before,
              ssd::DeviceHealth::kWeightUncorrectable);
}

TEST(HostInterface, TimeoutAbortsThenRequeuedAttemptCompletes)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 31);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 8);
    RetryPolicy p;
    p.commandTimeout = 1; // 1 ps: the first attempt always times out
    host.setRetryPolicy(p);
    ASSERT_TRUE(host.submitRead(0, 0));
    EXPECT_EQ(host.pump(), 2u) << "abort plus the requeued attempt";

    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_EQ(c1->status, nvme::kCommandAborted);
    EXPECT_EQ(c1->latency, Tick{1}) << "aborts complete at the deadline";
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_TRUE(c2->ok()) << "the second attempt runs to completion";
    EXPECT_EQ(host.timeouts(), 1u);
    EXPECT_EQ(host.requeues(), 1u);
}

TEST(HostInterface, FormulaTimeoutRequeuesWholeGroup)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 32);
    const auto y = pages(dev.ssd().config(), 1, 33);
    dev.writeData(0, x);
    dev.writeData(10, y);

    HostInterface host(dev, 1, 16, Mode::kReAllocate);
    RetryPolicy p;
    p.commandTimeout = 1;
    host.setRetryPolicy(p);
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kOr});
    ASSERT_TRUE(host.submitFormula(0, f));
    host.pump();

    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_EQ(c1->status, nvme::kCommandAborted);
    EXPECT_TRUE(c1->pages.empty());
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_TRUE(c2->ok());
    ASSERT_EQ(c2->pages.size(), 1u);
    EXPECT_EQ(c2->pages[0], x[0] | y[0]);
    EXPECT_EQ(host.requeues(), 1u);
}

TEST(HostInterface, RetryBudgetAllowsTwoAbortsThenTerminalCompletion)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 41);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 8);
    RetryPolicy p;
    p.commandTimeout = 1; // 1 ps: every timed attempt misses
    p.maxRequeues = 2;
    host.setRetryPolicy(p);
    ASSERT_TRUE(host.submitRead(0, 0));
    EXPECT_EQ(host.pump(), 3u) << "two aborts plus the terminal attempt";

    const auto c1 = host.reap(0);
    ASSERT_TRUE(c1);
    EXPECT_EQ(c1->status, nvme::kCommandAborted);
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c2);
    EXPECT_EQ(c2->status, nvme::kCommandAborted);
    const auto c3 = host.reap(0);
    ASSERT_TRUE(c3);
    EXPECT_TRUE(c3->ok()) << "the attempt after the last requeue runs "
                             "to completion";
    EXPECT_FALSE(host.reap(0).has_value()) << "no ghost completions";
    EXPECT_EQ(host.timeouts(), 2u);
    EXPECT_EQ(host.requeues(), 2u);
}

TEST(HostInterface, ZeroRequeueBudgetRunsFirstAttemptToCompletion)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 1, 42);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 8);
    RetryPolicy p;
    p.commandTimeout = 1;
    p.maxRequeues = 0; // watchdog armed but never allowed to requeue
    host.setRetryPolicy(p);
    ASSERT_TRUE(host.submitRead(0, 0));
    EXPECT_EQ(host.pump(), 1u);
    const auto c = host.reap(0);
    ASSERT_TRUE(c);
    EXPECT_TRUE(c->ok());
    EXPECT_EQ(host.timeouts(), 0u);
    EXPECT_EQ(host.requeues(), 0u);
}

TEST(HostInterface, BackoffRequeueIsDeterministicAndNeverUnderflows)
{
    const auto run = [] {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        dev.writeMeta(0, 2);
        HostInterface host(dev, 1, 8);
        RetryPolicy p;
        p.commandTimeout = 1;
        p.maxRequeues = 2;
        p.backoffBase = flash::kDefaultRequeueBackoff;
        p.jitterSeed = 0xC0FFEE;
        host.setRetryPolicy(p);
        EXPECT_TRUE(host.submitRead(0, 0));
        EXPECT_TRUE(host.submitRead(0, 1));
        host.pump();
        std::vector<Tick> latencies;
        while (const auto c = host.reap(0)) {
            // A backed-off resubmission carries a future submission
            // time; its completion must never precede it.
            EXPECT_LE(c->latency, ticks::fromMs(100));
            latencies.push_back(c->latency);
        }
        EXPECT_EQ(latencies.size(), 6u) << "2 aborts + terminal, each";
        return latencies;
    };
    EXPECT_EQ(run(), run()) << "seeded jitter must replay identically";
}

TEST(HostInterface, AbortWhileArrayPhaseBookedKeepsSchedInvariants)
{
    // The watchdog aborts commands whose array-phase transactions are
    // already booked on the scheduler; the booking record must stay
    // consistent (the abort is host-side bookkeeping, not a revocation
    // of device work).
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.sched.traceEnabled = true;
    ParaBitDevice dev(cfg);
    const auto d = pages(dev.ssd().config(), 4, 43);
    dev.writeData(0, d);

    HostInterface host(dev, 1, 16);
    RetryPolicy p;
    p.commandTimeout = 1;
    host.setRetryPolicy(p);
    for (nvme::Lpn l = 0; l < 4; ++l)
        ASSERT_TRUE(host.submitRead(0, l));
    ASSERT_TRUE(host.submitWrite(0, 1));
    host.pump();
    std::size_t reaped = 0;
    for (; host.reap(0); ++reaped)
        ;
    EXPECT_EQ(reaped, 10u) << "5 aborts + 5 completed requeued attempts";

    InvariantReport r;
    ASSERT_TRUE(dev.ssd().invariantRegistry().runSuite("sched", r));
    EXPECT_TRUE(r.ok()) << r.describe();
}

TEST(HostInterface, QueueDepthAddsLatency)
{
    // Two reads targeting the same page serialise on the same plane;
    // the second command's completion must show queueing delay.
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    cfg.geometry.channels = 1;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.planesPerDie = 1;
    ParaBitDevice dev(cfg);
    dev.writeMeta(0, 1);
    HostInterface host(dev, 1, 8);
    ASSERT_TRUE(host.submitRead(0, 0));
    ASSERT_TRUE(host.submitRead(0, 0));
    host.pump();
    const auto c1 = host.reap(0);
    const auto c2 = host.reap(0);
    ASSERT_TRUE(c1 && c2);
    EXPECT_GT(c2->latency, c1->latency)
        << "the queued command must wait for the first";
}

TEST(HostInterface, MixedIoAndComputeInterleave)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 6);
    const auto y = pages(dev.ssd().config(), 1, 7);
    dev.writeData(0, x);
    dev.writeData(10, y);
    dev.writeData(20, x);

    HostInterface host(dev, 1, 32, Mode::kReAllocate);
    ASSERT_TRUE(host.submitRead(0, 20));
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kOr});
    ASSERT_TRUE(host.submitFormula(0, f));
    ASSERT_TRUE(host.submitRead(0, 20));
    EXPECT_EQ(host.pump(), 3u);

    // Completions arrive in order: read, formula, read.
    const auto c1 = host.reap(0);
    const auto c2 = host.reap(0);
    const auto c3 = host.reap(0);
    ASSERT_TRUE(c1 && c2 && c3);
    EXPECT_TRUE(c1->pages.empty());
    ASSERT_EQ(c2->pages.size(), 1u);
    EXPECT_EQ(c2->pages[0], x[0] | y[0]);
    EXPECT_TRUE(c3->pages.empty());
}

} // namespace
} // namespace parabit::core
