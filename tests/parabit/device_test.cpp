/**
 * @file
 * ParaBitDevice public-API tests: placement helpers, the device clock,
 * metadata-only mode, and misuse handling.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nvme/parser.hpp"
#include "parabit/device.hpp"

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

TEST(ParaBitDevice, ClockAdvancesMonotonically)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    EXPECT_EQ(dev.now(), 0u);
    const auto d = pages(dev.ssd().config(), 2, 1);
    dev.writeData(0, d);
    const Tick t1 = dev.now();
    EXPECT_GT(t1, 0u);
    dev.readData(0, 2);
    const Tick t2 = dev.now();
    EXPECT_GT(t2, t1);
    dev.writeData(10, d);
    EXPECT_GT(dev.now(), t2);
}

TEST(ParaBitDevice, WriteReadRoundTrip)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 3, 2);
    dev.writeData(5, d);
    const auto back = dev.readData(5, 3);
    ASSERT_EQ(back.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(back[static_cast<std::size_t>(i)],
                  d[static_cast<std::size_t>(i)]);
}

TEST(ParaBitDevice, OperandPairIsCoLocated)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 2, 3);
    const auto y = pages(dev.ssd().config(), 2, 4);
    dev.writeOperandPair(0, 100, x, y);
    for (int i = 0; i < 2; ++i) {
        const auto ax = dev.ssd().ftl().lookup(static_cast<nvme::Lpn>(i));
        const auto ay =
            dev.ssd().ftl().lookup(100 + static_cast<nvme::Lpn>(i));
        ASSERT_TRUE(ax && ay);
        EXPECT_TRUE(ax->sameWordline(*ay)) << "page " << i;
        EXPECT_FALSE(ax->msb);
        EXPECT_TRUE(ay->msb);
    }
}

TEST(ParaBitDevice, LsbOnlyInPlanePinsThePlane)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 3, 5);
    dev.writeDataLsbOnlyInPlane(0, d, 2);
    const auto g = dev.ssd().geometry();
    for (int i = 0; i < 3; ++i) {
        const auto a = dev.ssd().ftl().lookup(static_cast<nvme::Lpn>(i));
        ASSERT_TRUE(a);
        EXPECT_FALSE(a->msb);
        EXPECT_EQ(ssd::planeIndex(g, {a->channel, a->chip, a->die,
                                      a->plane}),
                  2u)
            << "page " << i;
    }
}

TEST(ParaBitDevice, MetaModeComputesTimingWithoutData)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    ParaBitDevice dev(cfg);
    dev.writeMetaOperandPair(0, 100, 4);
    const auto r = dev.bitwise(flash::BitwiseOp::kXor, 0, 100, 4,
                               Mode::kPreAllocated);
    EXPECT_TRUE(r.pages.empty()) << "no payloads in timing mode";
    EXPECT_GT(r.stats.senseOps, 0u);
    EXPECT_GT(r.stats.elapsed(), 0u);
}

TEST(ParaBitDevice, MismatchedPairSizesDie)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 2, 6);
    const auto y = pages(dev.ssd().config(), 3, 7);
    EXPECT_DEATH(dev.writeOperandPair(0, 100, x, y), "sizes differ");
}

TEST(ParaBitDevice, UnmappedOperandIsDataLoss)
{
    // A never-written operand has no data to compute on: the page is
    // withheld under a typed error, as a read of that LPN would be.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 8);
    dev.writeData(0, x);
    for (const auto &[a, b] : {std::pair<nvme::Lpn, nvme::Lpn>{0, 999},
                               {999, 0}}) {
        const ExecResult r =
            dev.bitwise(flash::BitwiseOp::kAnd, a, b, 1, Mode::kReAllocate);
        EXPECT_EQ(r.status, ExecStatus::kDataLoss);
        ASSERT_EQ(r.pages.size(), 1u);
        EXPECT_TRUE(r.pages[0].empty());
    }
    const ExecResult n = dev.bitwiseNot(999, 1, Mode::kPreAllocated);
    EXPECT_EQ(n.status, ExecStatus::kDataLoss);
    const ExecResult ok = dev.bitwiseNot(0, 1, Mode::kPreAllocated);
    EXPECT_EQ(ok.status, ExecStatus::kOk);
    EXPECT_EQ(ok.pages.at(0), ~x[0]);
}

TEST(ParaBitDevice, FailedChainStepEndsTheChainAsDataLoss)
{
    // Page 0 of the second operand was never written: that step fails,
    // and every later step of page 0 ends with its input's status
    // instead of computing on an empty page.  Page 1 computes.  The
    // write-back skips the failed page, and the device keeps serving.
    for (const Mode mode :
         {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree}) {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        const auto a = pages(dev.ssd().config(), 2, 61);
        const auto b = pages(dev.ssd().config(), 1, 62);
        const auto c = pages(dev.ssd().config(), 2, 63);
        const auto d = pages(dev.ssd().config(), 2, 64);
        const auto old = pages(dev.ssd().config(), 2, 65);
        dev.writeDataLsbOnly(0, a);
        dev.writeDataLsbOnly(51, b); // LPN 50 stays unwritten
        dev.writeDataLsbOnly(10, c);
        dev.writeDataLsbOnly(20, d);
        dev.writeData(300, old);

        const ExecResult r = dev.bitwiseChain(
            flash::BitwiseOp::kAnd, {0, 50, 10, 20}, 2, mode, true, 300);
        EXPECT_EQ(r.status, ExecStatus::kDataLoss) << modeName(mode);
        ASSERT_EQ(r.pages.size(), 2u);
        EXPECT_TRUE(r.pages[0].empty());
        EXPECT_EQ(r.pages[1], a[1] & b[0] & c[1] & d[1]);
        EXPECT_EQ(dev.readData(300, 2),
                  (std::vector<BitVector>{old[0], r.pages[1]}))
            << modeName(mode);

        const ExecResult next =
            dev.bitwiseChain(flash::BitwiseOp::kXor, {0, 10, 20}, 2, mode);
        ASSERT_EQ(next.status, ExecStatus::kOk) << modeName(mode);
        EXPECT_EQ(next.pages,
                  (std::vector<BitVector>{a[0] ^ c[0] ^ d[0],
                                          a[1] ^ c[1] ^ d[1]}));
    }
}

TEST(ParaBitDevice, ResultWriteBackPastHostCapacityIsRefused)
{
    // A result range reaching an internal LPN is refused before anything
    // runs; one ending at the top host LPN is written back.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const nvme::Lpn cap = dev.ssd().ftl().logicalPages();
    const auto x = pages(dev.ssd().config(), 2, 51);
    const auto y = pages(dev.ssd().config(), 2, 52);
    dev.writeData(0, x);
    dev.writeData(10, y);
    const ExecResult out = dev.bitwiseChain(flash::BitwiseOp::kAnd, {0, 10},
                                            2, Mode::kReAllocate, true,
                                            cap - 1);
    EXPECT_EQ(out.status, ExecStatus::kLbaOutOfRange);
    EXPECT_TRUE(out.pages.empty());
    EXPECT_EQ(out.stats.senseOps, 0u);
    EXPECT_FALSE(dev.ssd().ftl().lookup(cap - 1).has_value());

    const ExecResult in = dev.bitwiseChain(flash::BitwiseOp::kAnd, {0, 10},
                                           2, Mode::kReAllocate, true,
                                           cap - 2);
    ASSERT_EQ(in.status, ExecStatus::kOk);
    EXPECT_EQ(dev.readData(cap - 2, 2),
              (std::vector<BitVector>{x[0] & y[0], x[1] & y[1]}));
}

TEST(ParaBitDeviceDeath, PlacementPastHostCapacityDies)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const nvme::Lpn cap = dev.ssd().ftl().logicalPages();
    const auto d = pages(dev.ssd().config(), 2, 53);
    EXPECT_DEATH(dev.writeDataLsbOnly(cap - 1, d), "host capacity");
    EXPECT_DEATH(dev.writeOperandPair(0, cap, {d[0]}, {d[1]}),
                 "host capacity");
    EXPECT_DEATH(dev.writeMetaOperandPair(cap, 0, 1), "host capacity");
}

TEST(ParaBitDevice, ExecuteRunsParsedBatches)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto x = pages(dev.ssd().config(), 1, 9);
    const auto y = pages(dev.ssd().config(), 1, 10);
    dev.writeData(0, x);
    dev.writeData(10, y);

    nvme::CmdParser parser(dev.ssd().geometry().pageBytes);
    nvme::Formula f;
    f.terms.push_back(nvme::Formula::Term{nvme::OperandRef::logical(0, 1),
                                          nvme::OperandRef::logical(10, 1),
                                          flash::BitwiseOp::kNor});
    const auto r = dev.execute(parser.parse(parser.encode(f)),
                               Mode::kReAllocate);
    ASSERT_EQ(r.pages.size(), 1u);
    EXPECT_EQ(r.pages[0], ~(x[0] | y[0]));
}

TEST(ParaBitDevice, TransferFlagControlsResultBytes)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    ParaBitDevice dev(cfg);
    dev.writeMetaOperandPair(0, 100, 1);
    const auto with = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                                  Mode::kPreAllocated, true);
    dev.writeMetaOperandPair(200, 300, 1);
    const auto without = dev.bitwise(flash::BitwiseOp::kAnd, 200, 300, 1,
                                     Mode::kPreAllocated, false);
    EXPECT_GT(with.stats.resultBytes, 0u);
    EXPECT_EQ(without.stats.resultBytes, 0u);
}

} // namespace
} // namespace parabit::core
