/**
 * @file
 * End-to-end controller tests on a functional tiny device: every op in
 * every execution mode must produce the host-golden result, chains must
 * fold correctly, and the instrumentation (senses, programs, realloc
 * bytes) must match the mode's expected behaviour.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nvme/parser.hpp"
#include "parabit/device.hpp"

namespace parabit::core {
namespace {

std::vector<BitVector>
randomPages(const ssd::SsdConfig &cfg, std::uint32_t n, Rng &rng)
{
    std::vector<BitVector> pages;
    for (std::uint32_t p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (std::size_t i = 0; i < v.size(); ++i)
            v.set(i, rng.chance(0.5));
        pages.push_back(std::move(v));
    }
    return pages;
}

BitVector
goldenOp(flash::BitwiseOp op, const BitVector &x, const BitVector &y)
{
    BitVector out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out.set(i, flash::opGolden(op, x.get(i), y.get(i)));
    return out;
}

class ControllerModeOpTest
    : public ::testing::TestWithParam<std::tuple<flash::BitwiseOp, Mode>>
{
};

TEST_P(ControllerModeOpTest, BinaryOpMatchesGolden)
{
    const auto [op, mode] = GetParam();
    if (flash::isUnary(op))
        GTEST_SKIP() << "unary ops covered separately";

    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(static_cast<std::uint64_t>(op) * 10 +
            static_cast<std::uint64_t>(mode));
    const std::uint32_t pages = 3;
    const auto xs = randomPages(dev.ssd().config(), pages, rng);
    const auto ys = randomPages(dev.ssd().config(), pages, rng);

    // Layout per mode: pre-allocated pairs for kPreAllocated; LSB-only
    // for location-free (both-LSB variant); arbitrary placement for
    // ReAlloc.
    if (mode == Mode::kPreAllocated) {
        dev.writeOperandPair(0, 100, xs, ys);
    } else if (mode == Mode::kLocationFree) {
        dev.writeDataLsbOnly(0, xs);
        dev.writeDataLsbOnly(100, ys);
    } else {
        dev.writeData(0, xs);
        dev.writeData(100, ys);
    }

    const ExecResult r = dev.bitwise(op, 0, 100, pages, mode);
    ASSERT_EQ(r.pages.size(), pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
        // Operand roles: X is the LSB operand, Y the MSB operand in
        // co-located mode.  Both roles commute for these ops.
        EXPECT_EQ(r.pages[p], goldenOp(op, xs[p], ys[p]))
            << opName(op) << " mode " << modeName(mode) << " page " << p;
    }
    EXPECT_GT(r.stats.senseOps, 0u);
    EXPECT_GT(r.stats.elapsed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAllModes, ControllerModeOpTest,
    ::testing::Combine(
        ::testing::Values(flash::BitwiseOp::kAnd, flash::BitwiseOp::kOr,
                          flash::BitwiseOp::kXnor, flash::BitwiseOp::kNand,
                          flash::BitwiseOp::kNor, flash::BitwiseOp::kXor),
        ::testing::Values(Mode::kPreAllocated, Mode::kReAllocate,
                          Mode::kLocationFree)),
    [](const auto &info) {
        std::string n = flash::opName(std::get<0>(info.param));
        for (auto &c : n)
            if (c == '-')
                c = '_';
        switch (std::get<1>(info.param)) {
          case Mode::kPreAllocated: n += "_Pre"; break;
          case Mode::kReAllocate: n += "_ReAlloc"; break;
          case Mode::kLocationFree: n += "_LocFree"; break;
        }
        return n;
    });

TEST(Controller, NotOpAllModes)
{
    // X lands on the LSB and Y on the MSB page of shared wordlines.  The
    // controller picks NOT-LSB or NOT-MSB from where each page is
    // sensed, so both invert exactly in every mode.
    for (Mode mode :
         {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree}) {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        Rng rng(55);
        const auto xs = randomPages(dev.ssd().config(), 2, rng);
        const auto ys = randomPages(dev.ssd().config(), 2, rng);
        dev.writeOperandPair(0, 100, xs, ys);
        for (const auto &[lpn, operand] :
             {std::pair<nvme::Lpn, const std::vector<BitVector> *>{0, &xs},
              {100, &ys}}) {
            const ExecResult r = dev.bitwiseNot(lpn, 2, mode);
            EXPECT_EQ(r.status, ExecStatus::kOk) << modeName(mode);
            ASSERT_EQ(r.pages.size(), 2u);
            for (std::size_t p = 0; p < 2; ++p)
                EXPECT_EQ(r.pages[p], ~(*operand)[p])
                    << modeName(mode) << " LPN " << lpn << " page " << p;
            if (mode == Mode::kReAllocate) {
                EXPECT_GT(r.stats.reallocBytes, 0u)
                    << "the paper charges NOT a reallocation in ReAlloc mode";
            } else {
                EXPECT_EQ(r.stats.reallocBytes, 0u);
            }
        }
    }
}

TEST(Controller, NotSenseCountFollowsPlacement)
{
    // Timing-only: NOT-LSB is one SRO and NOT-MSB two.  ReAlloc senses
    // its LSB-only copy, so an MSB-resident operand costs one there.
    for (Mode mode :
         {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree}) {
        ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
        cfg.storeData = false;
        ParaBitDevice dev(cfg);
        dev.writeMetaOperandPair(0, 100, 4);
        EXPECT_EQ(dev.bitwiseNot(0, 4, mode).stats.senseOps, 4u)
            << modeName(mode);
        EXPECT_EQ(dev.bitwiseNot(100, 4, mode).stats.senseOps,
                  mode == Mode::kReAllocate ? 4u : 8u)
            << modeName(mode);
    }
}

TEST(Controller, LocationFreeStagesWhenBothOperandsAreMsbPages)
{
    // No location-free variant senses two MSB pages, so one operand is
    // copied onto an LSB page of the same plane first.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(78);
    const auto pg = randomPages(dev.ssd().config(), 4, rng);
    std::vector<ssd::PhysOp> ops;
    ASSERT_TRUE(dev.ssd().ftl().writePair(0, 100, &pg[0], &pg[1], ops, 0));
    ASSERT_TRUE(dev.ssd().ftl().writePair(200, 300, &pg[2], &pg[3], ops, 0));
    dev.ssd().scheduleOps(ops, dev.now());

    const ExecResult r = dev.bitwise(flash::BitwiseOp::kXor, 100, 300, 1,
                                     Mode::kLocationFree);
    EXPECT_EQ(r.status, ExecStatus::kOk);
    ASSERT_EQ(r.pages.size(), 1u);
    EXPECT_EQ(r.pages[0], pg[1] ^ pg[3]);
    EXPECT_EQ(r.stats.pagePrograms, 1u);
}

TEST(Controller, LocationFreeChainOntoMsbOperandIsExact)
{
    // The buffered running result plays an LSB page; a next operand on
    // an MSB page is copied onto an LSB page before it is sensed.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(80);
    const auto xs = randomPages(dev.ssd().config(), 2, rng);
    const auto ys = randomPages(dev.ssd().config(), 2, rng);
    const auto zs = randomPages(dev.ssd().config(), 2, rng);
    const auto ws = randomPages(dev.ssd().config(), 2, rng);
    dev.writeOperandPair(0, 100, xs, ys);
    dev.writeOperandPair(200, 300, zs, ws);
    const ExecResult r = dev.bitwiseChain(flash::BitwiseOp::kAnd,
                                          {0, 200, 300}, 2,
                                          Mode::kLocationFree);
    EXPECT_EQ(r.status, ExecStatus::kOk);
    ASSERT_EQ(r.pages.size(), 2u);
    for (std::size_t p = 0; p < 2; ++p)
        EXPECT_EQ(r.pages[p], xs[p] & zs[p] & ws[p]) << "page " << p;
}

TEST(Controller, OpOfAnOperandWithItselfIsExact)
{
    // "x op x" names one page twice; its wordline's other page must not
    // stand in for the second operand.
    for (Mode mode :
         {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree}) {
        ParaBitDevice dev(ssd::SsdConfig::tiny());
        Rng rng(79);
        const auto xs = randomPages(dev.ssd().config(), 2, rng);
        const auto ys = randomPages(dev.ssd().config(), 2, rng);
        dev.writeOperandPair(0, 100, xs, ys);
        for (const nvme::Lpn lpn : {nvme::Lpn{0}, nvme::Lpn{100}}) {
            const auto &src = lpn == 0 ? xs : ys;
            const ExecResult r =
                dev.bitwise(flash::BitwiseOp::kAnd, lpn, lpn, 2, mode);
            EXPECT_EQ(r.status, ExecStatus::kOk);
            ASSERT_EQ(r.pages.size(), 2u);
            for (std::size_t p = 0; p < 2; ++p)
                EXPECT_EQ(r.pages[p], src[p])
                    << modeName(mode) << " LPN " << lpn << " page " << p;
        }
    }
}

TEST(Controller, PreAllocatedPairNeedsNoRealloc)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(1);
    const auto xs = randomPages(dev.ssd().config(), 2, rng);
    const auto ys = randomPages(dev.ssd().config(), 2, rng);
    dev.writeOperandPair(0, 100, xs, ys);
    const ExecResult r =
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 2, Mode::kPreAllocated);
    EXPECT_EQ(r.stats.reallocBytes, 0u);
    EXPECT_EQ(r.stats.pagePrograms, 0u);
    EXPECT_EQ(r.stats.pageReads, 0u);
}

TEST(Controller, ReAllocateAlwaysPaysTwoProgramsPerPage)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(2);
    const std::uint32_t pages = 4;
    const auto xs = randomPages(dev.ssd().config(), pages, rng);
    const auto ys = randomPages(dev.ssd().config(), pages, rng);
    dev.writeData(0, xs);
    dev.writeData(100, ys);
    const ExecResult r =
        dev.bitwise(flash::BitwiseOp::kOr, 0, 100, pages, Mode::kReAllocate);
    EXPECT_EQ(r.stats.pagePrograms, 2u * pages);
    EXPECT_EQ(r.stats.pageReads, 2u * pages);
    EXPECT_EQ(r.stats.reallocBytes,
              2u * pages * dev.ssd().config().geometry.pageBytes);
}

TEST(Controller, LocationFreeNeedsNoProgramsWhenSamePlane)
{
    // Both operands pinned to one plane (shared bitlines): the
    // location-free op must be sense-only — no staging, no programs.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(3);
    const auto xs = randomPages(dev.ssd().config(), 1, rng);
    const auto ys = randomPages(dev.ssd().config(), 1, rng);
    dev.writeDataLsbOnlyInPlane(0, xs, 0);
    dev.writeDataLsbOnlyInPlane(100, ys, 0);
    const auto ax = dev.ssd().ftl().lookup(0);
    const auto ay = dev.ssd().ftl().lookup(100);
    ASSERT_TRUE(ax && ay);
    ASSERT_TRUE(ax->sameBitlines(*ay));
    const ExecResult r =
        dev.bitwise(flash::BitwiseOp::kXor, 0, 100, 1, Mode::kLocationFree);
    EXPECT_EQ(r.pages[0], xs[0] ^ ys[0]);
    EXPECT_EQ(r.stats.pagePrograms, 0u);
    EXPECT_EQ(r.stats.reallocBytes, 0u);
}

TEST(Controller, ChainFoldsLeftAcrossOperands)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(4);
    const std::uint32_t pages = 2;
    std::vector<std::vector<BitVector>> operands;
    std::vector<nvme::Lpn> lpns;
    for (int k = 0; k < 4; ++k) {
        operands.push_back(randomPages(dev.ssd().config(), pages, rng));
        const nvme::Lpn lpn = 100 * static_cast<nvme::Lpn>(k);
        // LSB-only layout so chained results can drop into free MSBs.
        dev.writeDataLsbOnly(lpn, operands.back());
        lpns.push_back(lpn);
    }
    const ExecResult r = dev.bitwiseChain(flash::BitwiseOp::kAnd, lpns, pages,
                                          Mode::kPreAllocated);
    ASSERT_EQ(r.pages.size(), pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
        BitVector expect = operands[0][p];
        for (int k = 1; k < 4; ++k)
            expect &= operands[static_cast<std::size_t>(k)][p];
        EXPECT_EQ(r.pages[p], expect) << "page " << p;
    }
}

TEST(Controller, ChainInPreAllocatedUsesSingleProgramSteps)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(5);
    const std::uint32_t pages = 1;
    std::vector<nvme::Lpn> lpns;
    for (int k = 0; k < 3; ++k) {
        const nvme::Lpn lpn = 10 * static_cast<nvme::Lpn>(k);
        dev.writeDataLsbOnly(lpn, randomPages(dev.ssd().config(), pages, rng));
        lpns.push_back(lpn);
    }
    const ExecResult r = dev.bitwiseChain(flash::BitwiseOp::kOr, lpns, pages,
                                          Mode::kPreAllocated);
    // First op: operands in different wordlines (LSB-only layout), so X
    // is read once and dropped into Y's free MSB (one program); the
    // chain step programs the buffered result likewise — never the
    // 2-programs-per-op of full reallocation, and never re-reading the
    // running result.
    EXPECT_LE(r.stats.pagePrograms, 2u);
    EXPECT_LE(r.stats.pageReads, 1u) << "chain result stays in the buffer";
}

TEST(Controller, ChainLocationFreeIsSenseOnly)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(6);
    std::vector<nvme::Lpn> lpns;
    std::vector<std::vector<BitVector>> operands;
    for (int k = 0; k < 3; ++k) {
        const nvme::Lpn lpn = 10 * static_cast<nvme::Lpn>(k);
        operands.push_back(randomPages(dev.ssd().config(), 1, rng));
        dev.writeDataLsbOnly(lpn, operands.back());
        lpns.push_back(lpn);
    }
    const ExecResult r = dev.bitwiseChain(flash::BitwiseOp::kXor, lpns, 1,
                                          Mode::kLocationFree);
    BitVector expect = operands[0][0] ^ operands[1][0] ^ operands[2][0];
    ASSERT_EQ(r.pages.size(), 1u);
    EXPECT_EQ(r.pages[0], expect);
}

TEST(Controller, StatsElapsedGrowsWithWork)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(7);
    const auto xs = randomPages(dev.ssd().config(), 4, rng);
    const auto ys = randomPages(dev.ssd().config(), 4, rng);
    dev.writeData(0, xs);
    dev.writeData(100, ys);
    const ExecResult one =
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1, Mode::kReAllocate);
    const ExecResult four =
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 4, Mode::kReAllocate);
    EXPECT_GT(four.stats.elapsed(), 0u);
    EXPECT_GE(four.stats.senseOps, 4 * one.stats.senseOps);
}

TEST(Controller, ResultWritebackPersistsInFlash)
{
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    Rng rng(8);
    const auto xs = randomPages(dev.ssd().config(), 1, rng);
    const auto ys = randomPages(dev.ssd().config(), 1, rng);
    dev.writeData(0, xs);
    dev.writeData(10, ys);
    const nvme::Formula f =
        nvme::Formula::chain(flash::BitwiseOp::kXor, {0, 10}, 1);
    nvme::CmdParser parser(dev.ssd().geometry().pageBytes);
    const ExecResult r = dev.controller().executeBatches(
        parser.buildBatches(f), Mode::kReAllocate, dev.now(), true, 500);
    EXPECT_EQ(r.pages[0], xs[0] ^ ys[0]);
    EXPECT_EQ(dev.readData(500, 1)[0], xs[0] ^ ys[0]);
}

} // namespace
} // namespace parabit::core
