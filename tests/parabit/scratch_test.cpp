/**
 * @file
 * ParaBit-ReAlloc scratch copies: they live on internal LPNs above host
 * capacity and are released when their op retires, so host data is
 * never overwritten, long runs stay clean, and a power cut leaves no
 * copy mapped.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
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

/** Count of internal LPNs in [capacity, capacity + @p span) that map. */
int
mappedInternal(ParaBitDevice &dev, nvme::Lpn span)
{
    const nvme::Lpn cap = dev.ssd().ftl().logicalPages();
    int n = 0;
    for (nvme::Lpn l = cap; l < cap + span; ++l)
        n += dev.ssd().ftl().lookup(l).has_value();
    return n;
}

TEST(ReallocScratch, CopiesNeverOverwriteHostPages)
{
    // The old cursor counted down from the top host LPN, so the 27th op
    // or so overwrote LPN 900 of the 952-page tiny device.
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 3, 17);
    dev.writeData(0, {d[0]});
    dev.writeData(100, {d[1]});
    dev.writeData(900, {d[2]});
    for (int i = 0; i < 40; ++i) {
        const ExecResult r = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                                         Mode::kReAllocate);
        ASSERT_EQ(r.status, ExecStatus::kOk) << "op " << i;
        ASSERT_EQ(r.pages.at(0), d[0] & d[1]) << "op " << i;
    }
    EXPECT_EQ(dev.readData(900, 1).at(0), d[2]);
    EXPECT_EQ(dev.readData(0, 1).at(0), d[0]);
    EXPECT_EQ(dev.readData(100, 1).at(0), d[1]);
}

TEST(ReallocScratch, HundredThousandOpsRunCleanOnOneDevice)
{
    // Each op's copies are released when it retires: a tiny device runs
    // any number of ReAlloc ops without filling up, and no copy outlives
    // its op.
    std::uint64_t warnings = 0;
    LogSink previous =
        setLogSink([&warnings](LogLevel level, const std::string &) {
            if (level >= LogLevel::kWarn)
                ++warnings;
        });
    ParaBitDevice dev(ssd::SsdConfig::tiny());
    const auto d = pages(dev.ssd().config(), 2, 23);
    dev.writeData(0, {d[0]});
    dev.writeData(100, {d[1]});
    const BitVector expected = d[0] & d[1];
    int failed = 0;
    int leaked = 0;
    for (int i = 0; i < 100000; ++i) {
        const ExecResult r = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                                         Mode::kReAllocate);
        failed += r.status != ExecStatus::kOk || r.pages.at(0) != expected;
        leaked += mappedInternal(dev, 4);
    }
    setLogSink(std::move(previous));
    EXPECT_EQ(failed, 0);
    EXPECT_EQ(warnings, 0u);
    EXPECT_EQ(leaked, 0);
    EXPECT_GT(dev.ssd().ftl().gcRuns(), 0u) << "the loop should cycle GC";
    EXPECT_TRUE(dev.ssd().auditInvariants().ok());
}

TEST(ReallocScratch, PowerCutMidOpLeavesNoCopyMapped)
{
    // Sweep the cut across the boundaries of a 4-page ReAlloc op, with
    // checkpoints taken while copies are live.
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pageBytes = 128;
    cfg.recovery.enabled = true;
    cfg.recovery.checkpointIntervalPrograms = 3;
    const auto x = pages(cfg, 4, 31);
    const auto y = pages(cfg, 4, 32);
    const auto top = pages(cfg, 1, 33);
    for (std::uint32_t onset = 0; onset < 24; ++onset) {
        ParaBitDevice dev(cfg);
        const nvme::Lpn cap = dev.ssd().ftl().logicalPages();
        dev.writeData(0, x);
        dev.writeData(100, y);
        dev.writeData(cap - 1, top);

        ssd::FaultSpec cut;
        cut.cls = ssd::FaultClass::kPowerLoss;
        cut.onset = onset;
        dev.ssd().injectFault(cut);
        dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 4, Mode::kReAllocate);
        ASSERT_TRUE(dev.ssd().ftl().powerLost()) << "onset " << onset;

        dev.powerCycle();
        EXPECT_EQ(mappedInternal(dev, 64), 0) << "onset " << onset;
        EXPECT_EQ(dev.readData(0, 4), x) << "onset " << onset;
        EXPECT_EQ(dev.readData(100, 4), y) << "onset " << onset;
        EXPECT_EQ(dev.readData(cap - 1, 1), top) << "onset " << onset;
        const InvariantReport audit = dev.ssd().auditInvariants();
        EXPECT_TRUE(audit.ok()) << "onset " << onset << ": "
                                << audit.describe();

        // The device computes again, and releases that op's copies too.
        const ExecResult r = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 4,
                                         Mode::kReAllocate);
        ASSERT_EQ(r.status, ExecStatus::kOk) << "onset " << onset;
        for (int p = 0; p < 4; ++p)
            EXPECT_EQ(r.pages.at(p), x[p] & y[p]) << "onset " << onset;
        EXPECT_EQ(mappedInternal(dev, 64), 0) << "onset " << onset;
    }
}

} // namespace
} // namespace parabit::core
