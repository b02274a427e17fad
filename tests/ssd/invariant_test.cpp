/**
 * @file
 * Whole-device invariant layer: clean audits over a mixed workload,
 * negative tests proving each corruption fires the matching violation
 * ID, the PARABIT_CHECK fatal path, and the cadence hook.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitvector.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

SsdConfig
auditedConfig()
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(2);
    cfg.media.scrubWordlinesPerPass = 64;
    cfg.rain.enabled = true;
    cfg.sched.traceEnabled = true;
    cfg.health.enabled = true;
    return cfg;
}

std::vector<BitVector>
seededPages(const SsdConfig &cfg, Lpn count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> ref;
    for (Lpn l = 0; l < count; ++l) {
        BitVector d(cfg.geometry.pageBits());
        for (std::size_t i = 0; i < d.size(); ++i)
            d.set(i, rng.chance(0.5));
        ref.push_back(std::move(d));
    }
    return ref;
}

Tick
mixedWorkload(SsdDevice &dev, const std::vector<BitVector> &ref)
{
    std::vector<const BitVector *> batch;
    for (const BitVector &d : ref)
        batch.push_back(&d);
    Tick t = dev.writePages(0, batch, 0);
    // Overwrites invalidate pages; reads book sensing traffic; trim
    // drops a mapping — together the audits see every lifecycle edge.
    t = dev.writePages(0, {batch.begin(), batch.begin() + ref.size() / 2},
                       t);
    t = dev.readPages(0, ref.size(), nullptr, t);
    dev.ftl().trim(ref.size() - 1);
    return t;
}

TEST(Invariants, CleanAuditAfterMixedWorkload)
{
    SsdConfig cfg = auditedConfig();
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 48, 0xBEEF));
    const InvariantReport r = dev.auditInvariants();
    EXPECT_TRUE(r.ok()) << r.describe();
    EXPECT_EQ(r.suitesRun, 5u); // ftl, sched, rain, media, health
    EXPECT_GT(r.checksRun, 0u);
}

TEST(Invariants, RegistryListsDeviceSuites)
{
    SsdConfig cfg = auditedConfig();
    SsdDevice dev(cfg);
    const std::vector<std::string> names = dev.invariantRegistry().names();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "ftl");
    EXPECT_EQ(names[1], "sched");
    EXPECT_EQ(names[2], "rain");
    EXPECT_EQ(names[3], "media");
    EXPECT_EQ(names[4], "health");

    // Without RAIN or health the suites are simply absent, not stubs.
    SsdConfig plain = SsdConfig::tiny();
    SsdDevice small(plain);
    EXPECT_EQ(small.invariantRegistry().names(),
              (std::vector<std::string>{"ftl", "sched", "media"}));
}

TEST(Invariants, FtlMapCorruptionFiresBijectionId)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0; // corrupt state must survive to
    SsdDevice dev(cfg);               // the explicit audit below
    mixedWorkload(dev, seededPages(cfg, 32, 0xF71));
    ASSERT_TRUE(dev.ftl().debugCorruptMapping(3));
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("ftl", r));
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("ftl.map.bijection")) << r.describe();
}

TEST(Invariants, HostTaggedInternalPageFiresHostIsolationId)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 16, 0x150));
    // A ParaBit copy on internal LPNs is what the range is for...
    const Lpn internal = dev.ftl().logicalPages();
    const auto pair = seededPages(cfg, 2, 0x151);
    std::vector<PhysOp> ops;
    ASSERT_TRUE(dev.ftl().writePair(internal, internal + 1, &pair[0],
                                    &pair[1], ops));
    InvariantReport clean;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("ftl", clean));
    EXPECT_TRUE(clean.ok()) << clean.describe();
    // ...host data there is internal machinery leaking into host space.
    ASSERT_TRUE(dev.ftl().debugWriteHostTagged(internal + 2));
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("ftl", r));
    EXPECT_TRUE(r.has("ftl.host_isolation")) << r.describe();
    EXPECT_FALSE(r.has("ftl.map.bijection")) << r.describe();
    EXPECT_FALSE(r.has("ftl.map.oob")) << r.describe();
}

TEST(Invariants, GcMovesAnInternalCopyWithItsParabitTag)
{
    // A live scratch copy whose block GC collects keeps its ParaBit tag
    // at the new location; a kGcRelocated tag there would make it look
    // like host data.
    SsdConfig cfg = SsdConfig::tiny();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    Ftl &ftl = dev.ftl();
    const Lpn internal = ftl.logicalPages();
    std::vector<PhysOp> ops;
    ASSERT_TRUE(ftl.writePair(internal, internal + 1, nullptr, nullptr, ops,
                              0));
    const flash::PhysPageAddr before = *ftl.lookup(internal);
    // Fill the rest of its block with host pairs, then trim them: the
    // copy is the block's only valid data, so it is GC's first victim.
    Lpn next = 0;
    for (std::uint32_t wl = 1; wl < cfg.geometry.wordlinesPerBlock; ++wl) {
        ASSERT_TRUE(ftl.writePair(next, next + 1, nullptr, nullptr, ops, 0));
        next += 2;
    }
    for (Lpn l = 0; l < next; ++l)
        ASSERT_TRUE(ftl.trim(l));
    while (ftl.gcRuns() == 0 && next < ftl.logicalPages() - 1) {
        ASSERT_TRUE(ftl.writePair(next, next + 1, nullptr, nullptr, ops, 0));
        next += 2;
    }
    const auto after = ftl.lookup(internal);
    ASSERT_TRUE(after.has_value());
    ASSERT_NE(after->block, before.block) << "GC should have moved it";
    const flash::ChipPageAddr ca{after->die, after->plane, after->block,
                                 after->wordline, after->msb};
    EXPECT_EQ(dev.chipAt(after->channel, after->chip).pageOob(ca)->tag,
              static_cast<std::uint8_t>(OobTag::kParabitPair));
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("ftl", r));
    EXPECT_TRUE(r.ok()) << r.describe();
}

TEST(Invariants, SchedBookingCorruptionFiresExclusivityId)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 16, 0x5C4E));
    ASSERT_TRUE(dev.scheduler().debugCorruptTraceForAudit());
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("sched", r));
    EXPECT_TRUE(r.has("sched.booking.exclusivity")) << r.describe();
}

TEST(Invariants, RainParityCorruptionFiresStripeXorId)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 16, 0x4A1));
    ASSERT_NE(dev.rain(), nullptr);
    ASSERT_TRUE(dev.rain()->debugCorruptParity());
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("rain", r));
    EXPECT_TRUE(r.has("rain.parity.stripe_xor")) << r.describe();
}

TEST(Invariants, HealthPressureCorruptionFiresBudgetRangeId)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 16, 0x8EA1));
    ASSERT_NE(dev.health(), nullptr);
    ASSERT_TRUE(dev.health()->debugCorruptPressure());
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("health", r));
    EXPECT_TRUE(r.has("health.budget.range")) << r.describe();
}

TEST(Invariants, HealthForgedPowerLostTransitionFiresPowerlostId)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 16, 0x8EA2));
    ASSERT_NE(dev.health(), nullptr);
    ASSERT_TRUE(dev.health()->debugForgeTransitionWhilePowerLost());
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("health", r));
    EXPECT_TRUE(r.has("health.transition.powerlost")) << r.describe();
}

TEST(Invariants, HealthReadOnlyAdmitCorruptionFiresWritesId)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 16, 0x8EA3));
    ASSERT_NE(dev.health(), nullptr);
    ASSERT_TRUE(dev.health()->debugCorruptReadOnlyAdmit());
    InvariantReport r;
    ASSERT_TRUE(dev.invariantRegistry().runSuite("health", r));
    EXPECT_TRUE(r.has("health.readonly.writes")) << r.describe();
}

TEST(Invariants, CorruptionSurfacesOnDeviceAudit)
{
    SsdConfig cfg = auditedConfig();
    cfg.invariants.auditInterval = 0;
    SsdDevice dev(cfg);
    mixedWorkload(dev, seededPages(cfg, 16, 0xD00D));
    ASSERT_TRUE(dev.ftl().debugCorruptMapping(1));
    // Capture the structured violation dump the device emits.
    std::vector<std::string> lines;
    LogSink prev = setLogSink(
        [&](LogLevel, const std::string &m) { lines.push_back(m); });
    const InvariantReport r = dev.auditInvariants();
    setLogSink(prev);
    EXPECT_FALSE(r.ok());
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines.front().find("ftl.map.bijection"), std::string::npos)
        << lines.front();
}

TEST(Invariants, CadenceAuditPanicsOnCorruptState)
{
    EXPECT_DEATH(
        {
            SsdConfig cfg = auditedConfig();
            cfg.invariants.auditInterval = 1; // audit every drain
            SsdDevice dev(cfg);
            const auto ref = seededPages(cfg, 8, 0xDEAD);
            std::vector<const BitVector *> batch;
            for (const BitVector &d : ref)
                batch.push_back(&d);
            dev.writePages(0, batch, 0);
            dev.ftl().debugCorruptMapping(0);
            dev.readPages(0, 1, nullptr, ticks::fromUs(100));
        },
        "invariant audit failed");
}

TEST(Invariants, CheckMacroPanicsWithContext)
{
    BitVector v(8);
    EXPECT_DEATH((void)v.get(9), "BitVector::get");
}

} // namespace
} // namespace parabit::ssd
