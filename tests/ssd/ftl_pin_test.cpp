/**
 * @file
 * Pins the FTL's page-moving paths to recorded values.  A seeded stream
 * of host writes (scrambled and raw) and trims, operand pairs, LSB-only
 * placements and chained MSB drops, internal scratch copies, wordline
 * refreshes and page relocations runs on a recovery-enabled device
 * under GC pressure and wear leveling (threshold 4), while injected
 * program and erase failures retire blocks and power cuts force
 * powerCycle().  Every PhysOp the FTL emits (kind, address, GC flag),
 * the final sorted map with each page's OOB tag and scrambling flag,
 * the recovery reports, every ftl.* counter and the warning count must
 * equal the table below: a change to GC, wear leveling, placement or
 * the map that moves any op, page or counter fails here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "ssd/ssd.hpp"

namespace parabit::ssd {
namespace {

/** FNV-1a accumulator. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

std::string
fmt(const char *f, unsigned long long a, unsigned long long b = 0,
    unsigned long long c = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b, c);
    return buf;
}

struct PinCase
{
    const char *name;
    bool onePlane; ///< 1-plane 16-block rig, else the tiny preset
    std::uint64_t seed;
    std::vector<std::string> rows;
};

SsdConfig
pinCfg(bool one_plane)
{
    SsdConfig cfg = SsdConfig::tiny();
    if (one_plane) {
        // One plane keeps GC, wear leveling and the retry walks in a
        // single wear domain.
        cfg.geometry.channels = 1;
        cfg.geometry.chipsPerChannel = 1;
        cfg.geometry.planesPerDie = 1;
        cfg.geometry.blocksPerPlane = 16;
    }
    // 512 B pages: every checkpoint image fits one ping-pong half.
    cfg.geometry.pageBytes = 512;
    cfg.wearLevelThreshold = 4;
    cfg.scrambleHostData = true;
    cfg.recovery.enabled = true;
    cfg.recovery.checkpointIntervalPrograms = 96;
    return cfg;
}

/** What one run of the stream leaves behind, one readable row each. */
std::vector<std::string>
runStream(bool one_plane, std::uint64_t seed)
{
    obs::MetricsRegistry::global().clear();
    obs::MetricsRegistry::global().setEnabled(true);
    std::uint64_t warnings = 0;
    LogSink previous = setLogSink([&warnings](LogLevel l, const std::string &) {
        if (l >= LogLevel::kWarn)
            ++warnings;
    });
    std::vector<std::string> rows;
    {
        const SsdConfig cfg = pinCfg(one_plane);
        const flash::FlashGeometry &g = cfg.geometry;
        SsdDevice dev(cfg);
        Ftl &ftl = dev.ftl();
        const Lpn cap = ftl.logicalPages();
        const Lpn cold_base = 64;
        const Lpn cold_pages = g.pagesPerBlock() * (one_plane ? 4 : 6);
        const PlaneIndex planes = g.planesTotal();
        Rng rng(seed);

        std::uint64_t n_ops = 0;
        Digest ops_digest;
        std::vector<PhysOp> ops;
        const auto flushOps = [&] {
            for (const PhysOp &op : ops) {
                ops_digest.mix(static_cast<std::uint64_t>(op.kind));
                ops_digest.mix(flash::linearPageIndex(g, op.addr));
                ops_digest.mix(op.forGc);
            }
            n_ops += ops.size();
            ops.clear();
        };
        const auto page = [&] {
            BitVector v(g.pageBits());
            for (auto &w : v.words())
                w = rng.next();
            v.maskTail();
            return v;
        };
        const auto maybePlane = [&]() -> std::optional<PlaneIndex> {
            if (rng.below(2) == 0)
                return std::nullopt;
            return static_cast<PlaneIndex>(rng.below(planes));
        };

        std::uint64_t cycles = 0;
        Digest recovery;
        const auto settlePower = [&] {
            if (!ftl.powerLost())
                return;
            const RecoveryReport r = dev.powerCycle();
            ++cycles;
            for (const std::uint64_t v :
                 {r.blocksScanned, r.pagesScanned, r.oobCandidates,
                  r.journalRecords, r.checkpointPagesRead, r.tornWordlines,
                  r.mappingsRebuilt, r.staleInvalidated, r.plpRestored,
                  r.nextSeq})
                recovery.mix(v);
        };

        // Cold data the wear leveler eventually migrates.
        for (Lpn l = cold_base; l < cold_base + cold_pages; ++l) {
            const BitVector d = page();
            ftl.writePage(l, &d, ops);
            flushOps();
        }

        std::optional<std::pair<Lpn, flash::PhysPageAddr>> lsb_only;
        std::vector<Lpn> pairs;
        const std::uint32_t steps = one_plane ? 3000 : 2400;
        for (std::uint32_t step = 0; step < steps; ++step) {
            // Fault phases: program failures on three blocks and an
            // erase failure on a fourth, lifted at 2/5 of the run, then
            // three power cuts.
            if (step == steps / 6 || step == steps / 4) {
                FaultSpec f;
                f.cls = step == steps / 6 ? FaultClass::kProgramFailure
                                          : FaultClass::kEraseFailure;
                f.plane = static_cast<PlaneIndex>(rng.below(planes));
                f.block = static_cast<std::uint32_t>(rng.below(6));
                f.failPeriod = 2;
                dev.injectFault(f);
                f.cls = FaultClass::kProgramFailure;
                f.block = static_cast<std::uint32_t>(6 + rng.below(6));
                f.failPeriod = 3;
                dev.injectFault(f);
            }
            if (step == 2 * steps / 5)
                dev.clearTransientFaults();
            if (step == steps / 2 || step == 3 * steps / 5 ||
                step == 7 * steps / 10) {
                FaultSpec f;
                f.cls = FaultClass::kPowerLoss;
                f.onset = static_cast<std::uint32_t>(5 + rng.below(120));
                dev.injectFault(f);
            }

            const std::uint64_t roll = rng.below(100);
            const Lpn warm = static_cast<Lpn>(rng.below(cold_base));
            const Lpn hot = static_cast<Lpn>(rng.below(8));
            if (roll < 40) {
                const BitVector d = page();
                ftl.writePage(hot, &d, ops);
            } else if (roll < 52) {
                ftl.writePage(warm, nullptr, ops);
            } else if (roll < 62) {
                const BitVector d = page();
                ftl.writePage(warm, &d, ops);
            } else if (roll < 67) {
                ftl.trim(warm, &ops);
            } else if (roll < 71) {
                const Lpn y = static_cast<Lpn>(rng.below(cold_base));
                const BitVector dx = page();
                const BitVector dy = page();
                if (y != warm &&
                    ftl.writePair(warm, y, &dx, &dy, ops, maybePlane())) {
                    pairs.push_back(warm);
                }
            } else if (roll < 75) {
                const BitVector d = page();
                if (const auto a =
                        ftl.writeLsbOnly(warm, &d, ops, maybePlane()))
                    lsb_only = std::make_pair(warm, *a);
            } else if (roll < 78) {
                if (lsb_only && ftl.lookup(lsb_only->first) &&
                    *ftl.lookup(lsb_only->first) == lsb_only->second) {
                    const BitVector d = page();
                    ftl.writeIntoFreeMsb(hot == lsb_only->first ? hot + 8
                                                                : hot,
                                         lsb_only->second, &d, ops);
                    lsb_only.reset();
                }
            } else if (roll < 82) {
                const Lpn internal = cap + rng.below(6);
                const BitVector d = page();
                if (rng.below(2) == 0)
                    ftl.writeLsbOnly(internal, &d, ops, maybePlane());
                else
                    ftl.releaseInternal(internal);
            } else if (roll < 87) {
                const Lpn l = !pairs.empty() && rng.below(2) == 0
                                  ? pairs[rng.below(pairs.size())]
                                  : warm;
                if (const auto a = ftl.lookup(l))
                    ftl.refreshWordline(*a, ops);
            } else if (roll < 90) {
                if (ftl.lookup(warm)) {
                    const BitVector d = ftl.readPage(warm, ops);
                    ftl.relocatePage(warm, &d, ops);
                }
            } else if (roll < 96) {
                if (ftl.lookup(warm))
                    ftl.readPage(warm, ops);
            } else if (roll < 98) {
                const BitVector d = page();
                ftl.writePage(cold_base + rng.below(cold_pages), &d, ops);
            } else {
                ftl.checkpoint(ops);
            }
            flushOps();
            settlePower();
        }

        // The surviving map, with each page's OOB tag and scrambling
        // flag, and the content every host LPN reads back.
        Digest map_digest, data_digest;
        std::uint64_t mapped = 0;
        for (Lpn l = 0; l < cap + 8; ++l) {
            const auto a = ftl.lookup(l);
            if (!a)
                continue;
            ++mapped;
            map_digest.mix(l);
            map_digest.mix(flash::linearPageIndex(g, *a));
            const flash::PageOob *oob = dev.chipAt(a->channel, a->chip)
                                            .pageOob(flash::ChipPageAddr{
                                                a->die, a->plane, a->block,
                                                a->wordline, a->msb});
            map_digest.mix(oob ? oob->tag : 0xff);
            map_digest.mix(oob ? oob->scrambled : 2);
            if (l < cap) {
                const BitVector d = ftl.readPage(l, ops);
                for (const auto w : d.words())
                    data_digest.mix(w);
            }
        }
        flushOps();

        rows.push_back(fmt("ops=%llu digest=%016llx", n_ops, ops_digest.h));
        rows.push_back(fmt("mapped=%llu map=%016llx data=%016llx", mapped,
                           map_digest.h, data_digest.h));
        rows.push_back(fmt("power_cycles=%llu recovery=%016llx warnings=%llu",
                           cycles, recovery.h, warnings));
        for (const auto &[name, v] : obs::MetricsRegistry::global().counters())
            if (name.compare(0, 4, "ftl.") == 0)
                rows.push_back(name + fmt("=%llu", v));
    }
    setLogSink(std::move(previous));
    obs::MetricsRegistry::global().setEnabled(false);
    obs::MetricsRegistry::global().clear();
    return rows;
}

const std::vector<PinCase> &
pinCases()
{
    // clang-format off
    static const std::vector<PinCase> cases = {
        {"OnePlaneSeed1", true, 1,
         {
             "ops=130418 digest=9eda6a895c90c7a0",
             "mapped=123 map=78381ee475d499c5 data=835d151baf2547d8",
             "power_cycles=3 recovery=27753d413e8dcd19 warnings=25",
             "ftl.block_erases=3526",
             "ftl.ckpt.taken=1845",
             "ftl.erase.failures=1",
             "ftl.gc.runs=1929",
             "ftl.journal.records=3735",
             "ftl.log.erases=1844",
             "ftl.pages.gc_written=53477",
             "ftl.pages.host_written=2003",
             "ftl.pages.parabit_written=438",
             "ftl.pages.refresh_written=315",
             "ftl.program.failures=3",
             "ftl.program.retries=8",
             "ftl.wear_level.moves=1602",
         }},
        {"TinySeed7", false, 7,
         {
             "ops=4813 digest=1b596ad13eeafa75",
             "mapped=156 map=b0e23e79cf0560f3 data=f94cff2019748ccc",
             "power_cycles=3 recovery=828401e3e75400b1 warnings=1",
             "ftl.block_erases=180",
             "ftl.ckpt.taken=62",
             "ftl.erase.failures=0",
             "ftl.gc.runs=169",
             "ftl.journal.records=339",
             "ftl.log.erases=118",
             "ftl.pages.gc_written=516",
             "ftl.pages.host_written=1616",
             "ftl.pages.parabit_written=417",
             "ftl.pages.refresh_written=189",
             "ftl.program.failures=1",
             "ftl.program.retries=3",
             "ftl.wear_level.moves=11",
         }},
    };
    // clang-format on
    return cases;
}

class FtlPinTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FtlPinTest, StreamMatchesRecordedValues)
{
    const PinCase &c = pinCases().at(GetParam());
    const std::vector<std::string> got = runStream(c.onePlane, c.seed);
    std::string all;
    for (const std::string &r : got)
        all += "\n\"" + r + "\",";
    ASSERT_EQ(got.size(), c.rows.size()) << all;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], c.rows[i]) << c.name << " row " << i;
}

INSTANTIATE_TEST_SUITE_P(Rigs, FtlPinTest,
                         ::testing::Range<std::size_t>(0, pinCases().size()),
                         [](const auto &info) {
                             return std::string(pinCases().at(info.param).name);
                         });

TEST(FtlPin, StreamReachesEveryPath)
{
    // The pin guards the page-move paths only if the stream drives each
    // of them: GC and wear-level evacuations, refresh and repair
    // relocation, retirements after program and erase failures, the
    // retries they cause, checkpoints and power cycles.
    const std::vector<std::string> rows = runStream(true, 1);
    const auto value = [&rows](const std::string &name) {
        for (const std::string &r : rows)
            if (r.compare(0, name.size() + 1, name + "=") == 0)
                return std::stoull(r.substr(name.size() + 1));
        ADD_FAILURE() << name << " missing";
        return 0ull;
    };
    for (const char *c :
         {"ftl.gc.runs", "ftl.wear_level.moves", "ftl.pages.gc_written",
          "ftl.pages.refresh_written", "ftl.pages.parabit_written",
          "ftl.program.failures", "ftl.erase.failures", "ftl.program.retries",
          "ftl.ckpt.taken", "ftl.journal.records"})
        EXPECT_GT(value(c), 0u) << c;
    EXPECT_EQ(rows.at(2).compare(0, 15, "power_cycles=3 "), 0) << rows.at(2);
}

} // namespace
} // namespace parabit::ssd
