/**
 * @file
 * Chip-level functional tests: program/read round trips, both ParaBit
 * op entry points on stored data, plane isolation, erase counting, and
 * the latch array all chips share.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flash/chip.hpp"
#include "flash/latch_array.hpp"

namespace parabit::flash {
namespace {

FlashGeometry
tinyGeom()
{
    return FlashGeometry::tiny();
}

BitVector
randomPage(const FlashGeometry &g, Rng &rng)
{
    BitVector v(g.pageBits());
    for (std::size_t i = 0; i < v.size(); ++i)
        v.set(i, rng.chance(0.5));
    return v;
}

TEST(Chip, ProgramReadRoundTrip)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(1);
    const BitVector d = randomPage(g, rng);
    const ChipPageAddr a{0, 1, 2, 3, false};
    chip.programPage(a, &d);
    EXPECT_EQ(chip.pageState(a), PageState::kValid);
    EXPECT_EQ(chip.readPage(a), d);
}

TEST(Chip, UnwrittenPageReadsAllOnes)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    const ChipPageAddr a{0, 0, 0, 0, true};
    const BitVector v = chip.readPage(a);
    EXPECT_EQ(v.popcount(), v.size()); // erased
}

TEST(Chip, OpCoLocatedComputesOverWordline)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(2);
    const BitVector x = randomPage(g, rng);
    const BitVector y = randomPage(g, rng);
    const ChipPageAddr lsb{0, 0, 1, 4, false};
    const ChipPageAddr msb{0, 0, 1, 4, true};
    chip.programPage(lsb, &x);
    chip.programPage(msb, &y);

    int errors = -1;
    const BitVector out = chip.opCoLocated(BitwiseOp::kXor, lsb, &errors);
    EXPECT_EQ(out, x ^ y);
    EXPECT_EQ(errors, 0); // ideal error model
}

TEST(Chip, OpLocationFreeAcrossWordlines)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(3);
    const BitVector m = randomPage(g, rng);
    const BitVector n = randomPage(g, rng);
    // M in the MSB page of WL 2, N in the LSB page of WL 5, same plane.
    const ChipPageAddr ma{0, 1, 0, 2, true};
    const ChipPageAddr na{0, 1, 3, 5, false};
    chip.programPage(ma, &m);
    chip.programPage(na, &n);
    const BitVector out =
        chip.opLocationFree(BitwiseOp::kAnd, ma, na);
    EXPECT_EQ(out, m & n);
}

TEST(Chip, OpLocationFreeLsbLsbVariant)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(4);
    const BitVector m = randomPage(g, rng);
    const BitVector n = randomPage(g, rng);
    const ChipPageAddr ma{0, 0, 2, 0, false};
    const ChipPageAddr na{0, 0, 4, 1, false};
    chip.programPage(ma, &m);
    chip.programPage(na, &n);
    const BitVector out = chip.opLocationFree(
        BitwiseOp::kXor, ma, na, nullptr, LocFreeVariant::kLsbLsb);
    EXPECT_EQ(out, m ^ n);
}

TEST(Chip, LocationFreeAcrossPlanesDies)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    const ChipPageAddr ma{0, 0, 0, 0, true};
    const ChipPageAddr na{0, 1, 0, 0, false};
    chip.programPage(ma, nullptr);
    chip.programPage(na, nullptr);
    EXPECT_DEATH(chip.opLocationFree(BitwiseOp::kAnd, ma, na),
                 "share a plane");
}

TEST(Chip, EraseCountTracksPerBlock)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    chip.programPage({0, 0, 3, 0, false}, nullptr);
    chip.eraseBlock(0, 0, 3);
    chip.eraseBlock(0, 0, 3);
    EXPECT_EQ(chip.blockEraseCount(0, 0, 3), 2u);
    EXPECT_EQ(chip.blockEraseCount(0, 0, 2), 0u);
}

TEST(Chip, PlanesAreIsolated)
{
    const FlashGeometry g = tinyGeom();
    Chip chip(g, true);
    Rng rng(5);
    const BitVector d0 = randomPage(g, rng);
    const BitVector d1 = randomPage(g, rng);
    chip.programPage({0, 0, 0, 0, false}, &d0);
    chip.programPage({0, 1, 0, 0, false}, &d1);
    EXPECT_EQ(chip.readPage({0, 0, 0, 0, false}), d0);
    EXPECT_EQ(chip.readPage({0, 1, 0, 0, false}), d1);
}

TEST(Chip, ErrorInjectionReportsBitErrors)
{
    const FlashGeometry g = tinyGeom();
    // Extremely aggressive error model so flips are certain.
    ErrorModelConfig ec;
    ec.observedErrorsAtRef =
        0.05 * kPropagationSurvival * kRefSensings * ec.wordlineBits;
    ec.refPeCycles = 1.0;
    ec.decadesOverLife = 0.0; // flat: same rate at 0 P/E
    Chip chip(g, true, ec, 99);
    const BitVector x(g.pageBits(), true);
    const BitVector y(g.pageBits(), true);
    chip.programPage({0, 0, 0, 0, false}, &x);
    chip.programPage({0, 0, 0, 0, true}, &y);
    int errors = 0;
    chip.opCoLocated(BitwiseOp::kXor, {0, 0, 0, 0, false}, &errors);
    EXPECT_GT(errors, 0);
}

/**
 * What Chip::runOp computes, with a fresh LatchArray per call: the
 * error model draws from its own copy of the chip's RNG, and the clean
 * re-run that counts bit errors gets another fresh array.
 */
struct PerCallReference
{
    std::size_t width;
    ErrorModel errors;
    Rng rng;

    BitVector
    run(const MicroProgram &prog, const WordlineData &self,
        const WordlineData &wl_m, const WordlineData &wl_n,
        std::uint32_t pe, int &bit_errors)
    {
        LatchArray noisy(width);
        if (!errors.enabled()) {
            noisy.execute(prog, self, wl_m, wl_n);
            bit_errors = 0;
            return noisy.out();
        }
        noisy.execute(prog, self, wl_m, wl_n, [&](BitVector &so, int) {
            errors.inject(so, pe, rng);
        });
        LatchArray clean(width);
        clean.execute(prog, self, wl_m, wl_n);
        bit_errors =
            static_cast<int>((noisy.out() ^ clean.out()).popcount());
        return noisy.out();
    }
};

TEST(Chip, SharedLatchArrayMatchesPerCallReference)
{
    // Two chips of different page widths (512 and 800 bitlines; 800 is
    // not a whole number of words) interleave all three op entry points
    // across their planes, so the shared array is reused and re-sized
    // between calls.  Results and bit_errors must match the reference,
    // with the error model off and on.
    ErrorModelConfig noisy_cfg;
    noisy_cfg.observedErrorsAtRef = 0.01 * kPropagationSurvival *
                                    kRefSensings * noisy_cfg.wordlineBits;
    noisy_cfg.refPeCycles = 1.0;
    noisy_cfg.decadesOverLife = 0.0;
    FlashGeometry odd = tinyGeom();
    odd.pageBytes = 100;

    for (const ErrorModelConfig &ec :
         {ErrorModelConfig::ideal(), noisy_cfg}) {
        const FlashGeometry geoms[] = {tinyGeom(), odd};
        std::vector<Chip> chips;
        std::vector<PerCallReference> refs;
        chips.reserve(2);
        Rng data_rng(6);
        for (std::uint64_t c = 0; c < 2; ++c) {
            const FlashGeometry &g = geoms[c];
            chips.emplace_back(g, true, ec, 40 + c);
            refs.push_back({g.pageBits(), ErrorModel(ec), Rng(40 + c)});
            for (std::uint32_t p = 0; p < g.planesPerDie; ++p) {
                for (std::uint32_t wl = 0; wl < 3; ++wl) {
                    for (const bool msb : {false, true}) {
                        const BitVector d = randomPage(g, data_rng);
                        chips[c].programPage({0, p, 0, wl, msb}, &d);
                    }
                }
            }
        }

        int total_errors = 0;
        for (int i = 0; i < 96; ++i) {
            Chip &chip = chips[static_cast<std::size_t>(i % 2)];
            PerCallReference &ref = refs[static_cast<std::size_t>(i % 2)];
            const std::uint32_t p =
                static_cast<std::uint32_t>(i / 2) % chip.geometry().planesPerDie;
            const auto op = static_cast<BitwiseOp>((i / 3) % kNumBitwiseOps);
            const Block &blk = chip.plane(0, p).block(0);
            const std::uint32_t pe = blk.eraseCount();
            int got_errors = -1;
            int want_errors = -2;
            BitVector got, want;
            switch (i % 3) {
              case 0:
                got = chip.opCoLocated(op, {0, p, 0, 0, false}, &got_errors);
                want = ref.run(coLocatedProgram(op), blk.wordlineData(0),
                               {}, {}, pe, want_errors);
                break;
              case 1: {
                const auto variant = (i / 3) % 2 == 0
                                         ? LocFreeVariant::kMsbLsb
                                         : LocFreeVariant::kLsbLsb;
                const bool m_msb = variant == LocFreeVariant::kMsbLsb;
                got = chip.opLocationFree(op, {0, p, 0, 1, m_msb},
                                          {0, p, 0, 2, false}, &got_errors,
                                          variant);
                want = ref.run(locationFreeProgram(op, variant), {},
                               blk.wordlineData(1), blk.wordlineData(2), pe,
                               want_errors);
                break;
              }
              default: {
                const BitVector buf = randomPage(chip.geometry(), data_rng);
                got = chip.opBufferedOperand(op, buf, {0, p, 0, 2, false},
                                             &got_errors);
                want = ref.run(
                    locationFreeProgram(op, LocFreeVariant::kLsbLsb), {},
                    WordlineData{&buf, nullptr}, blk.wordlineData(2), pe,
                    want_errors);
                break;
              }
            }
            EXPECT_EQ(got, want) << "call " << i;
            EXPECT_EQ(got_errors, want_errors) << "call " << i;
            total_errors += got_errors;
        }
        EXPECT_EQ(total_errors > 0, ec.observedErrorsAtRef > 0.0);
    }
}

} // namespace
} // namespace parabit::flash
