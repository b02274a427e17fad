/**
 * @file
 * Vectorized latch-array tests: whole-page execution must agree with the
 * host golden functions on random data, for every op in both modes, and
 * the noise hook must inject exactly where sensing happens.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flash/latch_array.hpp"

namespace parabit::flash {
namespace {

BitVector
randomBits(std::size_t n, Rng &rng)
{
    BitVector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v.set(i, rng.chance(0.5));
    return v;
}

BitVector
golden(BitwiseOp op, const BitVector &lsb, const BitVector &msb)
{
    BitVector out(lsb.size());
    for (std::size_t i = 0; i < lsb.size(); ++i)
        out.set(i, opGolden(op, lsb.get(i), msb.get(i)));
    return out;
}

class LatchArrayOpTest : public ::testing::TestWithParam<BitwiseOp>
{
};

TEST_P(LatchArrayOpTest, CoLocatedMatchesGoldenOnRandomPages)
{
    const BitwiseOp op = GetParam();
    Rng rng(1000 + static_cast<std::uint64_t>(op));
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 64 + rng.below(512);
        const BitVector x = randomBits(n, rng); // LSB operand
        const BitVector y = randomBits(n, rng); // MSB operand
        EXPECT_EQ(executeCoLocated(op, x, y), golden(op, x, y))
            << opName(op) << " trial " << trial;
    }
}

TEST_P(LatchArrayOpTest, LocationFreeMatchesGoldenBothVariants)
{
    const BitwiseOp op = GetParam();
    Rng rng(2000 + static_cast<std::uint64_t>(op));
    for (auto variant :
         {LocFreeVariant::kMsbLsb, LocFreeVariant::kLsbLsb}) {
        const std::size_t n = 256;
        const BitVector m = randomBits(n, rng);
        const BitVector nn = randomBits(n, rng);
        const BitVector junk1 = randomBits(n, rng);
        const BitVector junk2 = randomBits(n, rng);
        // Golden convention: N plays the LSB role, M the MSB role.
        const BitVector expect = golden(op, nn, m);
        EXPECT_EQ(executeLocationFree(op, m, nn, &junk1, &junk2, {}, variant),
                  expect)
            << opName(op) << " variant "
            << (variant == LocFreeVariant::kMsbLsb ? "MsbLsb" : "LsbLsb");
    }
}

TEST_P(LatchArrayOpTest, CompanionDataDoesNotLeakIntoResult)
{
    const BitwiseOp op = GetParam();
    Rng rng(3000 + static_cast<std::uint64_t>(op));
    const std::size_t n = 128;
    const BitVector m = randomBits(n, rng);
    const BitVector nn = randomBits(n, rng);
    const BitVector junk_a = randomBits(n, rng);
    const BitVector junk_b = randomBits(n, rng);
    const BitVector r1 = executeLocationFree(op, m, nn, &junk_a, &junk_a);
    const BitVector r2 = executeLocationFree(op, m, nn, &junk_b, &junk_b);
    const BitVector r3 = executeLocationFree(op, m, nn, nullptr, nullptr);
    EXPECT_EQ(r1, r2) << opName(op);
    EXPECT_EQ(r1, r3) << opName(op);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, LatchArrayOpTest,
    ::testing::Values(BitwiseOp::kAnd, BitwiseOp::kOr, BitwiseOp::kXnor,
                      BitwiseOp::kNand, BitwiseOp::kNor, BitwiseOp::kXor,
                      BitwiseOp::kNotLsb, BitwiseOp::kNotMsb),
    [](const auto &info) {
        std::string n = opName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(LatchArray, NoiseHookSeesEverySensing)
{
    const BitVector x(64, true), y(64, false);
    int senses = 0;
    SenseNoiseHook hook = [&](BitVector &, int idx) {
        ++senses;
        EXPECT_EQ(idx, senses);
    };
    LatchArray la(64);
    la.execute(coLocatedProgram(BitwiseOp::kXor), WordlineData{&x, &y}, {},
               {}, hook);
    EXPECT_EQ(senses, coLocatedProgram(BitwiseOp::kXor).senseCount());
}

TEST(LatchArray, InjectedSoFlipCorruptsExactlyThatBitline)
{
    // Flip SO bit 5 during the single AND sensing: only output bit 5
    // may differ from golden.
    const std::size_t n = 64;
    const BitVector x(n, true), y(n, true); // all cells in state E
    SenseNoiseHook hook = [](BitVector &so, int) {
        so.set(5, !so.get(5));
    };
    const BitVector noisy = executeCoLocated(BitwiseOp::kAnd, x, y, hook);
    const BitVector clean = executeCoLocated(BitwiseOp::kAnd, x, y);
    const BitVector diff = noisy ^ clean;
    EXPECT_EQ(diff.popcount(), 1u);
    EXPECT_TRUE(diff.get(5));
}

TEST(LatchArray, WidthMismatchPanics)
{
    // The kernel reads whole words of every sensed page, so a page of
    // another width must panic in every build, not read out of bounds.
    LatchArray la(512);
    const BitVector page(512, true), narrow(448, true), empty;
    EXPECT_DEATH(la.execute(coLocatedProgram(BitwiseOp::kAnd),
                            WordlineData{&page, &narrow}),
                 "448 bits on a 512-bitline array");
    // An empty intermediate page fed to a chain step (perfbench known
    // failure 4) stays a panic.
    EXPECT_DEATH(la.execute(coLocatedProgram(BitwiseOp::kXor),
                            WordlineData{&empty, &page}),
                 "0 bits on a 512-bitline array");
    EXPECT_DEATH(la.execute(locationFreeProgram(BitwiseOp::kOr,
                                                LocFreeVariant::kMsbLsb),
                            {}, WordlineData{nullptr, &page},
                            WordlineData{&narrow, nullptr}),
                 "448 bits on a 512-bitline array");
}

/** Bits past width() in the last word of every node must stay zero. */
void
expectTailsZero(const LatchArray &la, const std::string &what)
{
    const std::size_t used = la.width() % 64;
    if (used == 0)
        return;
    const std::uint64_t tail = ~std::uint64_t{0} << used;
    const BitVector *nodes[] = {&la.so(), &la.a(), &la.c(), &la.b(),
                                &la.out()};
    for (const BitVector *node : nodes)
        EXPECT_EQ(node->words().back() & tail, 0u) << what;
}

TEST(LatchArray, ReusedArrayMatchesFreshOnOddWidths)
{
    // One array runs every co-located and location-free program back to
    // back, as a chip's shared scratch array does; each result must
    // equal a fresh array's and the golden function's.
    Rng rng(4000);
    for (const std::size_t n : {1u, 63u, 65u, 200u, 517u}) {
        LatchArray shared(n);
        for (int k = 0; k < kNumBitwiseOps; ++k) {
            const auto op = static_cast<BitwiseOp>(k);
            const BitVector x = randomBits(n, rng);
            const BitVector y = randomBits(n, rng);
            const std::string what =
                std::string(opName(op)) + " width " + std::to_string(n);

            shared.execute(coLocatedProgram(op), WordlineData{&x, &y});
            EXPECT_EQ(shared.out(), executeCoLocated(op, x, y)) << what;
            EXPECT_EQ(shared.out(), golden(op, x, y)) << what;
            expectTailsZero(shared, what + " co-located");

            const BitVector junk = randomBits(n, rng);
            for (auto variant :
                 {LocFreeVariant::kMsbLsb, LocFreeVariant::kLsbLsb}) {
                const bool m_in_msb = variant == LocFreeVariant::kMsbLsb;
                // Null companions read as erased pages; the M wordline
                // gets a random companion, the N wordline none.
                const WordlineData wl_m{m_in_msb ? &junk : &y,
                                        m_in_msb ? &y : &junk};
                const WordlineData wl_n{&x, nullptr};
                shared.execute(locationFreeProgram(op, variant), {}, wl_m,
                               wl_n);
                EXPECT_EQ(shared.out(),
                          executeLocationFree(op, y, x, &junk, nullptr, {},
                                              variant))
                    << what;
                EXPECT_EQ(shared.out(), golden(op, x, y)) << what;
                expectTailsZero(shared, what + " location-free");
            }
        }
    }
}

TEST(LatchArray, ChainedExecutionsReuseCircuit)
{
    // Run two different programs back-to-back on one array; the second
    // result must be independent of the first (init resets state).
    Rng rng(77);
    const std::size_t n = 128;
    const BitVector x = randomBits(n, rng);
    const BitVector y = randomBits(n, rng);
    LatchArray la(n);
    la.execute(coLocatedProgram(BitwiseOp::kXor), WordlineData{&x, &y});
    la.execute(coLocatedProgram(BitwiseOp::kAnd), WordlineData{&x, &y});
    EXPECT_EQ(la.out(), golden(BitwiseOp::kAnd, x, y));
}

} // namespace
} // namespace parabit::flash
