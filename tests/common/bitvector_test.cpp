/**
 * @file
 * Unit tests for BitVector.
 */

#include <gtest/gtest.h>

#include "common/bitvector.hpp"
#include "common/rng.hpp"

namespace parabit {
namespace {

TEST(BitVector, DefaultIsEmpty)
{
    BitVector v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ConstructFilled)
{
    BitVector z(100, false);
    BitVector o(100, true);
    EXPECT_EQ(z.popcount(), 0u);
    EXPECT_EQ(o.popcount(), 100u);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_FALSE(z.get(i));
        EXPECT_TRUE(o.get(i));
    }
}

TEST(BitVector, TailMaskedAfterFill)
{
    // 70 bits spans two words; the upper 58 bits of word 1 must stay 0.
    BitVector v(70, true);
    EXPECT_EQ(v.popcount(), 70u);
    EXPECT_EQ(v.words()[1], (std::uint64_t{1} << 6) - 1);
}

TEST(BitVector, SetGet)
{
    BitVector v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 3u);
    v.set(64, false);
    EXPECT_FALSE(v.get(64));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, FromStringAndToString)
{
    const std::string s = "0110100111";
    BitVector v = BitVector::fromString(s);
    EXPECT_EQ(v.size(), s.size());
    EXPECT_EQ(v.toString(), s);
    EXPECT_EQ(v.popcount(), 6u);
}

TEST(BitVector, FromStringRejectsBadChars)
{
    EXPECT_THROW(BitVector::fromString("01x"), std::invalid_argument);
}

TEST(BitVector, BitwiseOperators)
{
    BitVector a = BitVector::fromString("1100");
    BitVector b = BitVector::fromString("1010");
    EXPECT_EQ((a & b).toString(), "1000");
    EXPECT_EQ((a | b).toString(), "1110");
    EXPECT_EQ((a ^ b).toString(), "0110");
    EXPECT_EQ((~a).toString(), "0011");
}

TEST(BitVector, InvertKeepsTailInvariant)
{
    BitVector v(65);
    v.invert();
    EXPECT_EQ(v.popcount(), 65u);
    v.invert();
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, SliceAndAssign)
{
    BitVector v = BitVector::fromString("110101101");
    BitVector s = v.slice(2, 5);
    EXPECT_EQ(s.toString(), "01011");
    BitVector w(9);
    w.assign(2, s);
    EXPECT_EQ(w.toString(), "000101100");
}

TEST(BitVector, ResizePreservesPrefixAndZeroesNewBits)
{
    BitVector v = BitVector::fromString("1111");
    v.resize(8);
    EXPECT_EQ(v.toString(), "11110000");
    v.resize(2);
    EXPECT_EQ(v.toString(), "11");
    // Growing again after shrink must not resurrect stale bits.
    v.resize(6);
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, EqualityRespectsSizeAndContent)
{
    BitVector a(10, true), b(10, true), c(11, true);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    b.set(3, false);
    EXPECT_NE(a, b);
}

TEST(BitVector, DeMorganPropertyOnRandomData)
{
    Rng rng(123);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + rng.below(500);
        BitVector a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a.set(i, rng.chance(0.5));
            b.set(i, rng.chance(0.5));
        }
        EXPECT_EQ(~(a & b), (~a | ~b));
        EXPECT_EQ(~(a | b), (~a & ~b));
        EXPECT_EQ((a ^ b), ((a | b) & ~(a & b)));
    }
}

TEST(BitVector, PopcountMatchesNaiveOnRandomData)
{
    Rng rng(321);
    BitVector v(1000);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const bool bit = rng.chance(0.3);
        v.set(i, bit);
        expected += bit;
    }
    EXPECT_EQ(v.popcount(), expected);
}

TEST(BitVector, OddParityMatchesPopcountOnOddWidths)
{
    Rng rng(4242);
    EXPECT_FALSE(BitVector().oddParity());
    for (const std::size_t n : {1u, 7u, 63u, 65u, 127u, 1001u, 65537u}) {
        for (int trial = 0; trial < 8; ++trial) {
            BitVector v(n);
            for (auto &w : v.words())
                w = rng.next();
            v.maskTail();
            EXPECT_EQ(v.oddParity(), (v.popcount() & 1) != 0)
                << "width " << n << " trial " << trial;
            v.set(n / 2, !v.get(n / 2));
            EXPECT_EQ(v.oddParity(), (v.popcount() & 1) != 0)
                << "width " << n << " trial " << trial << " after a flip";
        }
    }
}

} // namespace
} // namespace parabit
