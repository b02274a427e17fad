/**
 * @file
 * Unit tests for statistics accumulators.
 */

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace parabit {
namespace {

TEST(ScalarStat, EmptyIsSafe)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(ScalarStat, TracksMoments)
{
    ScalarStat s;
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 15.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(ScalarStat, ResetClears)
{
    ScalarStat s;
    s.sample(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    s.sample(-3.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(Histogram, BucketsValues)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(h.bucketCount(b), 1u);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, UnderAndOverflow)
{
    Histogram h(0.0, 1.0, 4);
    h.sample(-0.1);
    h.sample(1.0); // hi edge counts as overflow ([lo, hi) semantics)
    h.sample(2.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BucketEdges)
{
    Histogram h(0.0, 4.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(3), 3.0);
    h.sample(0.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(Histogram, BucketLoWithNegativeRange)
{
    Histogram h(-2.0, 2.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), -2.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(2), 0.0);
    h.sample(-1.5);
    EXPECT_EQ(h.bucketCount(0), 1u);
    h.sample(1.99);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, SummaryFormatting)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_EQ(h.summary(), "hist[0,10) n=0");
    h.sample(5.0);
    EXPECT_EQ(h.summary(), "hist[0,10) n=1");
    h.sample(-1.0);
    h.sample(10.0);
    h.sample(11.0);
    EXPECT_EQ(h.summary(), "hist[0,10) n=4 under=1 over=2");
}

TEST(Histogram, ResetPreservesLayout)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0);
    h.sample(3.0);
    h.sample(42.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    for (std::size_t b = 0; b < h.buckets(); ++b)
        EXPECT_EQ(h.bucketCount(b), 0u);
    // Layout survives: same bucket edges, sampling works again.
    EXPECT_DOUBLE_EQ(h.bucketLo(2), 4.0);
    h.sample(3.0);
    EXPECT_EQ(h.bucketCount(1), 1u);
}

} // namespace
} // namespace parabit
