/**
 * @file
 * Resource-timeline tests: serialisation, back-to-back booking, and the
 * pipeline composition property used by the SSD scheduler.
 */

#include <gtest/gtest.h>

#include "ssd/timeline.hpp"

namespace parabit::ssd {
namespace {

TEST(Timeline, FirstReservationStartsAtEarliest)
{
    Timeline t;
    EXPECT_EQ(t.reserve(100, 50), 100u);
    EXPECT_EQ(t.nextFree(), 150u);
}

TEST(Timeline, SerialisesOverlappingRequests)
{
    Timeline t;
    EXPECT_EQ(t.reserve(0, 100), 0u);
    // Wants to start at 10 but the resource is busy until 100.
    EXPECT_EQ(t.reserve(10, 20), 100u);
    EXPECT_EQ(t.nextFree(), 120u);
}

TEST(Timeline, IdleGapsAreHonoured)
{
    Timeline t;
    t.reserve(0, 10);
    // Ready long after the resource freed: start at ready time.
    EXPECT_EQ(t.reserve(500, 10), 500u);
}

TEST(Timeline, PipelineOfTwoResources)
{
    // Classic cache-read overlap: die sensing (25 us) feeding channel
    // transfers (10 us).  Steady-state throughput must be sensing-bound:
    // the k-th read completes at (k+1)*25 + 10 us.
    Timeline die, channel;
    const Tick sense = 25, xfer = 10;
    Tick last_end = 0;
    for (int k = 0; k < 4; ++k) {
        const Tick s = die.reserve(0, sense);
        const Tick x = channel.reserve(s + sense, xfer);
        last_end = x + xfer;
        EXPECT_EQ(s, static_cast<Tick>(k) * sense);
    }
    EXPECT_EQ(last_end, 4 * sense + xfer);
}

TEST(Timeline, BusyTimeAccumulatesBookedDurations)
{
    Timeline t;
    EXPECT_EQ(t.bookedTicks(), 0u);
    t.reserve(0, 100);
    t.reserve(500, 50); // idle gap 100-500 is not busy time
    EXPECT_EQ(t.bookedTicks(), 150u);
    EXPECT_EQ(t.nextFree(), 550u);
}

} // namespace
} // namespace parabit::ssd
