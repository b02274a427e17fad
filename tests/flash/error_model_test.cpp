/**
 * @file
 * Error-model tests: calibration anchor, exponential growth, injection
 * statistics (the basis of the Fig 17 reproduction).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "flash/error_model.hpp"

namespace parabit::flash {
namespace {

TEST(ErrorModel, IdealInjectsNothing)
{
    ErrorModel em(ErrorModelConfig::ideal());
    EXPECT_FALSE(em.enabled());
    EXPECT_EQ(em.rberPerSense(5000), 0.0);
    Rng rng(1);
    BitVector so(65536, true);
    EXPECT_EQ(em.inject(so, 5000, rng), 0);
    EXPECT_EQ(so.popcount(), so.size());
}

TEST(ErrorModel, AnchorMatchesPaperFig17)
{
    // At 5K P/E, 7 sensings over a 65536-bit wordline must average
    // 0.945 *observed* output errors; with the measured propagation
    // survival of 0.404, the raw injected-flip mean is 0.945 / 0.404.
    ErrorModel em;
    const double rber = em.rberPerSense(5000);
    EXPECT_NEAR(rber * 0.404 * 7 * 65536, 0.945, 1e-9);
}

TEST(ErrorModel, GrowsExponentiallyWithPe)
{
    ErrorModel em;
    const double r0 = em.rberPerSense(0);
    const double r5k = em.rberPerSense(5000);
    EXPECT_NEAR(r5k / r0, 10.0, 1e-6); // one decade over life (default)
    // Midpoint: half a decade.
    EXPECT_NEAR(em.rberPerSense(2500) / r0, std::sqrt(10.0), 1e-6);
}

TEST(ErrorModel, InjectionMeanMatchesRate)
{
    ErrorModel em;
    Rng rng(42);
    const int trials = 4000;
    std::int64_t flips = 0;
    for (int t = 0; t < trials; ++t) {
        BitVector so(65536, false);
        flips += em.inject(so, 5000, rng);
    }
    // Expected flips per injection: 65536 * rber(5000)
    // = 0.945 / (0.404 * 7) = 0.334.
    const double mean = static_cast<double>(flips) / trials;
    EXPECT_NEAR(mean, 0.945 / (0.404 * 7.0), 0.03);
}

TEST(ErrorModel, InjectionActuallyFlipsBits)
{
    ErrorModelConfig cfg;
    cfg.observedErrorsAtRef =
        0.01 * kPropagationSurvival * kRefSensings * cfg.wordlineBits;
    cfg.refPeCycles = 100;
    ErrorModel em(cfg);
    Rng rng(7);
    BitVector so(10000, false);
    const int flips = em.inject(so, 100, rng);
    EXPECT_GT(flips, 0);
    // Colliding flip positions toggle a bit back, so the surviving
    // count is bounded by (and shares parity with) the flip count.
    EXPECT_LE(so.popcount(), static_cast<std::size_t>(flips));
    EXPECT_GT(so.popcount(), 0u);
    EXPECT_EQ(so.popcount() % 2, static_cast<std::size_t>(flips) % 2);
}

TEST(ErrorModel, MoreCyclingMeansMoreErrors)
{
    ErrorModel em;
    Rng rng(11);
    auto total = [&](std::uint32_t pe) {
        std::int64_t sum = 0;
        for (int t = 0; t < 3000; ++t) {
            BitVector so(65536, false);
            sum += em.inject(so, pe, rng);
        }
        return sum;
    };
    EXPECT_LT(total(500), total(5000));
}

} // namespace
} // namespace parabit::flash
