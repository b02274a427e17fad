/**
 * @file
 * Quickstart: create a simulated ParaBit SSD, store two operand
 * vectors, compute AND / XOR / NOT inside the flash array, and inspect
 * the timing/energy instrumentation.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "parabit/device.hpp"

int
main()
{
    using namespace parabit;

    // A small functional device: pages carry real data.
    core::ParaBitDevice dev(ssd::SsdConfig::tiny());
    const std::size_t page_bits = dev.ssd().geometry().pageBits();

    // Two operand pages with a readable pattern.
    BitVector x(page_bits), y(page_bits);
    for (std::size_t i = 0; i < page_bits; ++i) {
        x.set(i, (i / 3) % 2 == 0);
        y.set(i, (i / 5) % 2 == 0);
    }

    // Pre-allocate the operands onto the same wordlines (the paper's
    // pre-computation allocation): the AND then needs a single 25 us
    // sensing, no data movement at all.
    dev.writeOperandPair(/*x_lpn=*/0, /*y_lpn=*/100, {x}, {y});

    int wrong = 0;
    core::ExecResult r = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                                     core::Mode::kPreAllocated);
    wrong += r.pages[0] != (x & y);
    std::printf("AND: %zu result bits, %llu sensings, %.1f us in-flash\n",
                r.pages[0].size(),
                static_cast<unsigned long long>(r.stats.senseOps),
                ticks::toUs(r.stats.elapsed()));
    std::printf("     correct: %s\n",
                r.pages[0] == (x & y) ? "yes" : "NO");

    // Location-free XOR: operands on different wordlines, no
    // reallocation; the extended latch circuit senses across wordlines.
    // Same plane = same bitlines: the location-free requirement.
    dev.writeDataLsbOnlyInPlane(200, {x}, 0);
    dev.writeDataLsbOnlyInPlane(300, {y}, 0);
    r = dev.bitwise(flash::BitwiseOp::kXor, 200, 300, 1,
                    core::Mode::kLocationFree);
    wrong += r.pages[0] != (x ^ y);
    std::printf("XOR (location-free): %llu sensings, %.1f us, correct: "
                "%s\n",
                static_cast<unsigned long long>(r.stats.senseOps),
                ticks::toUs(r.stats.elapsed()),
                r.pages[0] == (x ^ y) ? "yes" : "NO");

    // Unary NOT needs no second operand and no reallocation; the
    // controller picks the LSB- or MSB-page program from the placement.
    r = dev.bitwiseNot(200, 1, core::Mode::kPreAllocated);
    wrong += r.pages[0] != ~x;
    std::printf("NOT: %.1f us, correct: %s\n",
                ticks::toUs(r.stats.elapsed()),
                r.pages[0] == ~x ? "yes" : "NO");

    // Device-level accounting.
    const auto e = dev.ssd().endurance();
    std::printf("device: host %llu B, realloc %llu B, WAF %.3f\n",
                static_cast<unsigned long long>(e.hostBytes),
                static_cast<unsigned long long>(e.reallocBytes),
                e.writeAmplification());
    return wrong == 0 ? 0 : 1;
}
