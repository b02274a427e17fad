/**
 * @file
 * Bitmap-index analytics example (the paper's Section 5.3.2 case
 * study): daily user-activity bitmaps live in flash; the query "users
 * active every day" folds an AND chain inside the SSD and returns only
 * the final bitmap for the host-side population count.
 *
 * Compares all three ParaBit execution schemes on the same query and
 * prints their simulated in-flash times alongside the verified count.
 *
 * Build & run:  ./build/examples/bitmap_analytics
 */

#include <cstdio>

#include "parabit/device.hpp"
#include "workloads/bitmap_index.hpp"

int
main()
{
    using namespace parabit;

    const std::uint32_t days = 10;
    core::ParaBitDevice dev(ssd::SsdConfig::tiny());
    const std::size_t page_bits = dev.ssd().geometry().pageBits();
    const std::uint64_t users = page_bits; // one page per daily bitmap

    workloads::BitmapIndexWorkload bw(users, days, /*p_active=*/0.9);
    std::printf("%llu users, %u days, activity probability 0.9\n",
                static_cast<unsigned long long>(users), days);

    // Load the daily bitmaps LSB-only (paper Section 5.5 layout) into
    // one plane: the free MSB pages later receive chained intermediate
    // results, and sharing bitlines lets location-free mode sense
    // across the bitmaps with no reallocation.
    std::vector<nvme::Lpn> lpns;
    for (std::uint32_t d = 0; d < days; ++d) {
        BitVector page(page_bits);
        page.assign(0, bw.dayBitmap(d));
        dev.writeDataLsbOnlyInPlane(20 * d, {page}, 0);
        lpns.push_back(20 * d);
    }

    const std::uint64_t golden = bw.goldenCount();
    std::printf("golden everyday-active count: %llu\n\n",
                static_cast<unsigned long long>(golden));

    int wrong = 0;
    for (core::Mode mode :
         {core::Mode::kPreAllocated, core::Mode::kReAllocate,
          core::Mode::kLocationFree}) {
        const core::ExecResult r =
            dev.bitwiseChain(flash::BitwiseOp::kAnd, lpns, 1, mode);
        const std::uint64_t count = r.pages[0].popcount();
        wrong += count != golden;
        std::printf("%-18s count=%llu (%s)  in-flash %.1f us, "
                    "%llu sensings, %llu programs, realloc %llu B\n",
                    core::modeName(mode),
                    static_cast<unsigned long long>(count),
                    count == golden ? "correct" : "WRONG",
                    ticks::toUs(r.stats.elapsed()),
                    static_cast<unsigned long long>(r.stats.senseOps),
                    static_cast<unsigned long long>(r.stats.pagePrograms),
                    static_cast<unsigned long long>(r.stats.reallocBytes));
    }

    std::printf("\nonly %llu bytes of result cross the host interface "
                "instead of %llu bytes of daily bitmaps\n",
                static_cast<unsigned long long>(page_bits / 8),
                static_cast<unsigned long long>(days * page_bits / 8));
    return wrong == 0 ? 0 : 1;
}
