/**
 * @file
 * Image-segmentation example (the paper's Section 3 motivation): store
 * pre-processed YUV class planes in flash and recognise colours with
 * in-flash AND chains, comparing every mask against the host golden
 * model and printing per-mode timing.
 *
 * Build & run:  ./build/examples/image_segmentation
 */

#include <cstdio>

#include "parabit/device.hpp"
#include "workloads/segmentation.hpp"

namespace {

using namespace parabit;

std::vector<BitVector>
toPages(const BitVector &bits, std::size_t page_bits)
{
    std::vector<BitVector> pages;
    for (std::size_t pos = 0; pos < bits.size(); pos += page_bits) {
        const std::size_t len = std::min(page_bits, bits.size() - pos);
        BitVector page(page_bits);
        page.assign(0, bits.slice(pos, len));
        pages.push_back(std::move(page));
    }
    return pages;
}

} // namespace

int
main()
{
    core::ParaBitDevice dev(ssd::SsdConfig::tiny());
    const std::size_t page_bits = dev.ssd().geometry().pageBits();

    // Small images so several fit in the tiny device; the computation
    // structure is identical at any scale.
    workloads::SegmentationWorkload seg(64, 48);
    std::printf("image: 64x48, %zu colour classes, class planes %llu B "
                "per channel per image\n",
                seg.colors().size(),
                static_cast<unsigned long long>(seg.generator().pixels() /
                                                8));

    int wrong = 0;
    for (std::size_t color = 0; color < seg.colors().size(); ++color) {
        // Write the three channel class planes LSB-only, then AND them.
        const auto y = toPages(seg.plane(0, 0, color), page_bits);
        const auto u = toPages(seg.plane(0, 1, color), page_bits);
        const auto v = toPages(seg.plane(0, 2, color), page_bits);
        const auto pages = static_cast<std::uint32_t>(y.size());
        // Each colour's planes take 150 LPNs: 4 colours stay well
        // inside the tiny device's host capacity.
        const nvme::Lpn base = 150 * static_cast<nvme::Lpn>(color);
        dev.writeDataLsbOnly(base + 0, y);
        dev.writeDataLsbOnly(base + 50, u);
        dev.writeDataLsbOnly(base + 100, v);

        const core::ExecResult r =
            dev.bitwiseChain(flash::BitwiseOp::kAnd,
                             {base + 0, base + 50, base + 100}, pages,
                             core::Mode::kPreAllocated);

        // Reassemble the mask and check against the golden model.
        BitVector mask(seg.generator().pixels());
        std::size_t pos = 0;
        for (const auto &p : r.pages) {
            const std::size_t len = std::min(p.size(), mask.size() - pos);
            mask.assign(pos, p.slice(0, len));
            pos += len;
            if (pos >= mask.size())
                break;
        }
        const BitVector golden = seg.golden(0, color);
        wrong += mask != golden;
        std::printf("colour %-7s matched pixels: %6zu / %zu, in-flash "
                    "time %.1f us, correct: %s\n",
                    seg.colors()[color].name.c_str(), mask.popcount(),
                    mask.size(), ticks::toUs(r.stats.elapsed()),
                    mask == golden ? "yes" : "NO");
    }

    std::printf("\nonly the (pixels/8)-byte masks would cross the host "
                "interface — the class planes never leave the SSD\n");
    return wrong == 0 ? 0 : 1;
}
