/**
 * @file
 * Image-encryption example (the paper's Section 5.3.3 case study):
 * XOR-encrypt images against a key image entirely inside the SSD, write
 * the ciphertext back to flash, then decrypt in-flash and verify the
 * round trip.  Demonstrates the NVMe command encoding path as well: the
 * formula travels through CmdParser::encode/parse as it would over a
 * real NVMe queue (paper Figs 10-12).
 *
 * Build & run:  ./build/examples/image_encryption
 */

#include <cstdio>

#include "nvme/parser.hpp"
#include "parabit/device.hpp"
#include "workloads/encryption.hpp"

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

    workloads::EncryptionWorkload enc(16, 16); // 6144-bit images
    const auto img = toPages(enc.imageBits(0), page_bits);
    const auto key = toPages(enc.keyBits(), page_bits);
    const auto pages = static_cast<std::uint32_t>(img.size());
    std::printf("image: 16x16x24bpp = %zu bits in %u flash pages\n",
                enc.imageBits(0).size(), pages);

    dev.writeDataLsbOnly(0, img);   // plaintext
    dev.writeDataLsbOnly(100, key); // key image

    // Encode the encryption formula as NVMe commands and parse it back
    // device-side — the wire path of paper Figs 10-11.
    nvme::CmdParser parser(dev.ssd().geometry().pageBytes);
    const nvme::Formula formula =
        nvme::Formula::chain(flash::BitwiseOp::kXor, {0, 100}, pages);
    const auto cmds = parser.encode(formula);
    std::printf("formula encoded as %zu NVMe commands (operand tags, "
                "i-t/e-t fields, partner LBAs in DW2/3)\n", cmds.size());
    const auto batches = parser.parse(cmds);
    std::printf("device parsed %zu batch(es), %zu sub-operations\n",
                batches.size(), batches[0].subOps.size());

    // Encrypt in flash; persist the cipher at LPN 300.
    const core::ExecResult e = dev.controller().executeBatches(
        batches, core::Mode::kReAllocate, dev.now(), false, 300);
    const bool cipher_ok = [&] {
        for (std::uint32_t p = 0; p < pages; ++p)
            if (e.pages[p] != (img[p] ^ key[p]))
                return false;
        return true;
    }();
    std::printf("encrypted in-flash: %.1f us, cipher %s\n",
                ticks::toUs(e.stats.elapsed()),
                cipher_ok ? "correct" : "WRONG");

    // Decrypt: cipher XOR key, again inside the SSD.
    const core::ExecResult d = dev.bitwise(flash::BitwiseOp::kXor, 300, 100,
                                           pages, core::Mode::kReAllocate);
    bool round_trip = true;
    for (std::uint32_t p = 0; p < pages; ++p)
        round_trip = round_trip && d.pages[p] == img[p];
    std::printf("decrypted in-flash: plaintext round trip %s\n",
                round_trip ? "verified" : "FAILED");

    const auto end = dev.ssd().endurance();
    std::printf("write traffic: host %llu B, reallocation %llu B "
                "(effective TBW at 600 rated: %.1f)\n",
                static_cast<unsigned long long>(end.hostBytes),
                static_cast<unsigned long long>(end.reallocBytes),
                end.effectiveTbw(600.0));
    return cipher_ok && round_trip ? 0 : 1;
}
