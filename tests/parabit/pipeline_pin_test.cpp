/**
 * @file
 * Pins the ParaBit page-op pipeline to recorded values.  A seeded
 * sequence of binary ops, chains (with and without a result
 * write-back) and NOTs over LSB-resident operands runs in every mode,
 * with the reliability policy off and on, functional and timing-only.
 * With the policy on, the device is noisy and one plane has an
 * elevated RBER, so the self-test, the votes and the host fallback all
 * run.  Every ExecStats counter, the start and end ticks, the status
 * and a digest of the result pages must equal the table below: a
 * change to the pipeline that moves any op sequence, tick or counter
 * fails here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "parabit/device.hpp"
#include "ssd/fault_injector.hpp"

namespace parabit::core {
namespace {

constexpr std::uint32_t kPages = 4;

struct PinCase
{
    Mode mode;
    bool policy;
    bool functional;
    std::vector<std::string> rows; ///< one per call of the sequence
};

std::vector<BitVector>
randomPages(const ssd::SsdConfig &cfg, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (std::uint32_t p = 0; p < kPages; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

/** FNV-1a over every result page's size and words. */
std::uint64_t
digest(const std::vector<BitVector> &pages)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const BitVector &p : pages) {
        mix(p.size());
        for (const auto w : p.words())
            mix(w);
    }
    return h;
}

std::string
row(const ExecResult &r)
{
    const ExecStats &s = r.stats;
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "sense=%llu reads=%llu progs=%llu realloc=%llu xfer=%llu "
        "errs=%llu self=%llu parity=%llu detect=%llu esc=%llu retry=%llu "
        "fallback=%llu retired=%llu t=%llu..%llu %s pages=%zu h=%016llx",
        static_cast<unsigned long long>(s.senseOps),
        static_cast<unsigned long long>(s.pageReads),
        static_cast<unsigned long long>(s.pagePrograms),
        static_cast<unsigned long long>(s.reallocBytes),
        static_cast<unsigned long long>(s.resultBytes),
        static_cast<unsigned long long>(s.bitErrors),
        static_cast<unsigned long long>(s.selfTests),
        static_cast<unsigned long long>(s.parityChecks),
        static_cast<unsigned long long>(s.detections),
        static_cast<unsigned long long>(s.voteEscalations),
        static_cast<unsigned long long>(s.retries),
        static_cast<unsigned long long>(s.hostFallbacks),
        static_cast<unsigned long long>(s.retiredBlocks),
        static_cast<unsigned long long>(s.start),
        static_cast<unsigned long long>(s.end), execStatusName(r.status),
        r.pages.size(), static_cast<unsigned long long>(digest(r.pages)));
    return buf;
}

/** Runs the pinned sequence on a fresh device. */
std::vector<ExecResult>
runSequence(Mode mode, bool policy, bool functional)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = functional;
    cfg.seed = 29;
    if (policy) {
        cfg.errors.observedErrorsAtRef = 1.0;
        cfg.errors.wordlineBits =
            static_cast<double>(cfg.geometry.pageBits());
        cfg.errors.refPeCycles = 1.0;
        cfg.errors.decadesOverLife = 0.0;
    }
    ParaBitDevice dev(cfg);
    if (policy) {
        ReliabilityPolicy p;
        p.enabled = true;
        dev.controller().setReliability(p);
        // Plane 0 is too noisy to pass its self-test (host fallback);
        // plane 1 is noisy enough that votes escalate.
        for (const auto &[plane, mult] :
             {std::pair<ssd::PlaneIndex, double>{0, 200.0}, {1, 4.0}}) {
            ssd::FaultSpec s;
            s.cls = ssd::FaultClass::kElevatedRber;
            s.plane = plane;
            s.rberMultiplier = mult;
            dev.ssd().injectFault(s);
        }
    }

    const nvme::Lpn a = 0, b = 100, c = 200, out = 300;
    if (functional) {
        dev.writeDataLsbOnly(a, randomPages(cfg, 1));
        dev.writeDataLsbOnly(b, randomPages(cfg, 2));
        dev.writeDataLsbOnly(c, randomPages(cfg, 3));
    } else {
        dev.writeMetaLsbOnly(a, kPages);
        dev.writeMetaLsbOnly(b, kPages);
        dev.writeMetaLsbOnly(c, kPages);
    }

    std::vector<ExecResult> results;
    results.push_back(dev.bitwise(flash::BitwiseOp::kAnd, a, b, kPages, mode));
    results.push_back(dev.bitwise(flash::BitwiseOp::kXor, a, c, kPages, mode));
    results.push_back(
        dev.bitwise(flash::BitwiseOp::kXnor, b, c, kPages, mode));
    results.push_back(
        dev.bitwiseChain(flash::BitwiseOp::kOr, {a, b, c}, kPages, mode));
    results.push_back(dev.bitwiseChain(flash::BitwiseOp::kNand, {c, a, b},
                                       kPages, mode, true, out));
    results.push_back(dev.bitwiseNot(a, kPages, mode));
    results.push_back(dev.bitwiseNot(b, kPages, mode));
    return results;
}

std::string
caseName(const PinCase &c)
{
    std::string n = c.mode == Mode::kPreAllocated  ? "Pre"
                    : c.mode == Mode::kReAllocate ? "ReAlloc"
                                                  : "LocFree";
    n += c.policy ? "_PolicyOn" : "_PolicyOff";
    n += c.functional ? "_Functional" : "_TimingOnly";
    return n;
}

const std::vector<PinCase> &
pinCases()
{
    // clang-format off
    static const std::vector<PinCase> cases = {
        {Mode::kPreAllocated, false, true,
         {
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..3277160000 ok pages=4 h=3f08fa2debc76cb7",
             "sense=16 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3277160000..4783240000 ok pages=4 h=a54d109c1ae4cddd",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=4783240000..7620280000 ok pages=4 h=33c40b4abb5ed94a",
             "sense=16 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=7620280000..11713520000 ok pages=4 h=da3daec954199fb1",
             "sense=8 reads=8 progs=12 realloc=768 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=11713520000..15681080000 ok pages=4 h=7ea11ce31345bfc3",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=15681080000..15706440000 ok pages=4 h=55e60adffc2b4b7a",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=15706440000..15731800000 ok pages=4 h=0304a3dfdde6c1b5",
         }},
        {Mode::kPreAllocated, false, false,
         {
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..3277160000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3277160000..4783240000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=4783240000..7620280000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=7620280000..11713520000 ok pages=0 h=cbf29ce484222325",
             "sense=8 reads=8 progs=12 realloc=768 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=11713520000..15681080000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=15681080000..15706440000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=15706440000..15731800000 ok pages=0 h=cbf29ce484222325",
         }},
        {Mode::kPreAllocated, true, true,
         {
             "sense=104 reads=4 progs=12 realloc=256 xfer=256 errs=16 self=4 parity=4 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..7088120000 ok pages=4 h=3f08fa2debc76cb7",
             "sense=156 reads=6 progs=12 realloc=256 xfer=192 errs=588 self=4 parity=3 detect=7 esc=6 retry=0 fallback=1 retired=0 t=7088120000..13155160000 ok pages=4 h=a54d109c1ae4cddd",
             "sense=68 reads=8 progs=8 realloc=512 xfer=256 errs=12 self=0 parity=9 detect=6 esc=6 retry=0 fallback=0 retired=0 t=13155160000..16792200000 ok pages=4 h=33c40b4abb5ed94a",
             "sense=58 reads=12 progs=16 realloc=1024 xfer=256 errs=13 self=0 parity=7 detect=10 esc=10 retry=0 fallback=1 retired=0 t=16792200000..21485440000 ok pages=4 h=da3daec954199fb1",
             "sense=23 reads=10 progs=12 realloc=768 xfer=192 errs=30 self=0 parity=6 detect=5 esc=4 retry=1 fallback=2 retired=0 t=21485440000..26293280000 ok pages=4 h=7ea11ce31345bfc3",
             "sense=12 reads=1 progs=0 realloc=0 xfer=192 errs=10 self=0 parity=3 detect=4 esc=4 retry=0 fallback=1 retired=0 t=26293280000..26418640000 ok pages=4 h=55e60adffc2b4b7a",
             "sense=14 reads=0 progs=0 realloc=0 xfer=256 errs=3 self=0 parity=4 detect=4 esc=4 retry=0 fallback=0 retired=0 t=26418640000..26544000000 ok pages=4 h=0304a3dfdde6c1b5",
         }},
        {Mode::kPreAllocated, true, false,
         {
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..3277160000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3277160000..4783240000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=4783240000..7620280000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=7620280000..11713520000 ok pages=0 h=cbf29ce484222325",
             "sense=8 reads=8 progs=12 realloc=768 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=11713520000..15681080000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=15681080000..15706440000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=15706440000..15731800000 ok pages=0 h=cbf29ce484222325",
         }},
        {Mode::kReAllocate, false, true,
         {
             "sense=4 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..4557720000 ok pages=4 h=3f08fa2debc76cb7",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=4557720000..7369280000 ok pages=4 h=a54d109c1ae4cddd",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=7369280000..10155920000 ok pages=4 h=33c40b4abb5ed94a",
             "sense=16 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=10155920000..14198760000 ok pages=4 h=da3daec954199fb1",
             "sense=8 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=14198760000..18831880000 ok pages=4 h=7ea11ce31345bfc3",
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=18831880000..20187960000 ok pages=4 h=55e60adffc2b4b7a",
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=20187960000..21544040000 ok pages=4 h=0304a3dfdde6c1b5",
         }},
        {Mode::kReAllocate, false, false,
         {
             "sense=4 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..4557720000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=4557720000..7369280000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=7369280000..10155920000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=10155920000..14198760000 ok pages=0 h=cbf29ce484222325",
             "sense=8 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=14198760000..18831880000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=18831880000..20187960000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=20187960000..21544040000 ok pages=0 h=cbf29ce484222325",
         }},
        {Mode::kReAllocate, true, true,
         {
             "sense=104 reads=8 progs=16 realloc=512 xfer=256 errs=16 self=4 parity=4 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..8368680000 ok pages=4 h=3f08fa2debc76cb7",
             "sense=156 reads=8 progs=16 realloc=512 xfer=192 errs=589 self=4 parity=8 detect=7 esc=6 retry=0 fallback=1 retired=0 t=8368680000..15741200000 ok pages=4 h=a54d109c1ae4cddd",
             "sense=68 reads=8 progs=8 realloc=512 xfer=256 errs=12 self=0 parity=9 detect=6 esc=6 retry=0 fallback=0 retired=0 t=15741200000..19327840000 ok pages=4 h=33c40b4abb5ed94a",
             "sense=58 reads=12 progs=16 realloc=1024 xfer=256 errs=13 self=0 parity=7 detect=10 esc=10 retry=0 fallback=1 retired=0 t=19327840000..23970680000 ok pages=4 h=da3daec954199fb1",
             "sense=20 reads=12 progs=16 realloc=1024 xfer=256 errs=3 self=0 parity=7 detect=4 esc=4 retry=0 fallback=1 retired=0 t=23970680000..28828800000 ok pages=4 h=7ea11ce31345bfc3",
             "sense=14 reads=4 progs=4 realloc=256 xfer=256 errs=7 self=0 parity=9 detect=4 esc=4 retry=0 fallback=0 retired=0 t=28828800000..30309880000 ok pages=4 h=55e60adffc2b4b7a",
             "sense=17 reads=4 progs=4 realloc=256 xfer=192 errs=30 self=0 parity=6 detect=5 esc=4 retry=1 fallback=1 retired=0 t=30309880000..31790960000 ok pages=4 h=0304a3dfdde6c1b5",
         }},
        {Mode::kReAllocate, true, false,
         {
             "sense=4 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..4557720000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=4557720000..7369280000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=8 progs=8 realloc=512 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=7369280000..10155920000 ok pages=0 h=cbf29ce484222325",
             "sense=16 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=10155920000..14198760000 ok pages=0 h=cbf29ce484222325",
             "sense=8 reads=12 progs=16 realloc=1024 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=14198760000..18831880000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=18831880000..20187960000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=20187960000..21544040000 ok pages=0 h=cbf29ce484222325",
         }},
        {Mode::kLocationFree, false, true,
         {
             "sense=8 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..3327160000 ok pages=4 h=3f08fa2debc76cb7",
             "sense=20 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3327160000..3452520000 ok pages=4 h=a54d109c1ae4cddd",
             "sense=20 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3452520000..5008600000 ok pages=4 h=33c40b4abb5ed94a",
             "sense=24 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=5008600000..5899840000 ok pages=4 h=da3daec954199fb1",
             "sense=24 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=5899840000..6765920000 ok pages=4 h=7ea11ce31345bfc3",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=6765920000..6791280000 ok pages=4 h=55e60adffc2b4b7a",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=6791280000..6816640000 ok pages=4 h=0304a3dfdde6c1b5",
         }},
        {Mode::kLocationFree, false, false,
         {
             "sense=8 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..3327160000 ok pages=0 h=cbf29ce484222325",
             "sense=20 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3327160000..3452520000 ok pages=0 h=cbf29ce484222325",
             "sense=20 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3452520000..5008600000 ok pages=0 h=cbf29ce484222325",
             "sense=24 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=5008600000..5899840000 ok pages=0 h=cbf29ce484222325",
             "sense=24 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=5899840000..6765920000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=6765920000..6791280000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=6791280000..6816640000 ok pages=0 h=cbf29ce484222325",
         }},
        {Mode::kLocationFree, true, true,
         {
             "sense=124 reads=4 progs=12 realloc=256 xfer=256 errs=17 self=4 parity=4 detect=4 esc=4 retry=0 fallback=0 retired=0 t=1921080000..7338120000 ok pages=4 h=3f08fa2debc76cb7",
             "sense=156 reads=2 progs=8 realloc=0 xfer=192 errs=597 self=4 parity=3 detect=5 esc=4 retry=0 fallback=1 retired=0 t=7338120000..11974440000 ok pages=4 h=a54d109c1ae4cddd",
             "sense=60 reads=6 progs=4 realloc=256 xfer=192 errs=21 self=0 parity=3 detect=4 esc=4 retry=0 fallback=1 retired=0 t=11974440000..14155520000 ok pages=4 h=33c40b4abb5ed94a",
             "sense=60 reads=5 progs=4 realloc=256 xfer=192 errs=11 self=0 parity=7 detect=4 esc=4 retry=0 fallback=1 retired=0 t=14155520000..15596840000 ok pages=4 h=da3daec954199fb1",
             "sense=87 reads=2 progs=0 realloc=0 xfer=256 errs=23 self=0 parity=7 detect=10 esc=10 retry=0 fallback=1 retired=0 t=15596840000..17363560000 ok pages=4 h=7ea11ce31345bfc3",
             "sense=9 reads=1 progs=0 realloc=0 xfer=192 errs=13 self=0 parity=3 detect=2 esc=2 retry=0 fallback=1 retired=0 t=17363560000..17488840000 ok pages=4 h=55e60adffc2b4b7a",
             "sense=14 reads=0 progs=0 realloc=0 xfer=256 errs=4 self=0 parity=4 detect=4 esc=4 retry=0 fallback=0 retired=0 t=17488840000..17614200000 ok pages=4 h=0304a3dfdde6c1b5",
         }},
        {Mode::kLocationFree, true, false,
         {
             "sense=8 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=1921080000..3327160000 ok pages=0 h=cbf29ce484222325",
             "sense=20 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3327160000..3452520000 ok pages=0 h=cbf29ce484222325",
             "sense=20 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=3452520000..5008600000 ok pages=0 h=cbf29ce484222325",
             "sense=24 reads=4 progs=4 realloc=256 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=5008600000..5899840000 ok pages=0 h=cbf29ce484222325",
             "sense=24 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=5899840000..6765920000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=6765920000..6791280000 ok pages=0 h=cbf29ce484222325",
             "sense=4 reads=0 progs=0 realloc=0 xfer=256 errs=0 self=0 parity=0 detect=0 esc=0 retry=0 fallback=0 retired=0 t=6791280000..6816640000 ok pages=0 h=cbf29ce484222325",
         }},
    };
    // clang-format on
    return cases;
}

class PipelinePinTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PipelinePinTest, SequenceMatchesRecordedValues)
{
    const PinCase &c = pinCases().at(GetParam());
    const std::vector<ExecResult> got =
        runSequence(c.mode, c.policy, c.functional);
    ASSERT_EQ(got.size(), c.rows.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(row(got[i]), c.rows[i]) << caseName(c) << " call " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllModesPoliciesAndPayloads, PipelinePinTest,
    ::testing::Range<std::size_t>(0, pinCases().size()),
    [](const auto &info) { return caseName(pinCases().at(info.param)); });

TEST(PipelinePin, PolicyOnRunsTheWholeLadder)
{
    // The pin guards the ladder only if the sequence reaches every rung.
    ExecStats total;
    for (const Mode m :
         {Mode::kPreAllocated, Mode::kReAllocate, Mode::kLocationFree})
        for (const ExecResult &r : runSequence(m, true, true))
            total.accumulate(r.stats);
    EXPECT_GT(total.selfTests, 0u);
    EXPECT_GT(total.voteEscalations, 0u);
    EXPECT_GT(total.hostFallbacks, 0u);
}

} // namespace
} // namespace parabit::core
