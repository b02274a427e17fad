/**
 * @file
 * Pins the host command lifecycle to recorded values.  A seeded stream
 * of reads, writes, flushes and 2-4-operand formulas, some addressing
 * LBAs past host capacity, runs through HostInterface on three queues
 * with the watchdog (two requeues, exponential backoff), an admission
 * limit, metrics, SLO trackers and the health state machine armed,
 * while a correlated fault storm degrades the device.  Every completion
 * (queue, cid, status, latency), the host.* counters, the
 * obs.latency.* histograms and the SLO counts must equal the table
 * below: a change to HostInterface::pump() that moves any completion,
 * tick, counter or sample fails here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "parabit/host_interface.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/health.hpp"

namespace parabit::core {
namespace {

constexpr std::uint16_t kQueues = 3;
constexpr std::uint16_t kDepth = 16;
constexpr nvme::Lpn kPreloaded = 24;

ssd::SsdConfig
pinCfg()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.media.enabled = true;
    cfg.media.scrubInterval = ticks::fromUs(2);
    cfg.media.scrubWordlinesPerPass = 16;
    cfg.rain.enabled = true;
    cfg.health.enabled = true;
    cfg.health.degradedThreshold = 4.0;
    cfg.health.readOnlyThreshold = 12.0;
    cfg.health.failedThreshold = 1e9;
    cfg.health.pressureHalfLife = ticks::fromMs(2);
    cfg.health.minDwell = ticks::fromUs(200);
    cfg.health.weightRetiredBlock = 4.0;
    return cfg;
}

std::vector<BitVector>
seededPages(const ssd::SsdConfig &cfg, nvme::Lpn n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVector> out;
    for (nvme::Lpn p = 0; p < n; ++p) {
        BitVector v(cfg.geometry.pageBits());
        for (auto &w : v.words())
            w = rng.next();
        v.maskTail();
        out.push_back(std::move(v));
    }
    return out;
}

/** FNV-1a accumulator. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

std::string
fmt(const char *f, unsigned long long a, unsigned long long b,
    unsigned long long c = 0, unsigned long long d = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b, c, d);
    return buf;
}

/** What one run of the stream leaves behind, one readable row each;
 *  @p statuses receives the completion count per NVMe status. */
std::vector<std::string>
runStream(std::uint64_t seed,
          std::map<std::uint16_t, std::uint64_t> *statuses = nullptr)
{
    obs::MetricsRegistry::global().setEnabled(true);
    std::vector<std::string> rows;
    {
        const ssd::SsdConfig cfg = pinCfg();
        ParaBitDevice dev(cfg);
        dev.writeData(0, seededPages(cfg, kPreloaded, seed));
        const nvme::Lpn capacity = dev.ssd().ftl().logicalPages();

        HostInterface host(dev, kQueues, kDepth, Mode::kReAllocate);
        RetryPolicy rp;
        rp.commandTimeout = ticks::fromUs(1500);
        rp.maxRequeues = 2;
        rp.backoffBase = ticks::fromUs(50);
        rp.jitterSeed = seed;
        host.setRetryPolicy(rp);
        host.setAdmissionLimit(12);
        obs::SloConfig slo;
        slo.target = ticks::fromUs(800);
        slo.window = ticks::fromMs(2);
        for (int c = 0; c < kNumOpClasses; ++c)
            host.setSlo(static_cast<OpClass>(c), slo);

        Rng rng(seed ^ 0x5107ull);
        Digest log;
        std::map<std::uint16_t, std::uint64_t> by_status;
        std::uint64_t completions = 0;
        const auto drain = [&] {
            host.pump();
            for (std::uint16_t q = 0; q < kQueues; ++q) {
                while (const auto c = host.reap(q)) {
                    log.mix(c->qid);
                    log.mix(c->cid);
                    log.mix(c->status);
                    log.mix(c->latency);
                    log.mix(c->pages.size());
                    for (const BitVector &p : c->pages)
                        for (const auto w : p.words())
                            log.mix(w);
                    ++by_status[c->status];
                    ++completions;
                }
            }
        };
        const auto operand = [&] {
            return static_cast<nvme::Lpn>(rng.below(kPreloaded));
        };
        const auto submit = [&](int n) {
            for (int i = 0; i < n; ++i) {
                const auto q = static_cast<std::uint16_t>(rng.below(kQueues));
                const std::uint64_t roll = rng.below(100);
                if (roll < 30) {
                    host.submitRead(q, static_cast<nvme::Lpn>(rng.below(40)));
                } else if (roll < 34) {
                    host.submitRead(q, capacity + rng.below(8));
                } else if (roll < 62) {
                    host.submitWrite(q,
                                     static_cast<nvme::Lpn>(rng.below(48)));
                } else if (roll < 65) {
                    host.submitWrite(q, capacity + rng.below(8));
                } else if (roll < 72) {
                    host.submitFlush(q);
                } else {
                    const std::size_t n_ops = 2 + rng.below(3);
                    std::vector<nvme::Lpn> ops;
                    for (std::size_t k = 0; k < n_ops; ++k)
                        ops.push_back(operand());
                    if (roll >= 96)
                        ops.back() = capacity + rng.below(4);
                    const auto op =
                        static_cast<flash::BitwiseOp>(rng.below(6));
                    host.submitFormula(q, nvme::Formula::chain(op, ops, 1));
                }
            }
        };

        for (int round = 0; round < 4; ++round) {
            submit(10);
            drain();
        }
        for (const ssd::FaultSpec &f : ssd::FaultInjector::stormSchedule(
                 cfg.geometry, seed, ssd::StormConfig{}))
            dev.ssd().injectFault(f);
        ssd::FaultSpec hot;
        hot.cls = ssd::FaultClass::kProgramFailure;
        hot.plane = static_cast<ssd::PlaneIndex>(
            rng.below(cfg.geometry.planesTotal()));
        hot.failPeriod = 1;
        dev.ssd().injectFault(hot);
        for (int round = 0; round < 14; ++round) {
            submit(14);
            drain();
        }
        dev.ssd().clearTransientFaults();
        for (int round = 0; round < 6; ++round) {
            submit(8);
            drain();
        }
        host.finalizeSlo();

        rows.push_back(fmt("completions=%llu log=%016llx end=%llu",
                           completions, log.h, dev.now()));
        std::string status_row = "status";
        for (const auto &[s, n] : by_status)
            status_row += fmt(" %llx:%llu", s, n);
        rows.push_back(status_row);
        if (statuses)
            *statuses = by_status;

        rows.push_back(fmt("host timeouts=%llu requeues=%llu sheds=%llu "
                           "write_rejects=%llu",
                           host.timeouts(), host.requeues(), host.sheds(),
                           host.writeRejects()));
        rows.push_back(fmt("health max_state=%llu transitions=%llu",
                           static_cast<unsigned long long>(
                               dev.ssd().health()->maxState()),
                           dev.ssd().health()->transitions().size()));
        for (int c = 0; c < kNumOpClasses; ++c) {
            const std::string prefix =
                std::string("obs.latency.") +
                opClassName(static_cast<OpClass>(c)) + ".";
            std::string row = prefix;
            Digest d;
            for (const auto &[name, h] :
                 obs::MetricsRegistry::global().histograms()) {
                if (name.compare(0, prefix.size(), prefix) != 0)
                    continue;
                row += " " + name.substr(prefix.size()) + "=" +
                       std::to_string(h.total());
                d.mix(h.underflow());
                d.mix(h.overflow());
                for (std::size_t b = 0; b < h.buckets(); ++b)
                    d.mix(h.bucketCount(b));
            }
            rows.push_back(row + fmt(" h=%016llx", d.h, 0));
            const obs::SloTracker *t = host.slo(static_cast<OpClass>(c));
            rows.push_back(std::string("obs.slo.") +
                           opClassName(static_cast<OpClass>(c)) +
                           fmt(" violations=%llu windows=%llu",
                               t->violations(), t->windowsClosed()));
        }
    }
    obs::MetricsRegistry::global().setEnabled(false);
    obs::MetricsRegistry::global().clear();
    return rows;
}

struct PinCase
{
    std::uint64_t seed;
    std::vector<std::string> rows;
};

const std::vector<PinCase> &
pinCases()
{
    // clang-format off
    static const std::vector<PinCase> cases = {
        {1,
         {
             "completions=392 log=f9a0a8a00dae7a57 end=4480440000",
             "status 0:103 7:108 20:72 80:18 281:29 701:62",
             "host timeouts=108 requeues=108 sheds=62 write_rejects=72",
             "health max_state=2 transitions=4",
             "obs.latency.read. array=119 cmd=119 queue=119 sq_wait=119 suspend=119 total=119 xfer_in=119 xfer_out=119 h=339dfc73bbc02d19",
             "obs.slo.read violations=68 windows=84",
             "obs.latency.write. array=36 cmd=36 queue=36 sq_wait=36 suspend=36 total=36 xfer_in=36 xfer_out=36 h=6a83e3bbf1fc57f3",
             "obs.slo.write violations=28 windows=83",
             "obs.latency.flush. array=0 cmd=0 queue=0 sq_wait=18 suspend=0 total=18 xfer_in=0 xfer_out=0 h=9ddcb5b2e92b2c25",
             "obs.slo.flush violations=0 windows=3",
             "obs.latency.formula. array=38 cmd=38 queue=38 sq_wait=38 suspend=38 total=38 xfer_in=38 xfer_out=38 h=dc52dcd5c4025b3b",
             "obs.slo.formula violations=38 windows=82",
         }},
        {7,
         {
             "completions=396 log=952e7a3ca81cbc1e end=4480440000",
             "status 0:95 7:112 20:75 80:34 281:29 701:51",
             "host timeouts=112 requeues=112 sheds=51 write_rejects=75",
             "health max_state=2 transitions=4",
             "obs.latency.read. array=116 cmd=116 queue=116 sq_wait=116 suspend=116 total=116 xfer_in=116 xfer_out=116 h=28f52138bb234c85",
             "obs.slo.read violations=65 windows=69",
             "obs.latency.write. array=30 cmd=30 queue=30 sq_wait=30 suspend=30 total=30 xfer_in=30 xfer_out=30 h=51227579acba67eb",
             "obs.slo.write violations=29 windows=68",
             "obs.latency.flush. array=0 cmd=0 queue=0 sq_wait=20 suspend=0 total=20 xfer_in=0 xfer_out=0 h=34fb55e99be39325",
             "obs.slo.flush violations=0 windows=3",
             "obs.latency.formula. array=41 cmd=41 queue=41 sq_wait=41 suspend=41 total=41 xfer_in=41 xfer_out=41 h=0f5f2306d20d232b",
             "obs.slo.formula violations=41 windows=58",
         }},
    };
    // clang-format on
    return cases;
}

class HostPinTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HostPinTest, StreamMatchesRecordedValues)
{
    const PinCase &c = pinCases().at(GetParam());
    const std::vector<std::string> got = runStream(c.seed);
    std::string all;
    for (const std::string &r : got)
        all += "\n\"" + r + "\",";
    ASSERT_EQ(got.size(), c.rows.size()) << all;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], c.rows[i]) << "seed " << c.seed << " row " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HostPinTest, ::testing::Range<std::size_t>(0, pinCases().size()),
    [](const auto &info) {
        return "Seed" + std::to_string(pinCases().at(info.param).seed);
    });

TEST(HostPin, StreamReachesEveryCompletionPath)
{
    // The pin guards the lifecycle only if the stream reaches every way
    // a command can end: served, refused at the LBA check, shed by the
    // admission limit or the degraded-device formula gate, aborted by
    // the watchdog, and failed by the media.
    std::map<std::uint16_t, std::uint64_t> statuses;
    runStream(pinCases().front().seed, &statuses);
    for (const std::uint16_t s :
         {nvme::kSuccess, nvme::kLbaOutOfRange, nvme::kAdmissionShed,
          nvme::kCommandAborted, nvme::kUnrecoveredReadError})
        EXPECT_GT(statuses[s], 0u) << "status 0x" << std::hex << s;
}

} // namespace
} // namespace parabit::core
