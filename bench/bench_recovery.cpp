/**
 * @file
 * SPOR recovery cost: scan time and replay cost vs checkpoint interval.
 *
 * Two tables:
 *  1. Write-path overhead of crash consistency while the device runs —
 *     journal records, checkpoints and total host-write latency vs a
 *     recovery-disabled baseline of the same workload.
 *  2. Recovery cost after a seeded power cut — OOB pages scanned,
 *     checkpoint pages read, journal records replayed and the simulated
 *     recovery time, per checkpoint cadence (0 = no periodic
 *     checkpoint, i.e. a full-device OOB scan).
 *
 * `--json FILE` additionally writes a machine-readable report, following
 * the parabit-verify JSON convention.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/obs_args.hpp"
#include "bench/common/report.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "ssd/ssd.hpp"

namespace {

using namespace parabit;

constexpr ssd::Lpn kHotLpns = 220;   ///< overwrite-heavy working set
constexpr int kWrites = 900;         ///< host writes per run
constexpr std::uint64_t kSeeds = 5;  ///< runs averaged per interval

ssd::SsdConfig
recCfg(std::uint32_t interval, std::uint64_t seed, bool enabled)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.geometry.blocksPerPlane = 16;
    cfg.geometry.pageBytes = 128;
    cfg.recovery.enabled = enabled;
    cfg.recovery.checkpointIntervalPrograms = interval;
    cfg.seed = 0xBEEF00ull + seed;
    return cfg;
}

struct RunOut
{
    double writeUs = 0;        ///< host-write latency over the workload
    double journalWrites = 0;  ///< journal records made durable
    double checkpoints = 0;    ///< periodic checkpoints committed
    double pagesScanned = 0;   ///< OOB reads during recovery
    double ckptPagesRead = 0;  ///< checkpoint pages loaded
    double journalReplayed = 0;///< journal records replayed
    double rebuilt = 0;        ///< LPN mappings after arbitration
    double scanUs = 0;         ///< simulated recovery duration
};

/** Overwrite-heavy host workload, cut at the end, then power-cycled. */
RunOut
run(std::uint32_t interval, std::uint64_t seed, bool enabled)
{
    ssd::SsdDevice dev(recCfg(interval, seed, enabled));
    ssd::Ftl &ftl = dev.ftl();
    const std::size_t bits = dev.geometry().pageBits();
    Rng rng(seed * 7919 + 13);

    Tick t = 0;
    for (int w = 0; w < kWrites; ++w) {
        std::vector<ssd::PhysOp> ops;
        const ssd::Lpn lpn = rng.below(kHotLpns);
        if (rng.chance(0.08)) {
            ftl.trim(lpn, &ops);
        } else {
            BitVector d(bits);
            for (auto &word : d.words())
                word = rng.next();
            d.maskTail();
            ftl.writePage(lpn, &d, ops);
        }
        t = dev.scheduleOps(ops, t);
    }

    RunOut out;
    out.writeUs = static_cast<double>(t) / double(ticks::kMicrosecond);
    out.journalWrites = static_cast<double>(ftl.journalRecordsWritten());
    out.checkpoints = static_cast<double>(ftl.checkpointsTaken());
    if (!enabled)
        return out;

    // Cut at the very next PhysOp boundary, then restore power.
    ssd::FaultSpec cut;
    cut.cls = ssd::FaultClass::kPowerLoss;
    cut.onset = 0;
    dev.injectFault(cut);
    {
        std::vector<ssd::PhysOp> ops;
        BitVector d(bits);
        ftl.writePage(0, &d, ops); // unacknowledged: the cut fires here
    }
    const ssd::RecoveryReport rep = dev.powerCycle(t);
    out.pagesScanned = static_cast<double>(rep.pagesScanned);
    out.ckptPagesRead = static_cast<double>(rep.checkpointPagesRead);
    out.journalReplayed = static_cast<double>(rep.journalRecords);
    out.rebuilt = static_cast<double>(rep.mappingsRebuilt);
    out.scanUs =
        static_cast<double>(rep.scanTime) / double(ticks::kMicrosecond);
    return out;
}

/** Seed-averaged metrics for one checkpoint cadence. */
RunOut
average(std::uint32_t interval, bool enabled)
{
    RunOut sum;
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
        const RunOut r = run(interval, s, enabled);
        sum.writeUs += r.writeUs;
        sum.journalWrites += r.journalWrites;
        sum.checkpoints += r.checkpoints;
        sum.pagesScanned += r.pagesScanned;
        sum.ckptPagesRead += r.ckptPagesRead;
        sum.journalReplayed += r.journalReplayed;
        sum.rebuilt += r.rebuilt;
        sum.scanUs += r.scanUs;
    }
    const double n = static_cast<double>(kSeeds);
    sum.writeUs /= n;
    sum.journalWrites /= n;
    sum.checkpoints /= n;
    sum.pagesScanned /= n;
    sum.ckptPagesRead /= n;
    sum.journalReplayed /= n;
    sum.rebuilt /= n;
    sum.scanUs /= n;
    return sum;
}

std::string
intervalLabel(std::uint32_t interval)
{
    return interval == 0 ? std::string("none (full OOB scan)")
                         : "every " + std::to_string(interval) + " programs";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bench::ObsOptions obs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (obs.consume(argc, argv, i)) {
            continue;
        } else {
            std::fprintf(stderr, "usage: %s [--json FILE]\n%s\n", argv[0],
                         bench::ObsOptions::help());
            return 2;
        }
    }
    obs.enableMetrics(); // before any device is constructed

    bench::banner("SPOR recovery: scan time and replay cost vs checkpoint "
                  "interval");

    const std::uint32_t kIntervals[] = {0, 8, 32, 128};
    const RunOut off = average(0, /*enabled=*/false);
    std::vector<RunOut> rows;
    for (const auto interval : kIntervals)
        rows.push_back(average(interval, /*enabled=*/true));

    bench::section("write-path overhead while running (900 hot writes, "
                   "seed-averaged)");
    std::printf("%-28s %12s %8s %10s %8s\n", "checkpoint cadence",
                "write us", "ratio", "journal", "ckpts");
    std::printf("  %-26s %12.1f %8s %10s %8s\n", "recovery disabled",
                off.writeUs, "1.00", "-", "-");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("  %-26s %12.1f %8.2f %10.1f %8.1f\n",
                    intervalLabel(kIntervals[i]).c_str(), rows[i].writeUs,
                    off.writeUs > 0 ? rows[i].writeUs / off.writeUs : 0.0,
                    rows[i].journalWrites, rows[i].checkpoints);
    }
    bench::note("ratio = host-write latency vs the recovery-disabled "
                "baseline; journal = write-ahead records made durable");

    bench::section("recovery cost after a power cut (seed-averaged)");
    std::printf("%-28s %10s %10s %10s %10s %12s\n", "checkpoint cadence",
                "oob pages", "ckpt pgs", "replayed", "rebuilt",
                "recovery us");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("  %-26s %10.1f %10.1f %10.1f %10.1f %12.1f\n",
                    intervalLabel(kIntervals[i]).c_str(),
                    rows[i].pagesScanned, rows[i].ckptPagesRead,
                    rows[i].journalReplayed, rows[i].rebuilt,
                    rows[i].scanUs);
    }
    bench::note("a tighter cadence trades steady-state checkpoint traffic "
                "for a smaller scan set and shorter journal replay");

    if (!json_path.empty()) {
        json::Writer w;
        w.beginObject();
        w.field("tool", "bench_recovery");
        w.key("rows").beginArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const RunOut &r = rows[i];
            w.beginObject();
            w.field("checkpoint_interval", kIntervals[i]);
            w.field("write_us", r.writeUs);
            w.field("write_us_baseline", off.writeUs);
            w.field("journal_records", r.journalWrites);
            w.field("checkpoints", r.checkpoints);
            w.field("oob_pages_scanned", r.pagesScanned);
            w.field("checkpoint_pages_read", r.ckptPagesRead);
            w.field("journal_replayed", r.journalReplayed);
            w.field("mappings_rebuilt", r.rebuilt);
            w.field("recovery_us", r.scanUs);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        if (!json::writeFile(json_path, w.str()))
            return 2;
    }
    return obs.finish() ? 0 : 2;
}
